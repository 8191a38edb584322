// Datacenter workload experiments: CDF-driven open-loop traffic on
// leaf-spine fabrics with flow-completion-time reporting — the regime
// of thousands of short concurrent flows that stresses CCFIT's CAM/CFQ
// sizing in a way none of the paper's scheduled-CBR cases do.

package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// IncastFlows builds an open-loop incast schedule: every endpoint
// except `sink` runs a Poisson arrival process at `load` of its
// injection link, each arrival a finite flow sized from `cdf` and
// addressed to sink. Arrivals stop at arriveEnd; flows may keep
// draining until horizon. Deterministic in (seed, arguments).
func IncastFlows(numEndpoints, sink, bytesPerCycle int, cdf *traffic.CDF, load float64, arriveEnd, horizon sim.Cycle, seed int64) ([]traffic.Flow, error) {
	if sink < 0 || sink >= numEndpoints {
		return nil, fmt.Errorf("experiments: incast sink %d outside [0,%d)", sink, numEndpoints)
	}
	sources := make([]int, 0, numEndpoints-1)
	for e := 0; e < numEndpoints; e++ {
		if e != sink {
			sources = append(sources, e)
		}
	}
	spec := traffic.OpenLoop{
		Sources: sources, NumEndpoints: numEndpoints, Dst: sink,
		CDF: cdf, Load: load, BytesPerCycle: bytesPerCycle,
		Start: 0, End: arriveEnd, Horizon: horizon, Seed: seed,
	}
	return spec.Flows()
}

// ShuffleFlows builds an all-to-all shuffle: wave w = 1..numEndpoints-1
// opens at (w-1)*stagger, with every source sending `bytes` bytes to
// (src+w) mod numEndpoints — each wave is a perfect permutation, and
// over all waves every ordered pair exchanges data once. Flow ids are
// w*numEndpoints+src. No randomness is involved.
func ShuffleFlows(numEndpoints int, bytes int64, stagger, horizon sim.Cycle) []traffic.Flow {
	var flows []traffic.Flow
	for w := 1; w < numEndpoints; w++ {
		start := sim.Cycle(w-1) * stagger
		for src := 0; src < numEndpoints; src++ {
			flows = append(flows, traffic.Flow{
				ID:    w*numEndpoints + src,
				Src:   src,
				Dst:   (src + w) % numEndpoints,
				Start: start,
				End:   horizon,
				Rate:  1.0,
				Bytes: bytes,
			})
		}
	}
	return flows
}

// dcLeafSpine is the shared fabric of the datacenter extras: 4 leaves
// x 4 endpoints over 2 spines (16 endpoints, 2:1 oversubscribed) with
// the paper's standard 2.5 GB/s links.
func dcLeafSpine() (*topo.LeafSpine, error) {
	return topo.NewLeafSpine(4, 4, 2, 1)
}

// BuildLeafIncast wires the xleafincast experiment: a 15-into-1 incast
// of data-mining-sized flows at 0.05 load per source (0.75 of the sink
// link in aggregate) onto the 2:1 leaf-spine fabric, arrivals over the
// first three quarters of the run.
func BuildLeafIncast(p core.Params, seed int64, bin, end sim.Cycle, _ BuildOpts) (*network.Network, error) {
	ls, err := dcLeafSpine()
	if err != nil {
		return nil, err
	}
	n, err := network.Build(ls.Topology, p, network.Options{Seed: seed, BinCycles: bin})
	if err != nil {
		return nil, err
	}
	// Arrivals draw on the engine's seed, so the run counts as seeded.
	flows, err := IncastFlows(ls.NumEndpoints(), 0, sim.FlitBytes, traffic.DataMiningCDF(), 0.05, end*3/4, end, n.Eng.Seed())
	if err != nil {
		return nil, err
	}
	return n, n.AddFlows(flows)
}

// BuildLeafShuffle wires the xleafshuffle experiment: a staggered
// all-to-all shuffle of 64 KB blocks on the same fabric, waves spread
// over the first three quarters of the run.
func BuildLeafShuffle(p core.Params, seed int64, bin, end sim.Cycle, _ BuildOpts) (*network.Network, error) {
	ls, err := dcLeafSpine()
	if err != nil {
		return nil, err
	}
	n, err := network.Build(ls.Topology, p, network.Options{Seed: seed, BinCycles: bin})
	if err != nil {
		return nil, err
	}
	ne := ls.NumEndpoints()
	stagger := end * 3 / 4 / sim.Cycle(ne-1)
	return n, n.AddFlows(ShuffleFlows(ne, 64_000, stagger, end))
}

// datacenterExtras returns the leaf-spine workload experiments; Extras
// appends them to the ablation list.
func datacenterExtras() []Experiment {
	bin := sim.CyclesFromNS(50_000)
	return []Experiment{
		{
			ID:    "xleafincast",
			Title: "Extra: open-loop data-mining incast on a 2:1 leaf-spine fabric (16 nodes, FCT)",
			Paper: "not a paper figure; 15 sources run Poisson arrivals of VL2 data-mining-sized flows into one sink at 0.75 aggregate load — the thousands-of-short-flows regime (CAM/CFQ stress) with FCT slowdown as the headline metric",
			Kind:  Throughput,
			Schemes: []string{
				"1Q", "ITh", "FBICM", "CCFIT",
			},
			Duration: ms(2),
			Bin:      bin,
			Build:    BuildLeafIncast,
		},
		{
			ID:    "xleafshuffle",
			Title: "Extra: staggered all-to-all 64KB shuffle on a 2:1 leaf-spine fabric (16 nodes, FCT)",
			Paper: "not a paper figure; every endpoint exchanges a 64 KB block with every other in permutation waves — the MapReduce shuffle phase, where the oversubscribed spine layer is the bottleneck and isolation schemes must keep waves from blocking each other",
			Kind:  Throughput,
			Schemes: []string{
				"1Q", "ITh", "FBICM", "CCFIT",
			},
			Duration: ms(2),
			Bin:      bin,
			Build:    BuildLeafShuffle,
		},
	}
}
