package experiments

import (
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Extras returns experiments beyond the paper's figures: ablations and
// related-work comparisons that the paper discusses but does not plot.
// They run and render exactly like Registry() entries.
func Extras() []Experiment {
	bin := sim.CyclesFromNS(50_000)
	list := []Experiment{
		{
			ID:    "xqueueing",
			Title: "Extra: HoL-reduction queue schemes (related work, Section II) under Case #4 (4 trees)",
			Paper: "not a paper figure; compares the static queue organisations the paper cites (1Q, DBBM, VOQsw, OBQA, VOQnet) against FBICM's dynamic isolation on the Config #3 burst",
			Kind:  Throughput,
			Schemes: []string{
				"1Q", "DBBM", "VOQsw", "OBQA", "VOQnet", "FBICM",
			},
			Duration: ms(4),
			Bin:      bin,
			Build: func(p core.Params, seed int64, bin, end sim.Cycle, o BuildOpts) (*network.Network, error) {
				return BuildConfig3(p, seed, bin, end, 4, o)
			},
		},
		{
			ID:    "xfairness",
			Title: "Extra: parking-lot fairness across every scheme (Config #1, steady contributors)",
			Paper: "not a paper figure; extends the Fig. 9 fairness story to the full scheme set",
			Kind:  FlowBandwidth,
			Schemes: []string{
				"1Q", "DBBM", "VOQsw", "OBQA", "VOQnet", "FBICM", "ITh", "CCFIT",
			},
			Duration: ms(6),
			Bin:      bin,
			FlowIDs:  []int{1, 2, 5, 6},
			Build: func(p core.Params, seed int64, bin, end sim.Cycle, _ BuildOpts) (*network.Network, error) {
				n, err := network.Build(topo.Config1(), p, network.Options{Seed: seed, BinCycles: bin})
				if err != nil {
					return nil, err
				}
				return n, n.AddFlows(parkingLotFlows(end))
			},
		},
		{
			ID:    "x512hotspot",
			Title: "Extra: hotspot+victims at 512-node scale (Config #4, 8-ary 3-tree)",
			Paper: "not a paper figure; 32 sources on distinct leaf switches blast one hot endpoint mid-run while a victim flow on each of those switches crosses the fabric — isolation schemes must keep the victims at full bandwidth while the congestion tree forms and drains",
			Kind:  Throughput,
			Schemes: []string{
				"1Q", "ITh", "FBICM", "CCFIT",
			},
			Duration: ms(2),
			Bin:      bin,
			Build: func(p core.Params, seed int64, bin, end sim.Cycle, o BuildOpts) (*network.Network, error) {
				return BuildConfig4(p, seed, bin, end, o)
			},
		},
		{
			ID:    "xfaultflap",
			Title: "Extra: link-flap recovery on the Case #1 congestion-tree root (Config #1)",
			Paper: "not a paper figure; the root link switchB->node4 goes down for 0.5 ms at t=4 ms while the Case #1 hot spot is active (in-flight packets preserved) — under 1Q the dead link's backlog spreads HoL blocking to the victim flow, under CCFIT the congested flows sit isolated in CFQs and throughput recovers as soon as the link returns",
			Kind:  Throughput,
			Schemes: []string{
				"1Q", "CCFIT",
			},
			Duration: ms(10),
			Bin:      bin,
			Build: func(p core.Params, seed int64, bin, end sim.Cycle, o BuildOpts) (*network.Network, error) {
				n, err := BuildConfig1(p, seed, bin, end, o)
				if err != nil {
					return nil, err
				}
				if _, err := n.InjectFaults(RootFlapScript()); err != nil {
					return nil, err
				}
				return n, nil
			},
		},
	}
	return append(list, datacenterExtras()...)
}

// RootFlapScript is the xfaultflap fault scenario: the congestion
// tree's root link (switchB -> node4, the hot destination's access
// link) flaps down for 0.5 ms at t=4 ms with the lossless-preserving
// policy. The same script ships as scripts/faults/config1-root-flap.json
// for CLI use.
func RootFlapScript() *fault.Script {
	return &fault.Script{
		Name: "config1-root-flap",
		Events: []fault.Event{{
			Kind:       fault.LinkFlap,
			AtMS:       4,
			DurationMS: 0.5,
			Link:       &fault.LinkRef{From: topo.Config1SwitchB, To: 4},
		}},
	}
}

// parkingLotFlows is the steady four-contributor hot spot used by the
// xfairness extra (all contributors active from t=0).
func parkingLotFlows(end sim.Cycle) []traffic.Flow {
	return []traffic.Flow{
		{ID: 1, Src: 1, Dst: 4, Start: 0, End: end, Rate: 1.0},
		{ID: 2, Src: 2, Dst: 4, Start: 0, End: end, Rate: 1.0},
		{ID: 5, Src: 5, Dst: 4, Start: 0, End: end, Rate: 1.0},
		{ID: 6, Src: 6, Dst: 4, Start: 0, End: end, Rate: 1.0},
	}
}
