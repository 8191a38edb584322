package ccfit_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// must stops a memoised scenario on a build error; the scenarios below
// are fixed, so one is a bug in the library, not in the caller.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// quickstart is the library in brief: the paper's Configuration #1
// under the CCFIT preset (2 CFQs per port, FECN/BECN throttling), a
// victim flow 0->3 at the full 2.5 GB/s of its link, and from 0.5 ms a
// 3:1 hot spot onto node 4, run for two simulated milliseconds.
var quickstart = sync.OnceValue(func() *network.Network {
	net, err := network.Build(topo.Config1(), core.PresetCCFIT(), network.Options{Seed: 42})
	must(err)
	end := sim.CyclesFromMS(2)
	burst := sim.CyclesFromMS(0.5)
	must(net.AddFlows([]traffic.Flow{
		{ID: 0, Src: 0, Dst: 3, Start: 0, End: end, Rate: 1.0},
		{ID: 1, Src: 1, Dst: 4, Start: burst, End: end, Rate: 1.0},
		{ID: 2, Src: 2, Dst: 4, Start: burst, End: end, Rate: 1.0},
		{ID: 3, Src: 5, Dst: 4, Start: burst, End: end, Rate: 1.0},
	}))
	net.RunMS(2)
	return net
})

// Example_quickstart prints the quickstart victim's bandwidth per 50 us
// bin: congested packets are isolated in CFQs and throttled at their
// sources, so the victim keeps its link through the hot spot. The last
// row is the partial bin the run ends in.
func Example_quickstart() {
	net := quickstart()
	fmt.Println("victim flow bandwidth (GB/s) per 50 us bin:")
	for i, v := range net.Collector.FlowSeries(0, 0) {
		row := fmt.Sprintf("  t=%5.2f ms %4.2f %s", float64(i)*net.Collector.BinMS(), v, strings.Repeat("#", int(v/2.5*40)))
		fmt.Println(strings.TrimRight(row, " ")) // the partial last bin has no bar
	}
	fmt.Printf("delivered %d packets, mean latency %.0f ns\n",
		net.Collector.DeliveredPkts, net.Collector.AvgLatencyNS())
	// Output:
	// victim flow bandwidth (GB/s) per 50 us bin:
	//   t= 0.00 ms 2.33 #####################################
	//   t= 0.05 ms 2.50 #######################################
	//   t= 0.10 ms 2.50 #######################################
	//   t= 0.15 ms 2.50 #######################################
	//   t= 0.20 ms 2.50 #######################################
	//   t= 0.25 ms 2.50 #######################################
	//   t= 0.30 ms 2.50 #######################################
	//   t= 0.35 ms 2.50 #######################################
	//   t= 0.40 ms 2.50 #######################################
	//   t= 0.45 ms 2.50 #######################################
	//   t= 0.50 ms 2.33 #####################################
	//   t= 0.55 ms 2.50 #######################################
	//   t= 0.60 ms 2.46 #######################################
	//   t= 0.65 ms 2.50 #######################################
	//   t= 0.70 ms 2.50 #######################################
	//   t= 0.75 ms 2.50 #######################################
	//   t= 0.80 ms 2.50 #######################################
	//   t= 0.85 ms 2.50 #######################################
	//   t= 0.90 ms 2.50 #######################################
	//   t= 0.95 ms 2.46 #######################################
	//   t= 1.00 ms 2.50 #######################################
	//   t= 1.05 ms 2.50 #######################################
	//   t= 1.10 ms 2.50 #######################################
	//   t= 1.15 ms 2.50 #######################################
	//   t= 1.20 ms 2.50 #######################################
	//   t= 1.25 ms 2.50 #######################################
	//   t= 1.30 ms 2.50 #######################################
	//   t= 1.35 ms 2.50 #######################################
	//   t= 1.40 ms 2.50 #######################################
	//   t= 1.45 ms 2.50 #######################################
	//   t= 1.50 ms 2.50 #######################################
	//   t= 1.55 ms 2.50 #######################################
	//   t= 1.60 ms 2.50 #######################################
	//   t= 1.65 ms 2.50 #######################################
	//   t= 1.70 ms 2.50 #######################################
	//   t= 1.75 ms 2.50 #######################################
	//   t= 1.80 ms 2.50 #######################################
	//   t= 1.85 ms 2.50 #######################################
	//   t= 1.90 ms 2.50 #######################################
	//   t= 1.95 ms 2.50 #######################################
	//   t= 2.00 ms 0.04
	// delivered 4220 packets, mean latency 26931 ns
}

// TestQuickstartVictimHolds is Example_quickstart's claim: the victim
// keeps at least 2.3 of its 2.5 GB/s in every full bin.
func TestQuickstartVictimHolds(t *testing.T) {
	net := quickstart()
	full := int(net.Eng.Now() / net.Collector.BinCycles())
	series := net.Collector.FlowSeries(0, 0)
	if len(series) < full {
		t.Fatalf("victim series has %d bins, the run %d full ones", len(series), full)
	}
	for i, v := range series[:full] {
		if v < 2.3 {
			t.Errorf("CCFIT victim at %.2f ms: %.2f GB/s < 2.3", float64(i)*net.Collector.BinMS(), v)
		}
	}
}

// hotspotSchemes is the order Example_hotspot prints its table in.
var hotspotSchemes = []string{"1Q", "DBBM", "ITh", "FBICM", "CCFIT", "VOQnet"}

// contributors are the hot spot's parking lot: F1 and F2 reach node 4
// through a queue they share, F5 and F6 are sole users of theirs.
var contributors = []int{1, 2, 5, 6}

// hotspotTraced are the event kinds the CCFIT run records.
var hotspotTraced = []trace.EventKind{
	trace.EvDetect, trace.EvPropagate, trace.EvStop, trace.EvGo,
	trace.EvCongestionOn, trace.EvDealloc, trace.EvMark,
}

// hotspotRun is one scheme's run of the Config #1 hot spot.
type hotspotRun struct {
	net    *network.Network
	victim float64       // flow 0's mean GB/s over the second half of the run
	shares []float64     // F1, F2, F5, F6 over the same bins
	jain   float64       // Jain's index of shares
	events []trace.Event // CCFIT only: the hotspotTraced events, in order
}

// hotspotRuns runs the Config #1 hot spot once per scheme: the victim
// 0->3 beside contributors F1, F2, F5, F6 -> 4, every flow at full rate
// for 5 ms (seed 7). The CCFIT run records hotspotTraced in events.
var hotspotRuns = sync.OnceValue(func() map[string]hotspotRun {
	runs := map[string]hotspotRun{}
	for _, name := range hotspotSchemes {
		p, err := experiments.SchemeByName(name)
		must(err)
		var ring *trace.Ring
		if name == "CCFIT" {
			ring = trace.NewRing(1 << 16)
			p.Tracer = trace.Only(ring, hotspotTraced...)
		}
		net, err := network.Build(topo.Config1(), p, network.Options{Seed: 7})
		must(err)
		end := sim.CyclesFromMS(5)
		flows := []traffic.Flow{{ID: 0, Src: 0, Dst: 3, Start: 0, End: end, Rate: 1.0}}
		for _, f := range contributors {
			flows = append(flows, traffic.Flow{ID: f, Src: f, Dst: 4, Start: 0, End: end, Rate: 1.0})
		}
		must(net.AddFlows(flows))
		net.RunMS(5)

		bins := len(net.Collector.TotalSeries(0))
		r := hotspotRun{net: net, victim: net.Collector.MeanFlowBandwidth(0, bins/2, bins)}
		for _, f := range contributors {
			r.shares = append(r.shares, net.Collector.MeanFlowBandwidth(f, bins/2, bins))
		}
		r.jain = metrics.JainIndex(r.shares)
		if ring != nil {
			r.events = ring.Events()
		}
		runs[name] = r
	}
	return runs
})

// Example_hotspot is the anatomy of one congestion tree: what each
// scheme's machinery did (CFQ detections and releases, Stop/Go, FECN
// marks, BECNs) beside what it bought — the victim's bandwidth and the
// contributors' shares of the hot link, with Jain's fairness index.
// Isolation (FBICM) frees the victim but leaves the parking lot, where
// F5 and F6 get twice F1's and F2's share; throttling (ITh) equalises
// the shares; CCFIT does both. Then the first protocol events of the
// CCFIT run.
func Example_hotspot() {
	runs := hotspotRuns()
	fmt.Println("Config #1 hot spot: victim 0->3 beside F1,F2,F5,F6->4 (GB/s, second half of 5 ms)")
	fmt.Printf("%-6s %6s %5s %5s %5s %5s %5s %6s %7s %5s %6s %5s\n",
		"scheme", "victim", "F1", "F2", "F5", "F6", "Jain", "detect", "dealloc", "stops", "marked", "becns")
	for _, name := range hotspotSchemes {
		r := runs[name]
		ds := r.net.DiscStatsSum()
		marked, becns := 0, 0
		for _, sw := range r.net.Switches {
			marked += sw.Stats().Marked
		}
		for _, nd := range r.net.Nodes {
			becns += nd.Stats().BECNsReceived
		}
		fmt.Printf("%-6s %6.2f %5.2f %5.2f %5.2f %5.2f %5.3f %6d %7d %5d %6d %5d\n",
			name, r.victim, r.shares[0], r.shares[1], r.shares[2], r.shares[3], r.jain,
			ds.Detections, ds.Deallocs, ds.StopsSent, marked, becns)
	}
	fmt.Println("first protocol events of the CCFIT run:")
	for _, ev := range runs["CCFIT"].events[:10] {
		fmt.Println(trace.Format(ev))
	}
	// Output:
	// Config #1 hot spot: victim 0->3 beside F1,F2,F5,F6->4 (GB/s, second half of 5 ms)
	// scheme victim    F1    F2    F5    F6  Jain detect dealloc stops marked becns
	// 1Q       0.42  0.42  0.42  0.83  0.83 0.900      0       0     0      0     0
	// DBBM     0.41  0.41  0.41  0.82  0.82 0.900      0       0     0      0     0
	// ITh      2.09  0.60  0.60  0.57  0.60 1.000      0       0     0   4541  2721
	// FBICM    2.50  0.46  0.37  0.83  0.83 0.898      4       0   904      0     0
	// CCFIT    2.45  0.58  0.60  0.62  0.63 0.999     32     430   241   4049  2530
	// VOQnet   2.50  0.00  0.00  1.25  1.25 0.500      0       0     0      0     0
	// first protocol events of the CCFIT run:
	//     0.005ms detect         swB:p4 dest=4 cfq=0
	//     0.006ms propagate      swB:p4 dest=4 cfq=0
	//     0.006ms congestion-on  swB:p1
	//     0.006ms mark           swB:p1 dest=4 pkt=3
	//     0.007ms detect         swB:p2 dest=4 cfq=0
	//     0.007ms detect         swB:p3 dest=4 cfq=0
	//     0.007ms propagate      swB:p2 dest=4 cfq=0
	//     0.007ms propagate      swB:p3 dest=4 cfq=0
	//     0.007ms mark           swB:p1 dest=4 pkt=19
	//     0.009ms mark           swB:p1 dest=4 pkt=7
}

// TestHeadlineClaim is Example_hotspot's claim, the paper's in brief:
// CCFIT keeps the victim as well off as isolation (FBICM) and the
// per-destination reference (VOQnet) do, and shares the hot link as
// fairly as throttling (ITh) does; the schemes without throttling
// leave the parking lot in place.
func TestHeadlineClaim(t *testing.T) {
	runs := hotspotRuns()
	oneq, cc, voq := runs["1Q"], runs["CCFIT"], runs["VOQnet"]

	// Victim protection: isolation restores what HoL blocking under 1Q
	// takes, CCFIT within 10% of VOQnet's.
	for _, name := range []string{"FBICM", "CCFIT"} {
		if v := runs[name].victim; v < 2.0 {
			t.Errorf("%s victim %.2f GB/s < 2.0: not protected", name, v)
		}
	}
	if oneq.victim > cc.victim*0.5 {
		t.Errorf("1Q victim %.2f GB/s not visibly HoL-blocked beside CCFIT's %.2f", oneq.victim, cc.victim)
	}
	if cc.victim < 0.9*voq.victim {
		t.Errorf("CCFIT victim %.2f GB/s < 0.9 x VOQnet's %.2f", cc.victim, voq.victim)
	}
	if voq.victim <= 4*oneq.victim {
		t.Errorf("VOQnet victim %.2f GB/s not > 4 x 1Q's %.2f", voq.victim, oneq.victim)
	}

	// Fairness: per-flow throttling equalises the four shares; without
	// it F5 and F6 take about twice F1's and F2's (Jain 0.9).
	for _, name := range []string{"ITh", "CCFIT"} {
		if j := runs[name].jain; j < 0.99 {
			t.Errorf("%s Jain %.3f < 0.99: throttling did not equalise %.2f", name, j, runs[name].shares)
		}
	}
	for _, name := range []string{"1Q", "FBICM"} {
		if j := runs[name].jain; j > 0.91 {
			t.Errorf("%s Jain %.3f > 0.91: parking lot not reproduced", name, j)
		}
	}
}

// TestTracing reads the CCFIT hot-spot run's trace: the filter passed
// only the kinds it was given, every event formats, and the run both
// detected congestion and marked packets.
func TestTracing(t *testing.T) {
	events := hotspotRuns()["CCFIT"].events
	if n := len(events); n == 0 || n == 1<<16 {
		t.Fatalf("%d events: the ring is empty or wrapped", n)
	}
	counts := map[trace.EventKind]int{}
	for _, ev := range events {
		counts[ev.Kind]++
		if trace.Format(ev) == "" {
			t.Fatal("empty format")
		}
	}
	if counts[trace.EvDetect] == 0 || counts[trace.EvMark] == 0 {
		t.Fatalf("ring saw no detections or no marks: %v", counts)
	}
	for _, k := range hotspotTraced {
		delete(counts, k)
	}
	if len(counts) > 0 {
		t.Fatalf("filter leaked %v", counts)
	}
}

// fattreeSchemes are the schemes Example_fattree compares.
var fattreeSchemes = []string{"FBICM", "CCFIT"}

// fattreeRuns runs a network that is not one of the paper's: a 2-ary
// 4-tree (16 endpoints, 32 switches). Three of every four nodes send
// uniform traffic for 2 ms; during [0.5, 1.0] ms the rest blast three
// hot destinations, one congestion tree each.
var fattreeRuns = sync.OnceValue(func() map[string]*network.Network {
	runs := map[string]*network.Network{}
	for _, name := range fattreeSchemes {
		p, err := experiments.SchemeByName(name)
		must(err)
		tree, err := topo.KaryNTree(2, 4)
		must(err)
		net, err := network.Build(tree.Topology, p, network.Options{Seed: 5})
		must(err)
		end := sim.CyclesFromMS(2)
		hotDests := []int{1, 5, 9}
		var flows []traffic.Flow
		for s := 0; s < tree.NumEndpoints(); s++ {
			f := traffic.Flow{ID: s, Src: s, Dst: traffic.UniformDst, Start: 0, End: end, Rate: 1.0}
			if s%4 == 3 {
				f.Dst = hotDests[(s/4)%len(hotDests)]
				f.Start, f.End = sim.CyclesFromMS(0.5), sim.CyclesFromMS(1.0)
			}
			flows = append(flows, f)
		}
		must(net.AddFlows(flows))
		net.RunMS(2)
		runs[name] = net
	}
	return runs
})

// Example_fattree drives a user-built fat tree — the paper's
// scalability argument (Fig. 8) off its three configurations — and
// prints the normalised network throughput of FBICM and CCFIT per bin,
// then each scheme's CFQ bookkeeping. Neither scheme's throughput dips
// during this burst; the difference is in the CFQs: CCFIT's throttling
// drains the congestion trees, so a congested head finds every CFQ
// taken less often.
func Example_fattree() {
	runs := fattreeRuns()
	fmt.Println("2-ary 4-tree, 16 endpoints: uniform load + 3-tree burst in [0.5,1.0] ms (*)")
	fmt.Printf("%-11s %5s %5s\n", "", fattreeSchemes[0], fattreeSchemes[1])
	fb, cc := runs["FBICM"], runs["CCFIT"]
	bins := int(sim.CyclesFromMS(2) / fb.Collector.BinCycles())
	fbs, ccs := fb.Collector.NormalizedSeries(bins), cc.Collector.NormalizedSeries(bins)
	bin := fb.Collector.BinCycles()
	for i := range fbs {
		from := sim.Cycle(i) * bin
		marker := " "
		if from+bin > sim.CyclesFromMS(0.5) && from < sim.CyclesFromMS(1.0) {
			marker = "*"
		}
		fmt.Printf("t=%4.2f ms %s %5.3f %5.3f\n", sim.MSFromCycles(from), marker, fbs[i], ccs[i])
	}
	fmt.Printf("%-6s %10s %11s %11s %8s\n", "CFQs", "detections", "lazy allocs", "exhaustions", "deallocs")
	for _, name := range fattreeSchemes {
		ds := runs[name].DiscStatsSum()
		fmt.Printf("%-6s %10d %11d %11d %8d\n", name, ds.Detections, ds.LazyAllocs, ds.CAMExhausted, ds.Deallocs)
	}
	// Output:
	// 2-ary 4-tree, 16 endpoints: uniform load + 3-tree burst in [0.5,1.0] ms (*)
	//             FBICM CCFIT
	// t=0.00 ms   0.517 0.517
	// t=0.05 ms   0.706 0.700
	// t=0.10 ms   0.693 0.690
	// t=0.15 ms   0.680 0.683
	// t=0.20 ms   0.706 0.713
	// t=0.25 ms   0.686 0.691
	// t=0.30 ms   0.706 0.705
	// t=0.35 ms   0.718 0.715
	// t=0.40 ms   0.726 0.735
	// t=0.45 ms   0.740 0.732
	// t=0.50 ms * 0.748 0.748
	// t=0.55 ms * 0.762 0.760
	// t=0.60 ms * 0.768 0.742
	// t=0.65 ms * 0.773 0.752
	// t=0.70 ms * 0.795 0.731
	// t=0.75 ms * 0.774 0.717
	// t=0.80 ms * 0.731 0.766
	// t=0.85 ms * 0.770 0.750
	// t=0.90 ms * 0.759 0.741
	// t=0.95 ms * 0.714 0.757
	// t=1.00 ms * 0.770 0.694
	// t=1.05 ms   0.739 0.743
	// t=1.10 ms   0.739 0.699
	// t=1.15 ms   0.651 0.694
	// t=1.20 ms   0.706 0.722
	// t=1.25 ms   0.752 0.722
	// t=1.30 ms   0.749 0.743
	// t=1.35 ms   0.751 0.767
	// t=1.40 ms   0.754 0.747
	// t=1.45 ms   0.762 0.741
	// t=1.50 ms   0.755 0.747
	// t=1.55 ms   0.751 0.744
	// t=1.60 ms   0.742 0.748
	// t=1.65 ms   0.743 0.742
	// t=1.70 ms   0.739 0.752
	// t=1.75 ms   0.755 0.753
	// t=1.80 ms   0.747 0.748
	// t=1.85 ms   0.739 0.754
	// t=1.90 ms   0.746 0.742
	// t=1.95 ms   0.749 0.740
	// t=2.00 ms   0.003 0.002
	// CFQs   detections lazy allocs exhaustions deallocs
	// FBICM        7161         550       52079     7689
	// CCFIT        7363         504       47780     7845
}

// TestFattreeExhaustion is Example_fattree's claim: both schemes isolate
// the burst, and CCFIT runs out of CFQs less often than FBICM.
func TestFattreeExhaustion(t *testing.T) {
	runs := fattreeRuns()
	for _, name := range fattreeSchemes {
		if ds := runs[name].DiscStatsSum(); ds.Detections == 0 {
			t.Fatalf("%s detected no congestion: the comparison would be vacuous", name)
		}
	}
	fb, cc := runs["FBICM"].DiscStatsSum(), runs["CCFIT"].DiscStatsSum()
	if cc.CAMExhausted >= fb.CAMExhausted {
		t.Errorf("CCFIT exhausted CFQs %d times, FBICM %d: throttling freed none", cc.CAMExhausted, fb.CAMExhausted)
	}
}
