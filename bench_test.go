// Benchmarks regenerating the paper's evaluation: one benchmark per
// table/figure (the printable series come from cmd/ccfit-figures; the
// benches here run the same experiments end to end and report the
// headline number of each figure as a custom metric), plus ablation
// benches for the design parameters DESIGN.md calls out.
//
// Figure-8 benches run a time-scaled variant (same code path, same
// burst structure, 2 ms instead of 4 ms) so `go test -bench=.` stays
// tractable; cmd/ccfit-figures runs the full-length version.
package ccfit_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/pkt"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/topo"
)

// runExp executes one (experiment, scheme) pair and reports the mean
// normalized throughput as the benchmark's figure-of-merit.
func runExp(b *testing.B, expID, scheme string) {
	b.Helper()
	exp, err := experiments.ByID(expID)
	if err != nil {
		b.Fatal(err)
	}
	var mean float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Run(exp, scheme, 1)
		if err != nil {
			b.Fatal(err)
		}
		mean = r.Summary.MeanNormalized
	}
	b.ReportMetric(mean, "norm-throughput")
}

// runScaled executes a time-scaled copy of an experiment.
func runScaled(b *testing.B, expID, scheme string, scale float64) {
	b.Helper()
	exp, err := experiments.ByID(expID)
	if err != nil {
		b.Fatal(err)
	}
	exp.Duration = sim.Cycle(float64(exp.Duration) * scale)
	var mean float64
	for i := 0; i < b.N; i++ {
		p, err := experiments.SchemeByName(scheme)
		if err != nil {
			b.Fatal(err)
		}
		n, err := exp.Build(p, 1, exp.Bin, exp.Duration, experiments.BuildOpts{})
		if err != nil {
			b.Fatal(err)
		}
		n.Run(exp.Duration)
		r := experiments.Harvest(exp, scheme, 1, n)
		mean = r.Summary.MeanNormalized
	}
	b.ReportMetric(mean, "norm-throughput")
}

// BenchmarkTable1Configs measures building (and validating) all three
// Table I networks with routing tables under the CCFIT preset.
func BenchmarkTable1Configs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := network.Build(topo.Config1(), core.PresetCCFIT(), network.Options{}); err != nil {
			b.Fatal(err)
		}
		for _, tree := range []*topo.FatTree{topo.Config2(), topo.Config3()} {
			if _, err := network.Build(tree.Topology, core.PresetCCFIT(), network.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuild512 measures building the largest fabric with its
// traffic installed: x512hotspot (Config #4, 512 endpoints) under CCFIT.
// Per-destination state is created on first use, so allocs/op counts
// what a build wires, not the 512 × 512 AdVOQ and throttle matrix.
func BenchmarkBuild512(b *testing.B) {
	exp, err := experiments.ByID("x512hotspot")
	if err != nil {
		b.Fatal(err)
	}
	p, err := experiments.SchemeByName("CCFIT")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.Build(p, 1, exp.Bin, exp.Duration, experiments.BuildOpts{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Fig. 7: throughput versus time on Configs #1 and #2.
func BenchmarkFig7a(b *testing.B) {
	for _, s := range []string{"1Q", "ITh", "FBICM", "CCFIT"} {
		b.Run(s, func(b *testing.B) { runExp(b, "fig7a", s) })
	}
}

func BenchmarkFig7b(b *testing.B) {
	for _, s := range []string{"1Q", "ITh", "FBICM", "CCFIT"} {
		b.Run(s, func(b *testing.B) { runExp(b, "fig7b", s) })
	}
}

func BenchmarkFig7c(b *testing.B) {
	for _, s := range []string{"1Q", "ITh", "FBICM", "CCFIT"} {
		b.Run(s, func(b *testing.B) { runExp(b, "fig7c", s) })
	}
}

// Fig. 8: Config #3 under 1/4/6 congestion trees (time-scaled; see
// the package comment).
func BenchmarkFig8a(b *testing.B) {
	for _, s := range []string{"1Q", "ITh", "FBICM", "CCFIT", "VOQnet"} {
		b.Run(s, func(b *testing.B) { runScaled(b, "fig8a", s, 0.5) })
	}
}

func BenchmarkFig8b(b *testing.B) {
	for _, s := range []string{"1Q", "ITh", "FBICM", "CCFIT", "VOQnet"} {
		b.Run(s, func(b *testing.B) { runScaled(b, "fig8b", s, 0.5) })
	}
}

func BenchmarkFig8c(b *testing.B) {
	for _, s := range []string{"1Q", "ITh", "FBICM", "CCFIT", "VOQnet"} {
		b.Run(s, func(b *testing.B) { runScaled(b, "fig8c", s, 0.5) })
	}
}

// Fig. 9 / Fig. 10: per-flow fairness runs. The figure-of-merit is the
// Jain index over the contributing flows' steady-state bandwidth.
func benchFairness(b *testing.B, expID string, flows []int) {
	exp, err := experiments.ByID(expID)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range exp.Schemes {
		b.Run(s, func(b *testing.B) {
			var jain float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.Run(exp, s, 1)
				if err != nil {
					b.Fatal(err)
				}
				var shares []float64
				for _, f := range r.Flows {
					for _, want := range flows {
						if f.ID == want {
							shares = append(shares, experiments.WindowMean(r, f.GBs, 8, 10))
						}
					}
				}
				jain = metrics.JainIndex(shares)
			}
			b.ReportMetric(jain, "jain")
		})
	}
}

func BenchmarkFig9(b *testing.B) {
	// Fairness among the four contributors to the hot spot.
	benchFairness(b, "fig9", []int{1, 2, 5, 6})
}

func BenchmarkFig10(b *testing.B) {
	benchFairness(b, "fig10", []int{0, 1, 2, 3, 4})
}

// Ablations: design-choice sensitivity on the Config #1 hot spot
// (fast) — CFQ count, iSLIP iterations, BECN pacing, detection
// threshold.
func ablate(b *testing.B, mutate func(*core.Params)) {
	exp, err := experiments.ByID("fig7a")
	if err != nil {
		b.Fatal(err)
	}
	var mean float64
	for i := 0; i < b.N; i++ {
		p := core.PresetCCFIT()
		mutate(&p)
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
		n, err := exp.Build(p, 1, exp.Bin, exp.Duration, experiments.BuildOpts{})
		if err != nil {
			b.Fatal(err)
		}
		n.Run(exp.Duration)
		mean = experiments.Harvest(exp, p.Name, 1, n).Summary.MeanNormalized
	}
	b.ReportMetric(mean, "norm-throughput")
}

func BenchmarkAblationNumCFQs(b *testing.B) {
	for _, v := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("cfqs=%d", v), func(b *testing.B) {
			ablate(b, func(p *core.Params) { p.NumCFQs = v })
		})
	}
}

func BenchmarkAblationISlip(b *testing.B) {
	for _, v := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("iters=%d", v), func(b *testing.B) {
			ablate(b, func(p *core.Params) { p.ISlipIters = v })
		})
	}
}

func BenchmarkAblationBECNPacing(b *testing.B) {
	for _, ns := range []float64{0, 2000, 4000, 8000} {
		b.Run(fmt.Sprintf("pace=%.0fns", ns), func(b *testing.B) {
			ablate(b, func(p *core.Params) { p.BECNPacing = sim.CyclesFromNS(ns) })
		})
	}
}

func BenchmarkAblationDetection(b *testing.B) {
	for _, mtus := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("detect=%dMTU", mtus), func(b *testing.B) {
			ablate(b, func(p *core.Params) { p.DetectionThreshold = mtus * pkt.MTU })
		})
	}
}

func BenchmarkAblationStopThreshold(b *testing.B) {
	for _, mtus := range []int{6, 10, 16, 24} {
		b.Run(fmt.Sprintf("stop=%dMTU", mtus), func(b *testing.B) {
			ablate(b, func(p *core.Params) { p.StopThreshold = mtus * pkt.MTU })
		})
	}
}

// BenchmarkExtraQueueing runs the related-work queue-scheme comparison
// (xqueueing extra) at half duration for the static disciplines.
func BenchmarkExtraQueueing(b *testing.B) {
	for _, s := range []string{"DBBM", "VOQsw", "OBQA"} {
		b.Run(s, func(b *testing.B) { runScaled(b, "xqueueing", s, 0.5) })
	}
}

// BenchmarkBlockedTree times the state the paper's evaluation is about
// and the engine spends its cycles in: Config #3 under Case #4 with four
// congestion trees standing (fig8b; the 20 000 measured cycles start at
// 1.25 ms, inside the hot burst), most input ports blocked behind a hot
// spot — what the port-granular elision (cool and parked ports, skipping
// nodes) is for. Build and warm-up are untimed. Under -benchmem allocs/op
// is the packet population still growing inside the burst (the sources
// offer more than a blocked fabric delivers, and the free-list only
// holds what was delivered): the windows that allocate nothing are
// TestSteadyStateZeroAlloc's.
func BenchmarkBlockedTree(b *testing.B) {
	exp, err := experiments.ByID("fig8b")
	if err != nil {
		b.Fatal(err)
	}
	for _, scheme := range []string{"1Q", "CCFIT"} {
		b.Run(scheme, func(b *testing.B) {
			p, err := experiments.SchemeByName(scheme)
			if err != nil {
				b.Fatal(err)
			}
			delivered := 0
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n, err := exp.Build(p, 1, exp.Bin, exp.Duration, experiments.BuildOpts{})
				if err != nil {
					b.Fatal(err)
				}
				n.Run(sim.CyclesFromMS(1.25))
				before, _ := n.TotalDelivered()
				b.StartTimer()
				n.Run(20_000)
				b.StopTimer()
				after, _ := n.TotalDelivered()
				delivered = after - before
			}
			b.ReportMetric(float64(delivered), "pkts")
		})
	}
}

// BenchmarkRunnerParallel measures the figure campaign (every paper
// experiment × scheme, time-scaled like the Fig. 8 benches) executed
// through the runner at 1 worker versus one worker per core, so
// BENCH_*.json captures the parallel-orchestration speedup trajectory
// alongside the per-figure numbers.
func BenchmarkRunnerParallel(b *testing.B) {
	var exps []experiments.Experiment
	jobCount := 0
	for _, e := range experiments.Registry() {
		if e.ID == "table1" {
			continue
		}
		e.Duration = sim.Cycle(float64(e.Duration) * 0.1)
		exps = append(exps, e)
		jobCount += len(e.Schemes)
	}
	for _, workers := range []int{1, runtime.NumCPU()} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var jobs []runner.Job
			for i := range exps {
				for _, s := range exps[i].Schemes {
					jobs = append(jobs, runner.Job{Scheme: s, Seed: 1, Exp: exps[i]})
				}
			}
			for i := 0; i < b.N; i++ {
				results, err := runner.Run(context.Background(), jobs, runner.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range results {
					if r.Err != nil {
						b.Fatalf("%s: %v", r.Job, r.Err)
					}
				}
			}
			b.ReportMetric(float64(jobCount), "jobs")
		})
	}
}
