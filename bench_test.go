// Benchmarks of the build and of the runner: BenchmarkBuild512 counts
// what building the largest fabric allocates, and
// BenchmarkRunnerParallel times the figure campaign at 1 worker and at
// one per core. The paper's cells run end to end under bench/, and the
// parameter ablations under `ccfit-run sweep`.
package ccfit_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
)

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

// BenchmarkRunnerParallel measures the figure campaign (every paper
// experiment × scheme, each at a tenth of its length) executed
// through the runner at 1 worker versus one worker per core: the
// ratio of the two is the parallel-orchestration speedup.
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
