package experiments

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/traffic"
)

// mustNarrowCDF returns a small two-point CDF for generator edge tests.
func mustNarrowCDF(t *testing.T) *traffic.CDF {
	t.Helper()
	cdf, err := traffic.NewCDF("narrow", []int64{1000, 2000}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return cdf
}

// runScaled executes an experiment at a fraction of its registered
// duration — the same budget trick the golden digests use.
func runScaled(t *testing.T, expID, scheme string, scale float64, seed int64) (*Result, Experiment) {
	t.Helper()
	exp, err := ByID(expID)
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration = sim.Cycle(float64(exp.Duration) * scale)
	if exp.Bin > exp.Duration {
		exp.Bin = exp.Duration
	}
	r, err := Run(exp, scheme, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r, exp
}

// TestLeafIncastProducesFCT pins the datacenter axis end to end: the
// xleafincast experiment must register finite flows, complete a
// non-trivial number of them, and surface their slowdown stats through
// Result, Summary, Aggregate and the replication table.
func TestLeafIncastProducesFCT(t *testing.T) {
	if testing.Short() {
		t.Skip("full incast run; skipped in -short")
	}
	t.Parallel()
	r, exp := runScaled(t, "xleafincast", "CCFIT", 0.5, 1)
	if r.FCT == nil {
		t.Fatal("xleafincast produced no FCT stats")
	}
	if r.FCT.Completed == 0 {
		t.Fatal("xleafincast completed zero flows")
	}
	if r.FCT.Registered < r.FCT.Completed {
		t.Fatalf("registered %d < completed %d", r.FCT.Registered, r.FCT.Completed)
	}
	if r.Summary.FCTCompleted != r.FCT.Completed {
		t.Fatalf("Summary.FCTCompleted %d != FCT.Completed %d", r.Summary.FCTCompleted, r.FCT.Completed)
	}
	// Slowdown is measured against an ideal lower bound, so every
	// completed flow's slowdown — and therefore the percentiles — must
	// be at least 1.
	if r.FCT.Overall.P50Slowdown < 1 || r.FCT.Overall.P99Slowdown < r.FCT.Overall.P50Slowdown {
		t.Fatalf("implausible slowdowns: p50=%g p99=%g",
			r.FCT.Overall.P50Slowdown, r.FCT.Overall.P99Slowdown)
	}

	rep, err := Aggregate(exp, "CCFIT", []*Result{r})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.HasFCT {
		t.Fatal("Aggregate did not set HasFCT for an FCT-bearing result")
	}
	if rep.MeanFCTP50 != r.Summary.FCTSlowdownP50 {
		t.Fatalf("single-seed MeanFCTP50 %g != result p50 %g", rep.MeanFCTP50, r.Summary.FCTSlowdownP50)
	}
	var tbl strings.Builder
	RenderReplications(&tbl, exp, []*Replication{rep})
	if !strings.Contains(tbl.String(), "fct p50") {
		t.Fatalf("replication table lacks FCT columns:\n%s", tbl.String())
	}

	var fctOut strings.Builder
	RenderFCT(&fctOut, []*Result{r})
	for _, want := range []string{"FCT slowdown", "all", "CCFIT"} {
		if !strings.Contains(fctOut.String(), want) {
			t.Fatalf("RenderFCT output lacks %q:\n%s", want, fctOut.String())
		}
	}
}

// TestLeafShuffleCompletesAllFlows pins the deterministic shuffle: a
// staggered permutation workload on the oversubscribed fabric must
// finish every one of its (numEndpoints-1)*numEndpoints flows within
// the experiment window under the strongest isolation scheme.
func TestLeafShuffleCompletesAllFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("full shuffle run; skipped in -short")
	}
	t.Parallel()
	r, _ := runScaled(t, "xleafshuffle", "CCFIT", 1.0, 1)
	if r.FCT == nil {
		t.Fatal("xleafshuffle produced no FCT stats")
	}
	const wantFlows = 15 * 16 // waves 1..15, 16 sources each
	if r.FCT.Registered != wantFlows {
		t.Fatalf("registered %d flows, want %d", r.FCT.Registered, wantFlows)
	}
	if r.FCT.Completed != wantFlows {
		t.Fatalf("completed %d of %d flows (incomplete: %d)",
			r.FCT.Completed, wantFlows, r.FCT.Incomplete)
	}
	// Every flow is exactly 64 KB, so all land in the ≤100KB bucket.
	for _, b := range r.FCT.Buckets {
		if b.Label == "<=100KB" {
			if b.Completed != wantFlows {
				t.Fatalf("bucket %s holds %d flows, want %d", b.Label, b.Completed, wantFlows)
			}
			return
		}
	}
	t.Fatalf("no <=100KB bucket in %+v", r.FCT.Buckets)
}

// TestIncastFlowsValidation covers the generator's edges.
func TestIncastFlowsValidation(t *testing.T) {
	t.Parallel()
	cdf := mustNarrowCDF(t)
	if _, err := IncastFlows(8, 8, 64, cdf, 0.1, 1000, 2000, 1); err == nil {
		t.Error("sink out of range accepted")
	}
	if _, err := IncastFlows(8, -1, 64, cdf, 0.1, 1000, 2000, 1); err == nil {
		t.Error("negative sink accepted")
	}
	flows, err := IncastFlows(8, 3, 64, cdf, 0.1, 50_000, 60_000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) == 0 {
		t.Fatal("no flows generated")
	}
	for _, f := range flows {
		if f.Dst != 3 {
			t.Fatalf("flow %d targets %d, want sink 3", f.ID, f.Dst)
		}
		if f.Src == 3 {
			t.Fatalf("flow %d sourced from the sink", f.ID)
		}
	}
}

// TestShuffleFlowsStructure pins the permutation property: over all
// waves every ordered endpoint pair exchanges exactly one flow.
func TestShuffleFlowsStructure(t *testing.T) {
	t.Parallel()
	const ne = 6
	flows := ShuffleFlows(ne, 4096, 100, 10_000)
	if len(flows) != (ne-1)*ne {
		t.Fatalf("got %d flows, want %d", len(flows), (ne-1)*ne)
	}
	seen := map[[2]int]int{}
	ids := map[int]bool{}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Fatalf("flow %d is a self-send", f.ID)
		}
		if f.Bytes != 4096 {
			t.Fatalf("flow %d has %d bytes, want 4096", f.ID, f.Bytes)
		}
		seen[[2]int{f.Src, f.Dst}]++
		if ids[f.ID] {
			t.Fatalf("duplicate flow id %d", f.ID)
		}
		ids[f.ID] = true
	}
	for s := 0; s < ne; s++ {
		for d := 0; d < ne; d++ {
			if s == d {
				continue
			}
			if seen[[2]int{s, d}] != 1 {
				t.Fatalf("pair (%d,%d) exchanged %d flows, want 1", s, d, seen[[2]int{s, d}])
			}
		}
	}
}
