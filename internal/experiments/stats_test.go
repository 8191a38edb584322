package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestMeanStd(t *testing.T) {
	m, s := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(m-5) > 1e-12 {
		t.Fatalf("mean %v", m)
	}
	// Sample stddev of that classic set is ~2.138.
	if math.Abs(s-2.13809) > 1e-4 {
		t.Fatalf("std %v", s)
	}
	m, s = meanStd([]float64{3})
	if m != 3 || s != 0 {
		t.Fatalf("single-sample %v %v", m, s)
	}
	// An empty sample is zeros, not 0/0 = NaN.
	m, s = meanStd(nil)
	if m != 0 || s != 0 {
		t.Fatalf("empty sample %v %v, want 0 0", m, s)
	}
}

// runSeeds runs exp under scheme once per seed and aggregates the
// results, as the runner-based CLIs do.
func runSeeds(t *testing.T, exp Experiment, scheme string, seeds ...int64) *Replication {
	t.Helper()
	var results []*Result
	for _, seed := range seeds {
		r, err := Run(exp, scheme, seed)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, r)
	}
	rep, err := Aggregate(exp, scheme, results)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunSeedsDeterministicPerSeed(t *testing.T) {
	exp, err := ByID("fig7a")
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration = ms(0.4)
	// Same seed twice: zero variance (the simulator is deterministic).
	rep := runSeeds(t, exp, "CCFIT", 5, 5)
	if rep.StdNormalized != 0 || rep.StdDelivered != 0 {
		t.Fatalf("same-seed variance nonzero: %+v", rep)
	}
	if len(rep.Results) != 2 || len(rep.SeriesMean) == 0 {
		t.Fatal("results not collected")
	}
	if rep.MeanNormalized <= 0 {
		t.Fatal("mean normalized not positive")
	}
	// Series mean equals the single run's series for identical seeds.
	for i, v := range rep.SeriesMean {
		if math.Abs(v-rep.Results[0].Normalized[i]) > 1e-12 {
			t.Fatal("series mean broken")
		}
	}
}

func TestRunSeedsVariesAcrossSeeds(t *testing.T) {
	// Uniform traffic (case #3) makes different seeds differ.
	exp, err := ByID("fig7c")
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration = ms(0.5)
	rep := runSeeds(t, exp, "1Q", 1, 2, 3)
	if rep.StdDelivered == 0 {
		t.Fatal("uniform traffic identical across seeds — RNG streams broken")
	}
}

func TestAggregateValidation(t *testing.T) {
	exp, err := ByID("fig7a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Aggregate(exp, "CCFIT", nil); err == nil {
		t.Fatal("empty result list accepted")
	}
	if _, err := Aggregate(exp, "CCFIT", []*Result{nil}); err == nil {
		t.Fatal("nil result accepted")
	}
	// Results from another experiment or scheme must be rejected: the
	// runner aggregates from a flat job list and a grouping bug would
	// silently blend series otherwise.
	wrong := &Result{ExpID: "fig7b", Scheme: "CCFIT", Seed: 1}
	if _, err := Aggregate(exp, "CCFIT", []*Result{wrong}); err == nil {
		t.Fatal("mismatched experiment accepted")
	}
	wrong = &Result{ExpID: "fig7a", Scheme: "ITh", Seed: 1}
	if _, err := Aggregate(exp, "CCFIT", []*Result{wrong}); err == nil {
		t.Fatal("mismatched scheme accepted")
	}
}

func TestResolveIDs(t *testing.T) {
	exps, err := ResolveIDs([]string{"fig7a", "table1", "xfairness"})
	if err != nil || len(exps) != 3 {
		t.Fatalf("valid ids rejected: %v", err)
	}
	_, err = ResolveIDs([]string{"fig7a", "nope", "alsobad"})
	if err == nil {
		t.Fatal("unknown ids accepted")
	}
	for _, want := range []string{"nope", "alsobad", "fig8b"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q misses %q", err, want)
		}
	}
	if len(ValidIDs()) < 11 {
		t.Fatalf("ValidIDs too short: %v", ValidIDs())
	}
}

// TestRunSeedsValidation: no seeds aggregate to an error, and a bogus
// scheme fails its run before any aggregation.
func TestRunSeedsValidation(t *testing.T) {
	exp, _ := ByID("fig7a")
	var none []*Result
	if _, err := Aggregate(exp, "CCFIT", none); err == nil {
		t.Fatal("empty seed list accepted")
	}
	exp.Duration = ms(0.2)
	if _, err := Run(exp, "bogus", 1); err == nil {
		t.Fatal("bogus scheme accepted")
	}
}

func TestRenderReplications(t *testing.T) {
	exp, _ := ByID("fig7a")
	exp.Duration = ms(0.3)
	rep := runSeeds(t, exp, "1Q", 1, 2)
	var buf bytes.Buffer
	RenderReplications(&buf, exp, []*Replication{rep})
	out := buf.String()
	if !strings.Contains(out, "1Q") || !strings.Contains(out, "2 seeds") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestRecoveryTime(t *testing.T) {
	r := &Result{
		BinMS:  1,
		TimeMS: []float64{0, 1, 2, 3, 4, 5, 6, 7},
	}
	series := []float64{5, 1, 1, 2, 5, 5, 5, 5}
	// From t=1, level 4, hold 2: bins 4 and 5 are the first pair.
	if got := RecoveryTime(r, series, 1, 4, 2); got != 4 {
		t.Fatalf("recovery at %v, want 4", got)
	}
	// Level never held long enough.
	if got := RecoveryTime(r, []float64{1, 5, 1, 5, 1, 5, 1, 5}, 0, 4, 2); got != -1 {
		t.Fatalf("impossible recovery at %v", got)
	}
	// hold defaults to 1.
	if got := RecoveryTime(r, series, 0, 4, 0); got != 0 {
		t.Fatalf("hold-1 recovery at %v", got)
	}
}
