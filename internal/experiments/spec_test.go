package experiments

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
)

func TestSpecExpandMatchesGridOrder(t *testing.T) {
	s := Spec{Experiments: []string{"fig7a", "fig8b"}, Seeds: 2, Seed: 5}
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Experiment-major, then scheme (each experiment's own set), then
	// seed — the contract remote renderers rely on.
	var got []string
	for _, c := range cells {
		got = append(got, c.Exp.ID+"/"+c.Scheme+"@"+string(rune('0'+c.Seed)))
	}
	exps, err := ResolveIDs([]string{"fig7a", "fig8b"})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range exps {
		for _, scheme := range e.Schemes {
			for _, seed := range []int64{5, 6} {
				want = append(want, e.ID+"/"+scheme+"@"+string(rune('0'+seed)))
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("expanded %d cells, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestSpecExpandDeterministic(t *testing.T) {
	s := Spec{Experiments: []string{"fig7a"}, Schemes: []string{"CCFIT", "1Q"}, Seeds: 3}
	a, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("expansions differ in size: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Exp.ID != b[i].Exp.ID || a[i].Scheme != b[i].Scheme || a[i].Seed != b[i].Seed {
			t.Fatalf("cell %d differs across expansions", i)
		}
	}
}

func TestSpecMSTruncation(t *testing.T) {
	full, err := Spec{Experiments: []string{"fig7a"}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	quick, err := Spec{Experiments: []string{"fig7a"}, MS: 0.1}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := sim.CyclesFromMS(0.1)
	for i, c := range quick {
		if c.Exp.Duration != want {
			t.Errorf("cell %d duration = %d, want %d", i, c.Exp.Duration, want)
		}
		if c.Exp.Bin > c.Exp.Duration {
			t.Errorf("cell %d bin %d exceeds truncated duration %d", i, c.Exp.Bin, c.Exp.Duration)
		}
		if c.Exp.Duration >= full[i].Exp.Duration {
			t.Errorf("cell %d not truncated: %d >= %d", i, c.Exp.Duration, full[i].Exp.Duration)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"empty", Spec{}},
		{"unknown experiment", Spec{Experiments: []string{"fig99"}}},
		{"unknown scheme", Spec{Experiments: []string{"fig7a"}, Schemes: []string{"nope"}}},
		{"tables only", Spec{Experiments: []string{"table1"}}},
		{"mixed modes", Spec{Experiments: []string{"fig7a"}, LoadCurve: &LoadCurveSpec{Config: 2, Loads: []float64{0.5}}}},
		{"loadcurve without schemes", Spec{LoadCurve: &LoadCurveSpec{Config: 2, Loads: []float64{0.5}}}},
		{"loadcurve without loads", Spec{Schemes: []string{"1Q"}, LoadCurve: &LoadCurveSpec{Config: 2}}},
		{"loadcurve bad config", Spec{Schemes: []string{"1Q"}, LoadCurve: &LoadCurveSpec{Config: 7, Loads: []float64{0.5}}}},
		{"loadcurve bad load", Spec{Schemes: []string{"1Q"}, LoadCurve: &LoadCurveSpec{Config: 2, Loads: []float64{1.5}}}},
		{"ms past the clock", Spec{Experiments: []string{"fig7a"}, MS: 1e30}},
		{"ms below a cycle", Spec{Experiments: []string{"fig7a"}, MS: 1e-9}},
		{"loadcurve ms below a cycle", Spec{Schemes: []string{"1Q"}, LoadCurve: &LoadCurveSpec{Config: 2, Loads: []float64{0.5}, MS: 1e-9}}},
		{"negative ms", Spec{Experiments: []string{"fig7a"}, MS: -1}},
		{"NaN ms", Spec{Experiments: []string{"fig7a"}, MS: math.NaN()}},
		{"loadcurve negative ms", Spec{Schemes: []string{"1Q"}, LoadCurve: &LoadCurveSpec{Config: 2, Loads: []float64{0.5}, MS: -1}}},
		{"loadcurve NaN ms", Spec{Schemes: []string{"1Q"}, LoadCurve: &LoadCurveSpec{Config: 2, Loads: []float64{0.5}, MS: math.NaN()}}},
		{"seeds past the bound", Spec{Experiments: []string{"fig7a"}, Seeds: 1 << 62}},
		{"cells past the bound", Spec{Experiments: []string{"fig7a"}, Seeds: MaxCells}},
		{"loadcurve cells past the bound", Spec{Schemes: []string{"1Q", "CCFIT"}, Seeds: MaxCells/2 + 1, LoadCurve: &LoadCurveSpec{Config: 2, Loads: []float64{0.5}}}},
		{"seeds across seed 0", Spec{Experiments: []string{"fig7a"}, Seed: -1, Seeds: 2}},
		{"seeds past the last seed", Spec{Experiments: []string{"fig7a"}, Seed: math.MaxInt64, Seeds: 2}},
	}
	for _, tc := range cases {
		if err := tc.spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
	}
}

func TestSpecLoadCurveExpansion(t *testing.T) {
	s := Spec{
		Schemes:   []string{"1Q", "CCFIT"},
		LoadCurve: &LoadCurveSpec{Config: 2, Loads: []float64{0.3, 0.8}, MS: 0.5},
	}
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Scheme-major then load, matching the loadcurve CLI's cursor.
	wantIDs := []string{
		"loadcurve-c2-load0.300", "loadcurve-c2-load0.800",
		"loadcurve-c2-load0.300", "loadcurve-c2-load0.800",
	}
	wantSchemes := []string{"1Q", "1Q", "CCFIT", "CCFIT"}
	if len(cells) != len(wantIDs) {
		t.Fatalf("expanded %d cells, want %d", len(cells), len(wantIDs))
	}
	for i, c := range cells {
		if c.Exp.ID != wantIDs[i] || c.Scheme != wantSchemes[i] {
			t.Errorf("cell %d = %s/%s, want %s/%s", i, c.Exp.ID, c.Scheme, wantIDs[i], wantSchemes[i])
		}
		if c.Exp.Duration != sim.CyclesFromMS(0.5) {
			t.Errorf("cell %d duration = %d, want %d", i, c.Exp.Duration, sim.CyclesFromMS(0.5))
		}
		if c.Exp.Build == nil {
			t.Errorf("cell %d has no build closure", i)
		}
	}
}

func TestSpecSeedList(t *testing.T) {
	if got := (Spec{}).SeedList(); len(got) != 1 || got[0] != 1 {
		t.Errorf("default SeedList = %v, want [1]", got)
	}
	if got := (Spec{Seed: 7, Seeds: 3}).SeedList(); len(got) != 3 || got[0] != 7 || got[2] != 9 {
		t.Errorf("SeedList = %v, want [7 8 9]", got)
	}
}

// FuzzSpec decodes arbitrary JSON into a Spec (seed corpus:
// testdata/fuzz/FuzzSpec, the bodies POST /campaigns once answered 201
// or crashed on): Expand never panics, and what it accepts is bounded,
// has a positive bin no longer than the run, and re-expands cell by cell
// from each Source — the contract WireJob.Job relies on.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{"experiments":["fig7a"],"schemes":["CCFIT"],"seeds":2,"ms":0.5}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		cells, err := s.Expand()
		if err != nil {
			return
		}
		if len(cells) > MaxCells {
			t.Fatalf("%d cells, bound %d", len(cells), MaxCells)
		}
		for i, c := range cells {
			if c.Exp.Bin < 1 || c.Exp.Bin > c.Exp.Duration {
				t.Fatalf("cell %d: bin %d, duration %d", i, c.Exp.Bin, c.Exp.Duration)
			}
			again, err := c.Source.Expand()
			if err != nil || len(again) != 1 {
				t.Fatalf("cell %d: Source %+v re-expands to %d cells (%v)", i, c.Source, len(again), err)
			}
			a, b := again[0], c
			if a.Exp.ID != b.Exp.ID || a.Exp.Duration != b.Exp.Duration || a.Exp.Bin != b.Exp.Bin ||
				a.Scheme != b.Scheme || a.Seed != b.Seed || a.Params != b.Params ||
				!reflect.DeepEqual(a.Source, b.Source) {
				t.Fatalf("cell %d: Source re-expands to %s/%s@%d, not %s/%s@%d", i, a.Exp.ID, a.Scheme, a.Seed, b.Exp.ID, b.Scheme, b.Seed)
			}
		}
	})
}
