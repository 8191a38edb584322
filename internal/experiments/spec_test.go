package experiments

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
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
		{"loadcurve without schemes", Spec{Experiments: []string{"loadcurve-c2-load0.5"}}},
		{"loadcurve without schemes beside a figure", Spec{Experiments: []string{"fig7a", "loadcurve-c2-load0.5"}}},
		{"loadcurve bad config", Spec{Schemes: []string{"1Q"}, Experiments: []string{"loadcurve-c7-load0.5"}}},
		{"loadcurve bad load", Spec{Schemes: []string{"1Q"}, Experiments: []string{"loadcurve-c2-load1.5"}}},
		{"loadcurve NaN load", Spec{Schemes: []string{"1Q"}, Experiments: []string{"loadcurve-c2-loadNaN"}}},
		{"loadcurve non-canonical load", Spec{Schemes: []string{"1Q"}, Experiments: []string{"loadcurve-c2-load0.40"}}},
		{"loadcurve trailing text", Spec{Schemes: []string{"1Q"}, Experiments: []string{"loadcurve-c2-load0.4x"}}},
		{"ms past the clock", Spec{Experiments: []string{"fig7a"}, MS: 1e30}},
		{"ms below a cycle", Spec{Experiments: []string{"fig7a"}, MS: 1e-9}},
		{"loadcurve ms below a cycle", Spec{Schemes: []string{"1Q"}, MS: 1e-9, Experiments: []string{"loadcurve-c2-load0.5"}}},
		{"negative ms", Spec{Experiments: []string{"fig7a"}, MS: -1}},
		{"NaN ms", Spec{Experiments: []string{"fig7a"}, MS: math.NaN()}},
		{"loadcurve negative ms", Spec{Schemes: []string{"1Q"}, MS: -1, Experiments: []string{"loadcurve-c2-load0.5"}}},
		{"loadcurve NaN ms", Spec{Schemes: []string{"1Q"}, MS: math.NaN(), Experiments: []string{"loadcurve-c2-load0.5"}}},
		{"seeds past the bound", Spec{Experiments: []string{"fig7a"}, Seeds: 1 << 62}},
		{"cells past the bound", Spec{Experiments: []string{"fig7a"}, Seeds: MaxCells}},
		{"loadcurve cells past the bound", Spec{Schemes: []string{"1Q", "CCFIT"}, Seeds: MaxCells/2 + 1, Experiments: []string{"loadcurve-c2-load0.5"}}},
		{"bad fault script", Spec{Experiments: []string{"fig7a"}, Faults: &fault.Script{Events: []fault.Event{{Kind: "nope"}}}}},
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
		Experiments: []string{"loadcurve-c2-load0.3", "loadcurve-c2-load0.8"},
		Schemes:     []string{"1Q", "CCFIT"},
		MS:          0.5,
	}
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Load-major then scheme, like every other spec; the id names the
	// exact load, and the point is LoadPoint's.
	wantIDs := []string{
		"loadcurve-c2-load0.3", "loadcurve-c2-load0.3",
		"loadcurve-c2-load0.8", "loadcurve-c2-load0.8",
	}
	wantSchemes := []string{"1Q", "CCFIT", "1Q", "CCFIT"}
	if len(cells) != len(wantIDs) {
		t.Fatalf("expanded %d cells, want %d", len(cells), len(wantIDs))
	}
	for i, c := range cells {
		if c.Exp.ID != wantIDs[i] || c.Scheme != wantSchemes[i] {
			t.Errorf("cell %d = %s/%s, want %s/%s", i, c.Exp.ID, c.Scheme, wantIDs[i], wantSchemes[i])
		}
		// Spec.MS sets a load point's run length, as it does any experiment's.
		if c.Exp.Duration != sim.CyclesFromMS(0.5) {
			t.Errorf("cell %d duration = %d, want %d", i, c.Exp.Duration, sim.CyclesFromMS(0.5))
		}
		if c.Exp.Build == nil {
			t.Errorf("cell %d has no build closure", i)
		}
		if want := (Spec{Experiments: []string{c.Exp.ID}, Schemes: []string{c.Scheme}, Seed: 1, Seeds: 1, MS: 0.5}); !reflect.DeepEqual(*c.Source, want) {
			t.Errorf("cell %d source = %+v, want %+v", i, *c.Source, want)
		}
	}
	s.MS = 0
	full, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if d := full[0].Exp.Duration; d != sim.CyclesFromMS(1) {
		t.Errorf("a load point's full length is %d cycles, want 1 ms (%d)", d, sim.CyclesFromMS(1))
	}
}

// TestSpecRefusesIDsPastTheBound: a spec naming more ids than MaxCells
// is refused before any id is resolved — a 16 MiB body holds about 2 M
// ids, and resolving each one costs a registry.
func TestSpecRefusesIDsPastTheBound(t *testing.T) {
	ids := make([]string, MaxCells+1)
	for i := range ids {
		ids[i] = "fig7a"
	}
	s := Spec{Experiments: ids}
	var err error
	allocs := testing.AllocsPerRun(3, func() { _, err = s.Expand() })
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("more than %d cells", MaxCells)) {
		t.Fatalf("Expand of %d ids: %v, want the cell bound's error", len(ids), err)
	}
	if allocs > 8 {
		t.Fatalf("refusing %d ids allocated %.0f times; resolving before the bound?", len(ids), allocs)
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
// or crashed on, plus a plain, a load-point and a faulted one-cell
// spec): Expand never panics, and what it accepts is bounded, has a
// positive bin no longer than the run, and re-expands cell by cell from
// each Source after a trip through JSON, what a worker decodes from a
// claim and runs through OneCell.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{"experiments":["fig7a"],"schemes":["CCFIT"],"seeds":2,"ms":0.5}`))
	sw := 0
	for _, s := range []Spec{
		{Experiments: []string{"fig7a"}, Schemes: []string{"CCFIT"}, Seed: 2, MS: 0.1},
		{Experiments: []string{"loadcurve-c2-load0.4"}, Schemes: []string{"CCFIT"}, Seed: 1, MS: 0.1},
		{Experiments: []string{"fig7a"}, Schemes: []string{"1Q"}, MS: 0.1, Watchdog: -1,
			Faults: &fault.Script{Name: "stall-sw0", Events: []fault.Event{{Kind: fault.SwitchStall, At: 1_000, Duration: 100, Switch: &sw}}}},
	} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	fingerprint := func(s *fault.Script) string {
		if s == nil {
			return ""
		}
		return s.Fingerprint()
	}
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
			wire, err := json.Marshal(c.Source)
			if err != nil {
				t.Fatal(err)
			}
			var src Spec
			if err := json.Unmarshal(wire, &src); err != nil {
				t.Fatal(err)
			}
			a, err := src.OneCell()
			if err != nil {
				t.Fatalf("cell %d: Source %s is not one cell: %v", i, wire, err)
			}
			b := c
			if a.Exp.ID != b.Exp.ID || a.Exp.Duration != b.Exp.Duration || a.Exp.Bin != b.Exp.Bin ||
				a.Scheme != b.Scheme || a.Seed != b.Seed || !reflect.DeepEqual(a.Params, b.Params) ||
				fingerprint(a.Faults) != fingerprint(b.Faults) || a.Watchdog != b.Watchdog ||
				!reflect.DeepEqual(a.Source, b.Source) {
				t.Fatalf("cell %d: Source re-expands to %s, not %s", i, a, b)
			}
		}
	})
}
