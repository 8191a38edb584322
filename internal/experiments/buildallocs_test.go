package experiments

import "testing"

// A network's per-destination state (AdVOQs, throttle rows) is created on
// first use and a port's queues are one allocation, so what a build
// allocates grows with the ports and links it wires, not with endpoints
// squared. The ceilings sit a few per cent above the counts measured when
// they were set (in parentheses), far below what one allocation per
// (node, destination) pair adds back (512² = 262 144 on Config #4, 64² =
// 4 096 on Config #3, 256 on the leaf-spine fabric), so a change that
// brings one back fails here by name. Lower a ceiling when a change lowers
// its count; raise one only with the reason in CHANGES.md.
func TestBuildAllocsPinned(t *testing.T) {
	for _, c := range []struct {
		exp, scheme string
		ceiling     float64
	}{
		{"x512hotspot", "1Q", 110_000},    // (102 039)
		{"x512hotspot", "ITh", 120_000},   // (110 747)
		{"x512hotspot", "FBICM", 115_000}, // (105 623)
		{"x512hotspot", "CCFIT", 115_000}, // (108 185)
		{"fig8b", "1Q", 13_000},           // (12 300)
		{"xleafincast", "CCFIT", 2_950},   // (2 799)
	} {
		exp, err := ByID(c.exp)
		if err != nil {
			t.Fatal(err)
		}
		p, err := SchemeByName(c.scheme)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(1, func() {
			if _, err := exp.Build(p, 1, exp.Bin, exp.Duration, BuildOpts{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.ceiling {
			t.Errorf("%s/%s: Build makes %.0f allocations, ceiling %.0f", c.exp, c.scheme, allocs, c.ceiling)
		}
	}
}
