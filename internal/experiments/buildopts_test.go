package experiments

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/testutil"
)

// BuildOpts.SimWorkers survives only because bench/ still sets it, and it
// must stay inert: a build that asks for sim workers is the serial build —
// no partition, the same digest. One experiment per network configuration
// (Table I's three, the 512-node Config #4 and the leaf-spine fabric),
// every scheme each evaluates, durations scaled to keep the check cheap.
var inertCases = []struct {
	expID string
	scale float64
}{
	{"fig7a", 0.25},       // Config #1
	{"fig7b", 0.25},       // Config #2 (2-ary 3-tree)
	{"fig8a", 0.1},        // Config #3 (4-ary 3-tree, VOQnet included)
	{"x512hotspot", 0.05}, // Config #4 (8-ary 3-tree, 512 endpoints)
	{"xleafincast", 0.5},  // leaf-spine, open-loop CDF traffic + FCT stats
}

func digestWith(t *testing.T, expID, scheme string, scale float64, o BuildOpts) string {
	t.Helper()
	exp, err := ByID(expID)
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration = sim.Cycle(float64(exp.Duration) * scale)
	exp.Bin = min(exp.Bin, exp.Duration)
	p, err := SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	n, err := exp.Build(p, 1, exp.Bin, exp.Duration, o)
	if err != nil {
		t.Fatal(err)
	}
	if part := n.PartitionInfo(); part != nil {
		t.Fatalf("%+v: network has a partition %+v", o, part)
	}
	if err := n.RunAudited(exp.Duration); err != nil {
		t.Fatalf("%+v: %v", o, err)
	}
	return testutil.MustJSONDigest(t, Harvest(exp, scheme, 1, n))
}

// TestPartitionedDigestsMatchSerial: asking for four sim workers builds
// the one-engine network and reproduces the default build's digest.
func TestPartitionedDigestsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("the inert-option matrix takes a few seconds")
	}
	for _, c := range inertCases {
		exp, err := ByID(c.expID)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range exp.Schemes {
			c, scheme := c, scheme
			t.Run(fmt.Sprintf("%s/%s", c.expID, scheme), func(t *testing.T) {
				t.Parallel()
				want := digestWith(t, c.expID, scheme, c.scale, BuildOpts{})
				if got := digestWith(t, c.expID, scheme, c.scale, BuildOpts{SimWorkers: 4}); got != want {
					t.Fatalf("SimWorkers 4 digest %s differs from the default build's %s", got, want)
				}
			})
		}
	}
}

// TestPartitionedFaultDigestsMatchSerial is the same check on a faulted
// run: xfaultflap injects the root-link flap script inside its Build, at
// full duration so the 4 ms fault window fires.
func TestPartitionedFaultDigestsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted runs take a few seconds")
	}
	want := digestWith(t, "xfaultflap", "CCFIT", 1.0, BuildOpts{})
	if got := digestWith(t, "xfaultflap", "CCFIT", 1.0, BuildOpts{SimWorkers: 2}); got != want {
		t.Fatalf("SimWorkers 2 faulted digest %s differs from the default build's %s", got, want)
	}
}
