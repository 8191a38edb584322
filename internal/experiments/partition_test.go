package experiments

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/testutil"
)

// The partitioned engine's contract is byte-identity: the same
// experiment, scheme and seed must produce the same digest at any
// worker count. One experiment per network configuration (Table I's
// three plus the 512-node Config #4, and the leaf-spine fabric whose
// long idle stretches exercise the quiescent skip), every scheme each
// evaluates, SimWorkers ∈ {1, 2, 3, 4} — which, at several shards per
// worker, is 2 to 16 shards depending on the fabric. Durations are
// scaled to keep the matrix
// tractable; identity must hold at any duration, so the scale is not
// part of the contract, just the budget.
var partitionCases = []struct {
	expID string
	scale float64
}{
	{"fig7a", 0.25},       // Config #1 (2 switches; 4 workers exercises the cap)
	{"fig7b", 0.25},       // Config #2 (2-ary 3-tree)
	{"fig8a", 0.1},        // Config #3 (4-ary 3-tree, VOQnet included)
	{"x512hotspot", 0.05}, // Config #4 (8-ary 3-tree, 512 endpoints)
	{"xleafincast", 0.5},  // leaf-spine, open-loop CDF traffic + FCT stats
}

func digestAtWorkers(t *testing.T, expID, scheme string, scale float64, workers int) string {
	t.Helper()
	exp, err := ByID(expID)
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration = sim.Cycle(float64(exp.Duration) * scale)
	if exp.Bin > exp.Duration {
		exp.Bin = exp.Duration
	}
	p, err := SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	n, err := exp.Build(p, 1, exp.Bin, exp.Duration, BuildOpts{SimWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(exp.Duration)
	if n.Checker != nil {
		if err := n.Checker.Final(); err != nil {
			t.Fatalf("workers=%d post-run audit: %v", workers, err)
		}
	}
	return testutil.MustJSONDigest(t, Harvest(exp, scheme, 1, n))
}

func TestPartitionedDigestsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("partition matrix takes a few seconds")
	}
	for _, c := range partitionCases {
		exp, err := ByID(c.expID)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range exp.Schemes {
			c, scheme := c, scheme
			t.Run(fmt.Sprintf("%s/%s", c.expID, scheme), func(t *testing.T) {
				t.Parallel()
				want := digestAtWorkers(t, c.expID, scheme, c.scale, 1)
				for _, w := range []int{2, 3, 4} {
					if got := digestAtWorkers(t, c.expID, scheme, c.scale, w); got != want {
						t.Fatalf("workers=%d digest %s differs from serial %s", w, got, want)
					}
				}
			})
		}
	}
}

// TestPartitionedFaultDigestsMatchSerial extends byte-identity to a
// faulted run: the xfaultflap experiment injects the root-link flap
// script inside its Build, and the flapped link (switch B -> endpoint
// 4) is an endpoint access link, which no partition ever cuts.
func TestPartitionedFaultDigestsMatchSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("faulted partition runs take a few seconds")
	}
	// Full duration so the 4 ms fault window actually fires; one scheme
	// keeps the budget sane.
	want := digestAtWorkers(t, "xfaultflap", "CCFIT", 1.0, 1)
	for _, w := range []int{2, 3, 4} {
		if got := digestAtWorkers(t, "xfaultflap", "CCFIT", 1.0, w); got != want {
			t.Fatalf("workers=%d faulted digest %s differs from serial %s", w, got, want)
		}
	}
}
