package experiments

import (
	"flag"
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/testutil"
)

// The golden digests pin the simulator's observable behaviour: a
// fixed-seed run of one experiment per network config, under every
// scheme, must produce byte-identical metrics across refactors of the
// engine hot path. The digest covers the full Result — every time bin
// of the normalized and per-flow series, all latency statistics, and
// all congestion-management counters — so any change to event ordering,
// RNG stream assignment, or component tick order shows up immediately.
//
// Regenerate (only when an intentional behaviour change is made) with:
//
//	go test ./internal/experiments -run TestGoldenDigests -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json")

const goldenPath = "testdata/golden_digests.json"

// goldenCases picks one experiment per Table I config, plus the two
// extras whose scheme lists reach the presets no paper figure runs
// (DBBM, VOQsw-only, OBQA). Durations are scaled to keep the test fast;
// the scale is part of the pinned input.
var goldenCases = []struct {
	expID string
	scale float64
}{
	{"fig7a", 0.5},      // Config #1, throughput
	{"fig8a", 0.25},     // Config #3, throughput, VOQnet included
	{"fig9", 0.5},       // Config #1, per-flow bandwidth
	{"xqueueing", 0.25}, // Config #3, every static discipline + FBICM
	{"xfairness", 0.25}, // Config #1, all eight schemes
}

func goldenDigest(t *testing.T, expID, scheme string, scale float64) string {
	t.Helper()
	exp, err := ByID(expID)
	if err != nil {
		t.Fatal(err)
	}
	exp.Duration = sim.Cycle(float64(exp.Duration) * scale)
	p, err := SchemeByName(scheme)
	if err != nil {
		t.Fatal(err)
	}
	n, err := exp.Build(p, 1, exp.Bin, exp.Duration, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(exp.Duration)
	return testutil.MustJSONDigest(t, Harvest(exp, scheme, 1, n))
}

func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	got := make(map[string]string)
	type job struct{ key, expID, scheme string }
	var jobs []job
	for _, c := range goldenCases {
		exp, err := ByID(c.expID)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range exp.Schemes {
			jobs = append(jobs, job{fmt.Sprintf("%s/%s", c.expID, s), c.expID, s})
		}
	}
	// Every run is an independent single-goroutine simulation, so they
	// can execute concurrently without perturbing each other's digests.
	results := make([]string, len(jobs))
	t.Run("runs", func(t *testing.T) {
		for i, j := range jobs {
			i, j := i, j
			scale := 0.0
			for _, c := range goldenCases {
				if c.expID == j.expID {
					scale = c.scale
				}
			}
			t.Run(j.key, func(t *testing.T) {
				t.Parallel()
				results[i] = goldenDigest(t, j.expID, j.scheme, scale)
			})
		}
	})
	for i, j := range jobs {
		got[j.key] = results[i]
	}

	testutil.CompareGoldenMap(t, goldenPath, got, *updateGolden)
}
