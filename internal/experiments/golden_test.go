package experiments

import (
	"flag"
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
// The same runs feed the work ledger's golden rows (ledger_test.go).
//
// Regenerate (only when an intentional behaviour change is made) with:
//
//	go test ./internal/experiments -run TestGoldenDigests -update-golden
//
// which also rewrites the ledger's golden rows, never its ceilings.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json and the golden rows of testdata/work_ledger.json")

const goldenPath = "testdata/golden_digests.json"

type goldenCase struct {
	expID string
	scale float64
}

// goldenCases picks one experiment per Table I config, plus the two
// extras whose scheme lists reach the presets no paper figure runs
// (DBBM, VOQsw-only, OBQA). Durations are scaled to keep the test fast;
// the scale is part of the pinned input.
var goldenCases = []goldenCase{
	{"fig7a", 0.5},      // Config #1, throughput
	{"fig8a", 0.25},     // Config #3, throughput, VOQnet included
	{"fig9", 0.5},       // Config #1, per-flow bandwidth
	{"xqueueing", 0.25}, // Config #3, every static discipline + FBICM
	{"xfairness", 0.25}, // Config #1, all eight schemes
}

// runGolden runs every scheme of each case as a parallel subtest of
// t/runs and returns each cell's digest and work-ledger row by
// "exp/scheme". Every run is an independent single-goroutine simulation,
// so they can execute concurrently without perturbing each other's
// digests or counts.
func runGolden(t *testing.T, cases []goldenCase) (digests map[string]string, rows map[string]ledgerRow) {
	type cell struct {
		key, digest string
		row         ledgerRow
	}
	var cells []*cell
	if !t.Run("runs", func(t *testing.T) {
		for _, c := range cases {
			exp, err := ByID(c.expID)
			if err != nil {
				t.Fatal(err)
			}
			exp.Duration = sim.Cycle(float64(exp.Duration) * c.scale)
			for _, s := range exp.Schemes {
				out := &cell{key: c.expID + "/" + s}
				cells = append(cells, out)
				t.Run(out.key, func(t *testing.T) {
					t.Parallel()
					p, err := SchemeByName(s)
					if err != nil {
						t.Fatal(err)
					}
					n, err := exp.Build(p, 1, exp.Bin, exp.Duration, BuildOpts{})
					if err != nil {
						t.Fatal(err)
					}
					n.Run(exp.Duration)
					out.digest = testutil.MustJSONDigest(t, Harvest(exp, s, 1, n))
					out.row = workRow(n)
				})
			}
		}
	}) {
		t.FailNow()
	}
	digests, rows = make(map[string]string), make(map[string]ledgerRow)
	for _, c := range cells {
		digests[c.key], rows[c.key] = c.digest, c.row
	}
	return digests, rows
}

func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("golden runs take a few seconds")
	}
	digests, rows := runGolden(t, goldenCases)
	t.Run("digests", func(t *testing.T) {
		testutil.CompareGoldenMap(t, goldenPath, digests, *updateGolden)
	})
	t.Run("ledger", func(t *testing.T) {
		assertWorkRows(t, rows)
		if !*updateGolden {
			for _, d := range diffLedger(readLedger(t, ledgerPath).Golden, rows) {
				t.Error(d)
			}
			return
		}
		for _, d := range updateLedger(t, ledgerPath, rows) {
			t.Log(d)
		}
	})
}
