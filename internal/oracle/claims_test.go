package oracle

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/testutil"
)

var updateCurves = flag.Bool("update", false, "rewrite testdata/curve_digests.json from the current engine")

// tableRun is runClaims(Claims()), once per test process.
var tableRun = sync.OnceValues(func() (map[string]*experiments.Result, error) { return runClaims(Claims()) })

// runClaims runs the claims' cells in row order, each runner key once,
// in one campaign, and returns the results by key. A table whose cells
// are rewritten (other Params, seeds) runs and scores the same way.
func runClaims(claims []Claim) (map[string]*experiments.Result, error) {
	var jobs []runner.Job
	var keys []string
	for _, c := range claims {
		for _, cell := range c.Cells {
			key, err := runner.JobKey(cell)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", c.ID, err)
			}
			if !slices.Contains(keys, key) {
				jobs, keys = append(jobs, cell), append(keys, key)
			}
		}
	}
	results, err := runner.Run(context.Background(), jobs, runner.Options{})
	byKey := map[string]*experiments.Result{}
	for i, jr := range results {
		if jr.Err != nil && err == nil {
			err = fmt.Errorf("%s: %w", jr.Job, jr.Err)
		}
		byKey[keys[i]] = jr.Result
	}
	return byKey, err
}

// scoreClaims scores each claim on its cells' results, in row order:
// one line per row, and whether every row holds.
func scoreClaims(claims []Claim, byKey map[string]*experiments.Result) (lines []string, ok bool) {
	ok = true
	for _, c := range claims {
		runs := Runs{}
		for _, cell := range c.Cells {
			key, _ := runner.JobKey(cell) // runClaims resolved every cell
			runs[cell.Scheme] = byKey[key]
		}
		v, verdict := c.Score(runs), "holds"
		if !(v.Margin > 0) {
			verdict, ok = "FAILS", false
		}
		lines = append(lines, fmt.Sprintf("%s %-36s %+7.3f  %s", verdict, c.ID, v.Margin, v.Detail))
	}
	return lines, ok
}

// TestClaims fails on every claim whose margin is not positive; -v logs
// every row with its margin.
func TestClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("the claims' 27 cells (~4 s); skipped in -short")
	}
	checkClaims(t, "")
}

// TestSchemeDominance is the dominance/ rows: on the staggered hot spot
// VOQnet bounds every scheme's delivery, every CC scheme delivers at
// least 1Q's, and the victim gets at least 1.5x (ITh: 1.2x) its 1Q bytes.
func TestSchemeDominance(t *testing.T) {
	if testing.Short() {
		t.Skip("the claims' 27 cells (~4 s); skipped in -short")
	}
	checkClaims(t, "dominance/")
}

// checkClaims scores the rows whose ids start with prefix on the table's
// one run, failing each row whose margin is not positive.
func checkClaims(t *testing.T, prefix string) {
	byKey, err := tableRun()
	if err != nil {
		t.Fatal(err)
	}
	var rows []Claim
	for _, c := range Claims() {
		if strings.HasPrefix(c.ID, prefix) {
			rows = append(rows, c)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no claim id starts with %q", prefix)
	}
	lines, _ := scoreClaims(rows, byKey)
	for _, l := range lines {
		if strings.HasPrefix(l, "FAILS") {
			t.Error(l)
		} else {
			t.Log(l)
		}
	}
}

// TestClaimsCiteExperimentsDoc holds the table's shape: unique ids,
// each row's cells one experiment under distinct schemes, and each
// row's words verbatim in EXPERIMENTS.md.
func TestClaimsCiteExperimentsDoc(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.Join(strings.Fields(string(doc)), " ")
	ids := map[string]bool{}
	for _, c := range Claims() {
		seen := map[string]bool{c.Cells[0].Exp.ID: true}
		for _, cell := range c.Cells {
			if seen[cell.Scheme] || !seen[cell.Exp.ID] {
				t.Errorf("%s: cell %s repeats a scheme or reads another experiment", c.ID, cell)
			}
			seen[cell.Scheme] = true
		}
		if ids[c.ID] || !strings.Contains(text, c.Says) {
			t.Errorf("%s: id used twice, or EXPERIMENTS.md does not say %q", c.ID, c.Says)
		}
		ids[c.ID] = true
	}
}

// TestGoldenCurves pins the Results of Figs. 7a and 9 and of Fig. 8a
// over 3 ms (13 cells, each figure under its own schemes) exactly by
// their JSON digests, read from the claims' run. With -update it
// rewrites testdata/curve_digests.json instead, and only while every
// claim holds, so a broken engine cannot silently mint new digests.
func TestGoldenCurves(t *testing.T) {
	if testing.Short() {
		t.Skip("the claims' 27 cells (~4 s); skipped in -short")
	}
	byKey, err := tableRun()
	if err != nil {
		t.Fatal(err)
	}
	if lines, ok := scoreClaims(Claims(), byKey); *updateCurves && !ok {
		t.Fatalf("refusing to rewrite the curve digests while a claim fails:\n%s", strings.Join(lines, "\n"))
	}
	got := map[string]string{}
	for _, cell := range slices.Concat(figure("fig7a", 0), figure("fig9", 0), figure("fig8a", 3)) {
		key, _ := runner.JobKey(cell)
		if byKey[key] == nil {
			t.Fatalf("%s: no claim reads it", cell)
		}
		got[cell.Exp.ID+"/"+cell.Scheme] = testutil.MustJSONDigest(t, byKey[key])
	}
	testutil.CompareGoldenMap(t, "testdata/curve_digests.json", got, *updateCurves)
}
