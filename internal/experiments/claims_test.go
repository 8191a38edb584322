package experiments_test

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/oracle"
	"repro/internal/runner"
)

// TestReactionTimeOrdering quantifies the paper's central timing claim
// on Case #1: after the last contributors join at 6 ms, the victim
// flow recovers to >2.3 GB/s essentially immediately under the
// isolation schemes (FBICM, CCFIT), while pure throttling (ITh) takes
// longer and 1Q never recovers. The thresholds are the rows of
// internal/oracle's claims table that say so, on the fig9 cells.
func TestReactionTimeOrdering(t *testing.T) {
	holdClaims(t, "fig9/isolation-immediate", "fig9/throttling-slower", "fig9/1q-never-recovers")
}

// holdClaims runs, each once and in one campaign, the cells of the
// claims whose ids start with one of prefixes, and fails each such
// claim whose margin is not positive.
func holdClaims(t *testing.T, prefixes ...string) {
	var rows []oracle.Claim
	var jobs []runner.Job
	for _, c := range oracle.Claims() {
		if slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(c.ID, p) }) {
			rows = append(rows, c)
			for _, cell := range c.Cells {
				if !slices.ContainsFunc(jobs, func(j runner.Job) bool { return j.String() == cell.String() }) {
					jobs = append(jobs, cell)
				}
			}
		}
	}
	if len(rows) == 0 {
		t.Fatalf("no claim id starts with one of %q", prefixes)
	}
	results, err := runner.Run(context.Background(), jobs, runner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	byCell := map[string]*experiments.Result{}
	for i, jr := range results {
		if jr.Err != nil {
			t.Fatalf("%s: %v", jr.Job, jr.Err)
		}
		byCell[jobs[i].String()] = jr.Result
	}
	for _, c := range rows {
		runs := oracle.Runs{}
		for _, cell := range c.Cells {
			runs[cell.Scheme] = byCell[cell.String()]
		}
		if v := c.Score(runs); !(v.Margin > 0) {
			t.Errorf("%s %+.3f  %s", c.ID, v.Margin, v.Detail)
		}
	}
}
