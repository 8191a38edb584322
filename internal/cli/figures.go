package cli

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// Figures is ccfit-run without a verb, and ccfit-figures (documented in
// cmd/ccfit-run; tool names the binary in messages and the manifest): the
// requested experiments run as one campaign and render in request order.
// It returns the process exit status.
func Figures(tool string, args []string, stdout, stderr io.Writer) int {
	a := newApp(tool, stdout, stderr)
	return a.exit(a.figures(args))
}

func (a *app) figures(args []string) error {
	a.Register(a.fs)
	a.fs.Usage = func() {
		fmt.Fprintf(a.stderr, "usage: %s [flags] [experiment ...]\n", a.tool)
		a.fs.PrintDefaults()
		fmt.Fprintf(a.stderr, "run '%s -list' for the valid experiment ids\n", a.tool)
		if a.tool == mainTool {
			fmt.Fprint(a.stderr, verbUsage)
		}
	}
	if err := a.parse(args); err != nil {
		return err
	}
	if a.List {
		fmt.Fprintln(a.stdout, "paper evaluation (run by default):")
		for _, e := range experiments.Registry() {
			fmt.Fprintf(a.stdout, "  %-10s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(a.stdout, "extras (run on request):")
		for _, e := range experiments.Extras() {
			fmt.Fprintf(a.stdout, "  %-10s %s\n", e.ID, e.Title)
		}
		return nil
	}

	ids := a.fs.Args()
	if len(ids) == 0 {
		for _, e := range experiments.Registry() {
			ids = append(ids, e.ID)
		}
	}
	// Fail fast: every id is resolved before any simulation starts.
	exps, err := experiments.ResolveIDs(ids)
	if err != nil {
		return err
	}
	if a.CSV != "" {
		if err := os.MkdirAll(a.CSV, 0o755); err != nil {
			return err
		}
		if a.Manifest == "" {
			a.Manifest = filepath.Join(a.CSV, "manifest.json")
		}
	}

	// A request of only static tables expands to zero cells but still
	// renders; anything else is one submission.
	schemes := a.schemeList()
	var subs []campaign.Submission
	for _, e := range exps {
		if e.Kind != experiments.ConfigTable {
			subs = append(subs, a.submission(experiments.Spec{Experiments: ids, Schemes: schemes, MS: a.MS}))
			break
		}
	}
	results, err := a.Run(subs...)
	if err != nil {
		return err
	}
	if err := a.render(exps, schemes, results); err != nil {
		return err
	}
	return a.report(results)
}

// render prints the experiments in request order. results is in
// job-grid order, so a cursor walks it experiment by experiment, scheme
// by scheme.
func (a *app) render(exps []experiments.Experiment, schemes []string, results []runner.JobResult) error {
	w := a.stdout
	for _, exp := range exps {
		if exp.Kind == experiments.ConfigTable {
			experiments.RenderTable1(w)
			fmt.Fprintln(w)
			continue
		}
		ss := schemes
		if ss == nil {
			ss = exp.Schemes
		}
		// rs is each scheme's first seed, reps its statistics over all.
		rs := make([]*experiments.Result, len(ss))
		reps := make([]*experiments.Replication, len(ss))
		ok := true
		for i, s := range ss {
			ran, seeds, done, err := next(&results, a.Seeds)
			if err != nil {
				return err
			}
			exp = ran // the experiment as it ran: -ms truncation applied
			if !done {
				ok = false
				continue
			}
			rs[i] = seeds[0]
			if a.Seeds > 1 {
				if reps[i], err = experiments.Aggregate(exp, s, seeds); err != nil {
					return err
				}
			}
		}
		if !ok {
			a.logf("skipping %s render: job failures (see below)", exp.ID)
			continue
		}
		if a.Seeds > 1 {
			experiments.RenderReplications(w, exp, reps)
			fmt.Fprintln(w)
			continue
		}
		if exp.FlowIDs == nil {
			experiments.RenderThroughput(w, exp, rs)
		} else {
			experiments.RenderFlows(w, exp, rs)
		}
		if a.Summary {
			experiments.RenderSummary(w, rs)
		}
		// FCT tables only exist for finite-flow (datacenter) workloads;
		// RenderFCT is silent for pure CBR results.
		experiments.RenderFCT(w, rs)
		if a.CSV != "" {
			var csv bytes.Buffer
			experiments.WriteCSV(&csv, exp, rs)
			if err := os.WriteFile(filepath.Join(a.CSV, exp.ID+".csv"), csv.Bytes(), 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintln(w)
	}
	return nil
}
