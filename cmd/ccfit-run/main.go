// Command ccfit-run executes arbitrary experiment job grids through
// the parallel runner: every requested (experiment, scheme, seed)
// combination is validated up front, fanned across a worker pool,
// served from the on-disk result cache when warm, and rendered in
// deterministic order (parallel campaigns print byte-identical
// results to serial ones).
//
// Usage:
//
//	ccfit-run                                  # the full paper evaluation, all cores
//	ccfit-run -workers 4 -seeds 5 fig8b        # one figure, 5 replications
//	ccfit-run -schemes CCFIT,ITh -cache .ccfit-cache fig7a fig7b
//	ccfit-run -server http://127.0.0.1:8080 fig7a   # run on a ccfit-serve instance
//	ccfit-run -list                            # valid experiment ids
//
// With -csv DIR each experiment also writes a CSV, and a JSON run
// manifest (runs, outcomes, timings, cache keys) lands in
// DIR/manifest.json (or wherever -manifest points).
//
// With -server URL the same campaign is submitted to a ccfit-serve
// instance instead of running in-process: the spec is expanded by both
// sides with the same deterministic function, results stream back in
// the same cell order, and the rendered output is byte-identical to a
// local run of the same spec.
//
// SIGINT/SIGTERM cancel the campaign gracefully: in-flight jobs stop,
// completed results still render, and the manifest (with cancelled
// entries) is still written.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	ccfit "repro"
	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/prof"
	"repro/internal/runner"
)

func main() {
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel simulation workers")
	simWorkers := flag.Int("sim-workers", 1, "worker goroutines per simulation: >1 runs it on the partitioned engine, the fabric cut into several shards per worker (1 = serial; results are byte-identical at any value)")
	seed := flag.Int64("seed", 1, "base simulation seed")
	seeds := flag.Int("seeds", 1, "replications per scheme (seeds seed..seed+N-1); >1 prints mean±sd tables")
	schemesFlag := flag.String("schemes", "", "comma-separated scheme override (default: each experiment's own set)")
	timeout := flag.Duration("timeout", 0, "per-job wall-clock timeout (0 = none)")
	faultsPath := flag.String("faults", "", "inject a deterministic fault script into every job (JSON; see scripts/faults/)")
	watchdog := flag.Int64("watchdog", 0, "forward-progress watchdog window in cycles (0 = default 262144, -1 = disable)")
	retries := flag.Int("retries", 0, "retry transient job failures up to N times (invariant violations are never retried)")
	retryBackoff := flag.Duration("retry-backoff", 100*time.Millisecond, "base delay before the first retry (doubles per attempt)")
	cacheDir := flag.String("cache", "", "content-addressed result cache directory (empty = caching off)")
	cacheMaxBytes := flag.Int64("cache-max-bytes", 0, "after the run, evict least-recently-used cache entries beyond this size (0 = unbounded)")
	serverURL := flag.String("server", "", "submit the campaign to a ccfit-serve instance at this URL instead of running in-process")
	ms := flag.Float64("ms", 0, "truncate every experiment to this many simulated milliseconds (quick previews; distinct cache keys)")
	csvDir := flag.String("csv", "", "also write one CSV per experiment into this directory")
	manifestPath := flag.String("manifest", "", "write the JSON run manifest here (default: <csv>/manifest.json when -csv is set)")
	summary := flag.Bool("summary", true, "print per-scheme congestion-management counters")
	list := flag.Bool("list", false, "list valid experiment ids and exit")
	verbose := flag.Bool("v", false, "stream per-job progress lines to stderr")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := flag.String("memprofile", "", "write a post-campaign heap profile to this file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ccfit-run [flags] [experiment ...]\n")
		flag.PrintDefaults()
		fmt.Fprintf(os.Stderr, "run 'ccfit-run -list' for the valid experiment ids\n")
	}
	flag.Parse()

	if *list {
		printList(os.Stdout)
		return
	}

	ids := flag.Args()
	if len(ids) == 0 {
		for _, e := range ccfit.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	// Fail fast: every id is resolved before any simulation starts.
	exps, err := ccfit.ResolveExperimentIDs(ids)
	if err != nil {
		fatal(err)
	}

	var schemes []string
	if *schemesFlag != "" {
		for _, s := range strings.Split(*schemesFlag, ",") {
			schemes = append(schemes, strings.TrimSpace(s))
		}
	}
	var seedList []int64
	for i := 0; i < *seeds; i++ {
		seedList = append(seedList, *seed+int64(i))
	}

	opt := ccfit.RunOptions{
		Workers:      *workers,
		Timeout:      *timeout,
		Retries:      *retries,
		RetryBackoff: *retryBackoff,
	}
	if *cacheDir != "" {
		cache, err := ccfit.OpenResultCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		opt.Cache = cache
	}
	if *verbose {
		opt.Progress = ccfit.NewRunProgress(os.Stderr)
	}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		if *manifestPath == "" {
			*manifestPath = filepath.Join(*csvDir, "manifest.json")
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Both execution paths expand the same declarative spec with the
	// same deterministic function, so result index i is the same
	// (experiment, scheme, seed) cell locally and on a server.
	sub := campaign.Submission{Spec: experiments.Spec{
		Experiments: ids, Schemes: schemes, Seed: *seed, Seeds: *seeds, MS: *ms,
		SimWorkers: *simWorkers,
	}}
	// The runner applies the same cap itself; computing it here too makes
	// the adjustment visible instead of silent.
	if eff, capped := ccfit.EffectiveSimWorkers(*workers, *simWorkers, runtime.GOMAXPROCS(0)); capped && *serverURL == "" {
		fmt.Fprintf(os.Stderr, "ccfit-run: capping -sim-workers %d -> %d per job: %d campaign workers x %d sim workers would oversubscribe GOMAXPROCS=%d\n",
			*simWorkers, eff, *workers, *simWorkers, runtime.GOMAXPROCS(0))
	}
	if *faultsPath != "" {
		script, err := ccfit.LoadFaultScript(*faultsPath)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ccfit-run: fault script %q: %d event(s)\n", script.Name, len(script.Events))
		sub.Faults = script
	}
	sub.Watchdog = *watchdog

	// A request of only static tables expands to zero cells but still
	// renders; anything else expands (and validates) up front.
	runnable := false
	for _, e := range exps {
		if e.Kind != experiments.ConfigTable {
			runnable = true
			break
		}
	}
	var jobs []ccfit.Job
	if runnable {
		jobs, err = sub.Jobs()
		if err != nil {
			fatal(err)
		}
	}
	if *ms > 0 {
		// Rendering reads bins off the experiment; mirror the spec's
		// truncation so headers match the truncated runs.
		for i := range exps {
			if exps[i].Kind == experiments.ConfigTable {
				continue
			}
			exps[i].Duration = ccfit.MS(*ms)
			if exps[i].Bin > exps[i].Duration {
				exps[i].Bin = exps[i].Duration
			}
		}
	}

	stopProf, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	startedAt := time.Now()
	var results []ccfit.JobResult
	var runErr error
	switch {
	case len(jobs) == 0:
		// Nothing to simulate (static tables only).
	case *serverURL != "":
		results, runErr = runRemote(ctx, *serverURL, sub, jobs, *verbose)
	default:
		results, runErr = ccfit.RunJobs(ctx, jobs, opt)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
	if opt.Cache != nil {
		if *cacheMaxBytes > 0 {
			stats, gcErr := opt.Cache.GC(*cacheMaxBytes)
			switch {
			case gcErr != nil:
				fmt.Fprintf(os.Stderr, "ccfit-run: cache GC: %v\n", gcErr)
			case stats.Evicted > 0:
				fmt.Fprintf(os.Stderr, "ccfit-run: cache GC: evicted %d entries, freed %d bytes\n", stats.Evicted, stats.Freed)
			}
		} else if err := opt.Cache.FlushIndex(); err != nil {
			fmt.Fprintf(os.Stderr, "ccfit-run: cache index: %v\n", err)
		}
	}
	if runErr != nil && results == nil {
		fatal(runErr)
	}

	if *manifestPath != "" {
		m := runner.NewManifest("ccfit-run", opt, startedAt, results)
		if err := m.Write(*manifestPath); err != nil {
			fatal(err)
		}
	}

	// Render in request order; the result slice is in job-grid order,
	// so a cursor walks it experiment by experiment, scheme by scheme.
	cursor := 0
	for _, exp := range exps {
		if exp.ID == "table1" {
			ccfit.RenderTable1(os.Stdout)
			fmt.Println()
			continue
		}
		ss := schemes
		if ss == nil {
			ss = exp.Schemes
		}
		perScheme := make([][]*ccfit.Result, 0, len(ss))
		ok := true
		for range ss {
			var rs []*ccfit.Result
			for range seedList {
				jr := results[cursor]
				cursor++
				if jr.Err != nil {
					ok = false
					continue
				}
				rs = append(rs, jr.Result)
			}
			perScheme = append(perScheme, rs)
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "ccfit-run: skipping %s render: job failures (see below)\n", exp.ID)
			continue
		}
		if len(seedList) > 1 {
			var reps []*ccfit.Replication
			for i, s := range ss {
				rep, err := ccfit.AggregateSeeds(exp, s, perScheme[i])
				if err != nil {
					fatal(err)
				}
				reps = append(reps, rep)
			}
			ccfit.RenderReplications(os.Stdout, exp, reps)
			fmt.Println()
			continue
		}
		firstSeed := make([]*ccfit.Result, len(ss))
		for i := range ss {
			firstSeed[i] = perScheme[i][0]
		}
		switch exp.FlowIDs {
		case nil:
			ccfit.RenderThroughput(os.Stdout, exp, firstSeed)
		default:
			ccfit.RenderFlows(os.Stdout, exp, firstSeed)
		}
		if *summary {
			ccfit.RenderSummary(os.Stdout, firstSeed)
		}
		// FCT tables only exist for finite-flow (datacenter) workloads;
		// RenderFCT is silent for pure CBR results.
		ccfit.RenderFCT(os.Stdout, firstSeed)
		if *csvDir != "" {
			if err := writeCSV(filepath.Join(*csvDir, exp.ID+".csv"), exp, firstSeed); err != nil {
				fatal(err)
			}
		}
		fmt.Println()
	}

	if failed := ccfit.FailedJobs(results); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "ccfit-run: %d job(s) failed:\n", len(failed))
		for _, f := range failed {
			if f.Quarantined {
				fmt.Fprintf(os.Stderr, "  %s: QUARANTINED (deterministic, not retried): %v\n", f.Job, f.Err)
				continue
			}
			fmt.Fprintf(os.Stderr, "  %s: %v\n", f.Job, f.Err)
		}
		os.Exit(1)
	}
	if runErr != nil {
		fatal(runErr)
	}
}

// runRemote submits the campaign to a ccfit-serve instance, waits for
// it (streaming progress when verbose), and reassembles the results in
// cell order against the locally expanded job list. On SIGINT/SIGTERM
// the remote campaign is cancelled so its queued jobs are dropped.
func runRemote(ctx context.Context, base string, sub campaign.Submission, jobs []ccfit.Job, verbose bool) ([]ccfit.JobResult, error) {
	client := &campaign.Client{Base: base}
	if err := client.Healthz(ctx); err != nil {
		return nil, fmt.Errorf("server %s unreachable: %w", base, err)
	}
	var fn func(campaign.Event) error
	if verbose {
		fn = func(ev campaign.Event) error {
			switch ev.Type {
			case "snapshot", "complete":
				fmt.Fprintf(os.Stderr, "ccfit-run: campaign %s: %s %d/%d (%s)\n", ev.Campaign, ev.Type, ev.Done, ev.Total, ev.Status)
			default:
				fmt.Fprintf(os.Stderr, "ccfit-run: [%d/%d] %-7s %s\n", ev.Done, ev.Total, ev.Type, ev.Job)
			}
			return nil
		}
	}
	v, err := client.Submit(ctx, sub)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "ccfit-run: campaign %s submitted to %s (%d jobs)\n", v.ID, base, v.Total)
	if _, err := client.Wait(ctx, v.ID, fn); err != nil {
		if ctx.Err() != nil {
			// Drop the campaign's queued jobs; in-flight ones drain on
			// the server. Best-effort: the signal may race shutdown.
			cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, _ = client.Cancel(cctx, v.ID)
		}
		return nil, err
	}
	return client.Results(ctx, v.ID, jobs)
}

func printList(w *os.File) {
	fmt.Fprintln(w, "paper evaluation (run by default):")
	for _, e := range ccfit.Experiments() {
		fmt.Fprintf(w, "  %-10s %s\n", e.ID, e.Title)
	}
	fmt.Fprintln(w, "extras (run on request):")
	for _, e := range ccfit.ExtraExperiments() {
		fmt.Fprintf(w, "  %-10s %s\n", e.ID, e.Title)
	}
}

func writeCSV(path string, exp ccfit.Experiment, results []*ccfit.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	ccfit.WriteCSV(f, exp, results)
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccfit-run:", err)
	os.Exit(1)
}
