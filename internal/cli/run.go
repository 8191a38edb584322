package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/prof"
	"repro/internal/runner"
	"repro/internal/sim"
)

// app is one invocation of a ccfit-run tool: figures or a verb.
type app struct {
	tool           string
	stdout, stderr io.Writer
	fs             *flag.FlagSet
	Flags
	faults *fault.Script
	// interrupted is the context's error when a local run was cancelled
	// with some results finished: they still render, then report returns it.
	interrupted error
}

func newApp(tool string, stdout, stderr io.Writer) *app {
	a := &app{tool: tool, stdout: stdout, stderr: stderr, Flags: Defaults(),
		fs: flag.NewFlagSet(tool, flag.ContinueOnError)}
	a.fs.SetOutput(stderr)
	return a
}

// errUsage is a rejected command line; the flag package has already
// printed the reason and the usage text.
var errUsage = errors.New("bad command line")

// logf prints one diagnostic line to stderr under the tool's name.
func (a *app) logf(format string, args ...any) {
	fmt.Fprintf(a.stderr, a.tool+": "+format+"\n", args...)
}

// exit maps a tool's error to its exit status, printing it first.
func (a *app) exit(err error) int {
	switch {
	case err == nil, errors.Is(err, flag.ErrHelp):
		return 0
	case errors.Is(err, errUsage):
		return 2
	}
	a.logf("%v", err)
	return 1
}

// usage sets a verb's -h text: the synopsis, what it does, its flags.
func (a *app) usage(doc string) {
	a.fs.Usage = func() {
		fmt.Fprintf(a.stderr, "usage: %s [flags]\n\n%s\nflags:\n", a.tool, doc)
		a.fs.PrintDefaults()
	}
}

// parse parses the command line, rejects shared-flag values no tool can
// run with and loads the fault script — once, for every tool.
func (a *app) parse(args []string) (err error) {
	if err := a.fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return err
	} else if err != nil {
		return errUsage
	}
	if a.Seeds < 1 {
		return fmt.Errorf("-seeds must be at least 1, got %d", a.Seeds)
	}
	if a.Faults != "" {
		if a.faults, err = fault.Load(a.Faults); err != nil {
			return err
		}
		a.logf("fault script %q: %d event(s)", a.faults.Name, len(a.faults.Events))
	}
	return nil
}

// submission completes a tool's spec with the shared grid flags.
func (a *app) submission(spec experiments.Spec) campaign.Submission {
	spec.Seed, spec.Seeds = a.Seed, a.Seeds
	spec.Faults, spec.Watchdog = a.faults, sim.Cycle(a.Watchdog)
	return campaign.Submission{Spec: spec}
}

// Run executes the submissions as one campaign and returns their job
// results concatenated in submission order, cell order within each —
// the order every renderer's cursor walks. It holds the repo's only
// local-vs-remote switch: without -server the submissions' jobs run as
// one in-process runner.Run; with it they go to a ccfit-serve instance,
// which expands the same specs with the same deterministic function, so
// index i is the same cell either way. SIGINT/SIGTERM cancel the
// campaign: a local run still returns its results (unstarted jobs carry
// the context's error), a remote one is cancelled on the server and is
// an error. Cache GC (under -cache-max-bytes), the profiles and the run
// manifest are handled here for every tool.
func (a *app) Run(subs ...campaign.Submission) ([]runner.JobResult, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	opt := runner.Options{Workers: a.Workers, Timeout: a.Timeout}
	if a.Verbose {
		opt.Progress = runner.NewProgress(a.stderr)
	}
	var jobs []runner.Job
	if a.Server == "" {
		for _, sub := range subs {
			js, err := sub.Jobs()
			if err != nil {
				return nil, err
			}
			jobs = append(jobs, js...)
		}
		var err error
		if opt.Cache, err = a.OpenCache(); err != nil {
			return nil, err
		}
	}

	stopProf, err := prof.Start(a.CPUProfile, a.MemProfile)
	if err != nil {
		return nil, err
	}
	startedAt := time.Now()
	var results []runner.JobResult
	var runErr error
	switch {
	case len(subs) == 0:
		// Nothing to simulate (static tables only).
	case a.Server != "":
		results, runErr = (&campaign.Client{Base: a.Server}).Run(ctx, a.remoteProgress(), subs...)
	default:
		results, runErr = runner.Run(ctx, jobs, opt)
	}
	if err := stopProf(); err != nil {
		return nil, err
	}
	if opt.Cache != nil {
		a.SettleCache(opt.Cache, a.logf)
	}
	if results == nil && runErr != nil {
		return nil, runErr
	}
	a.interrupted = runErr
	if a.Manifest != "" {
		if err := runner.NewManifest(a.tool, opt, startedAt, results).Write(a.Manifest); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// remoteProgress prints a remote campaign's events: its id once (the
// handle for inspecting it on the server), every event under -v.
func (a *app) remoteProgress() func(campaign.Event) error {
	announced := map[string]bool{}
	return func(ev campaign.Event) error {
		if !announced[ev.Campaign] {
			announced[ev.Campaign] = true
			a.logf("campaign %s submitted to %s (%d jobs)", ev.Campaign, a.Server, ev.Total)
		}
		switch {
		case !a.Verbose:
		case ev.Type == "snapshot" || ev.Type == "complete":
			a.logf("campaign %s: %s %d/%d (%s)", ev.Campaign, ev.Type, ev.Done, ev.Total, ev.Status)
		default:
			a.logf("[%d/%d] %-7s %s", ev.Done, ev.Total, ev.Type, ev.Job)
		}
		return nil
	}
}

// report is a tool's final error: the failed jobs, one per line, else
// the interruption of a run that still rendered.
func (a *app) report(results []runner.JobResult) error {
	failed := runner.Failed(results)
	if len(failed) == 0 {
		return a.interrupted
	}
	msg := fmt.Sprintf("%d job(s) failed:", len(failed))
	for _, f := range failed {
		if f.Outcome() == runner.OutcomeQuarantined {
			msg += fmt.Sprintf("\n  %s: QUARANTINED (deterministic): %v", f.Job, f.Err)
			continue
		}
		msg += fmt.Sprintf("\n  %s: %v", f.Job, f.Err)
	}
	return errors.New(msg)
}

// next pops the next n job results off the cursor — one scheme's or one
// sweep point's seeds — and returns the experiment they ran (with any
// -ms truncation applied) and their Results; ok is false if any failed.
// Results that do not line up with the cells the renderer expanded are
// an error, not a panic.
func next(cursor *[]runner.JobResult, n int) (exp experiments.Experiment, rs []*experiments.Result, ok bool, err error) {
	if len(*cursor) < n || (*cursor)[0].Job.Source == nil {
		return exp, nil, false, fmt.Errorf("render needs %d more spec-expanded cell(s), results hold %d", n, len(*cursor))
	}
	cells := (*cursor)[:n]
	*cursor = (*cursor)[n:]
	ok = true
	for _, jr := range cells {
		if jr.Err != nil {
			ok = false
			continue
		}
		rs = append(rs, jr.Result)
	}
	return cells[0].Job.Exp, rs, ok, nil
}
