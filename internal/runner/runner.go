// Package runner runs campaigns of independent simulation jobs. Every
// run the repo cares about — the paper's figures × schemes × seeds, the
// ablation sweeps, the load curves — is an independent single-goroutine
// simulation, so the runner fans the grid out while each simulation
// stays single-goroutine and bit-deterministic.
//
// Jobs wait in one FIFO, Queue, which in-process slots and (in the
// campaign service) remote workers claim from alike; Run is an
// ephemeral queue with Options.Workers slots. Whoever claims a job runs
// it through an Executor: fail-fast validation, a content-addressed
// result cache (Cache), per-job timeouts, panic recovery and the
// quarantine of invariant violations. Progress reaches a callback and
// a JSON run manifest (Manifest). Results come back in job order, so a
// parallel campaign renders identically to a serial one.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Job is one unit of work: an experiment run under one scheme and one
// seed, optionally with overridden parameters (ablation sweeps).
type Job struct {
	ExpID string // a registered experiment (experiments.ByID), unless Exp is set
	// Scheme is the preset name ("CCFIT", "ITh", ...). With Params set
	// it only labels the result (defaulting to Params.Name).
	Scheme string
	Seed   int64        // drives every random stream of the simulation
	Params *core.Params // overrides the preset (ablations); in the cache key
	// Exp, when non-nil, supplies the experiment directly (load curves,
	// time-scaled copies). Distinct traffic needs distinct IDs or
	// durations: those, not the Build closure, enter the cache key.
	Exp *experiments.Experiment
	// Faults, when non-nil, is a deterministic fault script injected
	// after Build and before Run; its fingerprint is in the cache key.
	Faults *fault.Script
	// Watchdog is the invariant checker's forward-progress window in
	// cycles: 0 default, <0 disabled.
	Watchdog sim.Cycle
	// Source, when non-nil, is a one-cell spec that re-expands to
	// exactly this job (set by FromSpec): what lets a job cross a
	// process boundary, which the Exp closure cannot. Hand-built jobs
	// leave it nil and run only locally.
	Source *experiments.Spec
}

// ExperimentID names the job's experiment: ExpID, else Exp's id.
func (j Job) ExperimentID() string {
	if j.ExpID == "" && j.Exp != nil {
		return j.Exp.ID
	}
	return j.ExpID
}

// String labels a job for telemetry and error messages.
func (j Job) String() string {
	id := j.ExperimentID()
	scheme := j.Scheme
	if scheme == "" && j.Params != nil {
		scheme = j.Params.Name
	}
	return fmt.Sprintf("%s/%s seed=%d", id, scheme, j.Seed)
}

// JobResult is the outcome of one job: Result, or Err (build failure,
// panic, timeout, cancellation).
type JobResult struct {
	Job     Job
	Result  *experiments.Result
	Err     error
	Cached  bool
	Elapsed time.Duration
	// CacheErr reports that the job ran but storing its result failed:
	// Result is valid and Err nil, so a full disk does not count as a
	// failed simulation; the next identical run recomputes.
	CacheErr error
	Key      string // the cache key ("" with caching off)
	Attempts int    // simulations run: 1, or 0 for a hit or an unstarted job
	// Quarantined marks a deterministic invariant violation, cached
	// like a result: the same seed and script fail the same way.
	Quarantined bool
	Diagnostics string // the checker's snapshot of a quarantined job
}

// Outcome is a finished job's classification; the values are the
// manifest's runs[].status strings.
type Outcome string

const (
	OutcomeOK          Outcome = "ok"
	OutcomeCached      Outcome = "cached"
	OutcomeFailed      Outcome = "failed"
	OutcomeCancelled   Outcome = "cancelled"
	OutcomeQuarantined Outcome = "quarantined"
)

// Outcome classifies the result; a cancelled job is not a failure.
func (r JobResult) Outcome() Outcome {
	switch {
	case r.Quarantined:
		return OutcomeQuarantined
	case errors.Is(r.Err, context.Canceled) || errors.Is(r.Err, context.DeadlineExceeded):
		return OutcomeCancelled
	case r.Err != nil:
		return OutcomeFailed
	case r.Cached:
		return OutcomeCached
	}
	return OutcomeOK
}

// ElapsedMS is Elapsed in fractional milliseconds, the unit of every
// manifest and wire record.
func (r JobResult) ElapsedMS() float64 {
	return float64(r.Elapsed) / float64(time.Millisecond)
}

// Options configure a campaign.
type Options struct {
	Workers int // in-process slots; <=0 means runtime.GOMAXPROCS(0)
	// Timeout bounds each job's wall-clock time (0: none); a timed out
	// simulation is abandoned and reported as a job failure.
	Timeout  time.Duration
	Cache    *Cache      // probed before a job runs, stored after, when non-nil
	Progress func(Event) // telemetry, one call at a time, when non-nil
	// Executor, when non-nil, overrides how jobs run (Timeout and Cache
	// are then its business); nil is a LocalExecutor from the above.
	Executor Executor
}

// EventType classifies a telemetry event.
type EventType uint8

const (
	JobStart  EventType = iota // a claimant picked the job up
	JobDone                    // its simulation completed
	JobCached                  // the cache satisfied it
	JobFailed                  // it errored, panicked, timed out or was cancelled
	// JobCacheCorrupt: an entry exists but does not decode; it is
	// removed and the job recomputes.
	JobCacheCorrupt
	JobLeased       // a remote worker (Event.Worker) holds its lease
	JobLeaseExpired // the lease's heartbeats stopped (crash, partition)
	JobReassigned   // the job went back to the front of the queue
)

// Terminal reports whether an event type ends a job: exactly one is
// emitted per job, and campaign accounting counts only these.
func (t EventType) Terminal() bool {
	return t == JobDone || t == JobCached || t == JobFailed
}

// Event is one telemetry tick: which job, how far along the campaign
// is, and for finished jobs their elapsed time and a campaign ETA.
type Event struct {
	Type        EventType
	Job         Job
	Index       int
	Done, Total int           // finished jobs (this one included) and campaign size
	JobElapsed  time.Duration // this job's wall clock (finish events)
	// Elapsed is campaign wall clock so far; ETA estimates what remains.
	Elapsed, ETA time.Duration
	Err          error
	Worker       string // the remote worker of a lease event
	// Engine, on the JobDone of a local run, is what the engine skipped
	// (network.Elided): telemetry, in no Result, cache entry or digest.
	Engine string
}

// resolved is a job after fail-fast validation.
type resolved struct {
	exp      experiments.Experiment
	params   core.Params
	scheme   string
	seed     int64
	faults   *fault.Script
	watchdog sim.Cycle
}

// resolve validates one job: a runnable experiment, valid scheme and
// parameters.
func resolve(j Job) (r resolved, err error) {
	r = resolved{scheme: j.Scheme, seed: j.Seed, watchdog: j.Watchdog}
	if j.Exp != nil {
		r.exp = *j.Exp
	} else if r.exp, err = experiments.ByID(j.ExpID); err != nil {
		return r, err
	}
	switch {
	case r.exp.Kind == experiments.ConfigTable:
		return r, fmt.Errorf("%s is a static table, not a runnable experiment", r.exp.ID)
	case r.exp.Build == nil:
		return r, fmt.Errorf("%s has no Build function", r.exp.ID)
	}
	if j.Params != nil {
		r.params = *j.Params
	} else if r.params, err = experiments.SchemeByName(j.Scheme); err != nil {
		return r, err
	}
	if err := r.params.Validate(); err != nil {
		return r, err
	}
	if r.scheme == "" {
		r.scheme = r.params.Name
	}
	if j.Faults != nil {
		if err := j.Faults.Validate(); err != nil {
			return r, err
		}
		r.faults = j.Faults
	}
	return r, nil
}

// key is the job's cache address when run at seed (key(0), the
// seed-free table's, stands for every seed), facets after the fault
// script's. The watchdog window is not in it: it can only turn a run
// into a failure, which is never cached as a result.
func (r resolved) key(seed int64, facets ...string) string {
	if r.faults != nil {
		facets = append([]string{"faults=" + r.faults.Fingerprint()}, facets...)
	}
	return Key(r.exp, r.scheme, seed, r.params, facets...)
}

// quarantineKey is where the job's quarantined outcome is cached: the
// result key plus the watchdog window, which a violation depends on.
func (r resolved) quarantineKey() string {
	return r.key(r.seed, fmt.Sprintf("watchdog=%d", r.watchdog))
}

// Run executes a campaign: it validates every job up front, runs the
// grid through an ephemeral Queue with opt.Workers slots, and returns
// one JobResult per job in input order. The error is non-nil only for
// invalid jobs or cancellation (a job claimed after ctx ended reports
// it without running); job failures are in their JobResult.Err.
func Run(ctx context.Context, jobs []Job, opt Options) ([]JobResult, error) {
	var invalid []string
	for i, j := range jobs {
		if _, err := resolve(j); err != nil {
			invalid = append(invalid, fmt.Sprintf("job %d (%s): %v", i, j, err))
		}
	}
	if len(invalid) > 0 {
		return nil, fmt.Errorf("runner: %d invalid job(s):\n  %s\nvalid experiment ids: %s",
			len(invalid), strings.Join(invalid, "\n  "), strings.Join(experiments.ValidIDs(), " "))
	}
	exec := opt.Executor
	if exec == nil {
		exec = &LocalExecutor{Cache: opt.Cache, Timeout: opt.Timeout}
	}
	var (
		out   = make([]JobResult, len(jobs))
		mu    sync.Mutex // serializes done counting and Progress calls
		done  int
		start = time.Now()
		wg    sync.WaitGroup
	)
	emit := func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		ev.Total = len(jobs)
		if ev.Type.Terminal() { // lease events are the same job still in flight
			done++
			ev.Elapsed = time.Since(start)
			if done < len(jobs) {
				ev.ETA = time.Duration(float64(ev.Elapsed) / float64(done) * float64(len(jobs)-done))
			}
		}
		ev.Done = done
		if opt.Progress != nil {
			opt.Progress(ev)
		}
	}
	q := NewQueue()
	wg.Add(len(jobs))
	for i, job := range jobs {
		q.Push(&Task{Job: job, Ctx: ctx, Run: func(ctx context.Context) {
			defer wg.Done()
			if out[i].Err = ctx.Err(); out[i].Err != nil {
				out[i].Job = job
				return
			}
			out[i] = exec.Execute(ctx, job, func(ev Event) {
				ev.Index = i
				emit(ev)
			})
		}})
	}
	q.Serve(opt.Workers)
	wg.Wait()
	q.Close()
	return out, ctx.Err()
}

// outcome is one simulation's: its result, Event.Engine's text, and
// whether every seed would have produced res (sim.Engine.SeedSeen).
type outcome struct {
	res      *experiments.Result
	engine   string
	seedFree bool
	err      error
}

// executeBounded runs the simulation on its own goroutine to enforce
// the timeout and cancellation; an abandoned run (the simulator has no
// preemption points) finishes in the background, unread.
func executeBounded(ctx context.Context, job Job, r resolved, timeout time.Duration) outcome {
	ch := make(chan outcome, 1)
	go func() { ch <- execute(r) }()
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case o := <-ch:
		return o
	case <-timer:
		return outcome{err: fmt.Errorf("runner: %s exceeded the %v job timeout (simulation abandoned)", job, timeout)}
	case <-ctx.Done():
		return outcome{err: ctx.Err()}
	}
}

// execute builds, runs and harvests one simulation, converting a panic
// anywhere in the stack into a job error. An invariant violation —
// raised by the always-on checker or the final audit — comes back from
// RunAudited as the *invariant.Violation itself, for quarantine.
func execute(r resolved) (o outcome) {
	defer func() {
		if p := recover(); p != nil {
			o = outcome{err: fmt.Errorf("runner: job panicked: %v\n%s", p, debug.Stack())}
		}
	}()
	n, err := r.exp.Build(r.params, r.seed, r.exp.Bin, r.exp.Duration, experiments.BuildOpts{})
	if err != nil {
		return outcome{err: err}
	}
	if r.faults != nil {
		if _, err := n.InjectFaults(r.faults); err != nil {
			return outcome{err: err}
		}
	}
	if r.watchdog != 0 && n.Checker != nil {
		n.Checker.SetWatchdogWindow(r.watchdog)
	}
	// Terminal audit included: corruption inside the last check interval
	// must not slip out as a plausible result.
	if err := n.RunAudited(r.exp.Duration); err != nil {
		return outcome{err: err}
	}
	engine := fmt.Sprintf("elided: %+v", n.Elided())
	return outcome{res: experiments.Harvest(r.exp, r.scheme, r.seed, n), engine: engine, seedFree: !n.Eng.SeedSeen()}
}

// Failed filters a campaign's failures (nil when everything ran).
func Failed(results []JobResult) []JobResult {
	var out []JobResult
	for _, r := range results {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}
