// Package runner orchestrates campaigns of independent simulation
// jobs. Every run the repo cares about — the 8 paper figures × up to
// 5 schemes × N seeds, the ablation sweeps, the load curves — is an
// independent single-goroutine simulation, so the runner fans a job
// grid across a worker pool sized by the caller (default: one worker
// per core) while keeping each simulation itself single-goroutine and
// bit-deterministic.
//
// The runner provides the operational layer the ad-hoc CLI for-loops
// lacked:
//
//   - fail-fast validation: every job's experiment id, scheme and
//     parameter set are resolved before anything runs, so a typo is
//     reported up front with the list of valid ids instead of erroring
//     mid-campaign;
//   - context.Context cancellation and optional per-job wall-clock
//     timeouts;
//   - per-job panic recovery, converting a crashed simulation into a
//     reported job failure instead of killing the whole campaign;
//   - a content-addressed on-disk result cache (see Cache) keyed by
//     experiment id, durations, scheme, seed, the full parameter set
//     and the module version, so re-renders skip completed runs;
//   - progress telemetry (jobs done/total, per-job elapsed, campaign
//     ETA) through a callback, plus a JSON run manifest (see Manifest)
//     written next to the CSVs.
//
// Results come back in job order regardless of completion order, so a
// parallel campaign renders identically to a serial one.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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
	// ExpID names a registered experiment (experiments.ByID). Ignored
	// when Exp is set.
	ExpID string
	// Scheme is the preset name ("CCFIT", "ITh", ...). When Params is
	// set the preset is not consulted, but the name still labels the
	// result (defaulting to Params.Name).
	Scheme string
	// Seed drives every random stream of the simulation.
	Seed int64
	// Params, when non-nil, overrides the scheme preset — the ablation
	// path. The override is part of the cache key.
	Params *core.Params
	// Exp, when non-nil, supplies the experiment directly: synthetic
	// experiments (load curves) and time-scaled copies (tests,
	// benches). Distinct traffic must use distinct IDs/durations, since
	// those — not the Build closure — enter the cache key.
	Exp *experiments.Experiment
	// Faults, when non-nil, is a deterministic fault script injected
	// after Build and before Run. Its fingerprint is part of the cache
	// key, so faulted and fault-free runs of the same grid point never
	// collide.
	Faults *fault.Script
	// Watchdog overrides the invariant checker's forward-progress
	// window for this job: 0 keeps the default, <0 disables, >0 sets
	// the window in cycles.
	Watchdog sim.Cycle
	// SimWorkers asks for the partitioned cycle engine (0 or 1 =
	// serial). Partitioned runs are byte-identical to serial ones, so
	// the value is outcome-neutral and deliberately NOT part of the
	// cache key. Run caps it per job when the campaign pool would
	// oversubscribe the machine (see EffectiveSimWorkers).
	SimWorkers int
	// Source, when non-nil, is a one-cell spec that re-expands to
	// exactly this job (set by FromSpec). It is what makes a job
	// serializable for remote execution: the Exp closure cannot cross a
	// process boundary, but the spec can, and expansion is
	// deterministic on both sides. Jobs built by hand (tests, benches)
	// leave it nil and can only run locally.
	Source *experiments.Spec
}

// ExperimentID names the job's experiment: ExpID, else the id of the
// experiment supplied directly.
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

// JobResult is the outcome of one job. Exactly one of Result/Err is
// meaningful; Err covers build failures, panics, timeouts and
// cancellation.
type JobResult struct {
	Job     Job
	Result  *experiments.Result
	Err     error
	Cached  bool
	Elapsed time.Duration
	// CacheErr reports that the job ran fine but storing its result in
	// the cache failed — Result is still valid and Err stays nil, the
	// only cost is that the next identical run recomputes. Kept apart
	// from Err so downstream failure accounting does not count a full
	// disk as a failed simulation.
	CacheErr error
	// Key is the cache key (empty when caching is disabled).
	Key string
	// Attempts counts simulation attempts (1 + retries; 0 for cache
	// hits and jobs cancelled before starting).
	Attempts int
	// Quarantined marks a deterministic invariant violation: the same
	// seed and script fail identically every time, so the job was not
	// retried and must not be until the code or the script changes.
	Quarantined bool
	// Diagnostics carries the invariant checker's snapshot for
	// quarantined jobs (truncated for the manifest).
	Diagnostics string
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

// Outcome classifies the result. A job the shutdown drained away is
// cancelled, not conflated with a real failure; an error that crossed
// the wire as text is a failure.
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
// manifest, journal and wire record (a cached job takes well under one).
func (r JobResult) ElapsedMS() float64 {
	return float64(r.Elapsed) / float64(time.Millisecond)
}

// Options configure a campaign.
type Options struct {
	// Workers is the pool size; <=0 means runtime.GOMAXPROCS(0).
	Workers int
	// Timeout bounds each job's wall-clock time; 0 disables. A timed
	// out simulation is abandoned (its goroutine finishes in the
	// background and the result is discarded) and reported as a job
	// failure.
	Timeout time.Duration
	// Cache, when non-nil, is consulted before running a job and
	// updated after a successful run.
	Cache *Cache
	// Progress, when non-nil, receives telemetry events. Calls are
	// serialized by the runner; the callback need not be thread-safe.
	Progress func(Event)
	// Retries is how many times a transiently failed job (panic,
	// timeout — anything except an invariant violation, which is
	// deterministic and quarantined instead) is re-attempted.
	Retries int
	// RetryBackoff is the pause before the first retry, doubling each
	// further attempt; 0 retries immediately.
	RetryBackoff time.Duration
	// Executor, when non-nil, overrides how individual jobs run (a
	// remote or instrumented backend). Nil uses a LocalExecutor built
	// from the fields above; when set, Timeout/Cache/Retries/
	// RetryBackoff are the executor's own business.
	Executor Executor
}

// executor returns the configured Executor, defaulting to a local one.
func (o Options) executor() Executor {
	if o.Executor != nil {
		return o.Executor
	}
	return &LocalExecutor{
		Cache:        o.Cache,
		Timeout:      o.Timeout,
		Retries:      o.Retries,
		RetryBackoff: o.RetryBackoff,
	}
}

// EventType classifies a telemetry event.
type EventType uint8

const (
	// JobStart fires when a worker picks a job up.
	JobStart EventType = iota
	// JobDone fires when a job's simulation completes.
	JobDone
	// JobCached fires when a job is satisfied from the cache.
	JobCached
	// JobFailed fires when a job errors, panics, times out or is
	// cancelled.
	JobFailed
	// JobRetry fires when a transiently failed job is about to be
	// re-attempted (Err carries the failure being retried).
	JobRetry
	// JobCacheCorrupt fires when a cache entry exists but cannot be
	// decoded; the entry is removed and the job recomputes.
	JobCacheCorrupt
	// JobLeased fires when a remote dispatcher grants a job's lease to
	// a worker (Worker names it).
	JobLeased
	// JobLeaseExpired fires when a leased job's heartbeats stop and the
	// lease times out (worker crash, network partition).
	JobLeaseExpired
	// JobReassigned fires when an expired job is reclaimed and requeued
	// for another worker.
	JobReassigned
)

// Terminal reports whether an event type ends a job (exactly one
// terminal event is emitted per executed job). Campaign accounting
// counts these and only these — retries, cache-corruption notices and
// lease-lifecycle events are mid-flight telemetry.
func (t EventType) Terminal() bool {
	return t == JobDone || t == JobCached || t == JobFailed
}

// Event is one telemetry tick: which job, how far along the campaign
// is, and — for finished jobs — per-job elapsed time and a campaign
// ETA extrapolated from throughput so far.
type Event struct {
	Type  EventType
	Job   Job
	Index int
	// Done counts finished jobs (including this one for finish
	// events); Total is the campaign size.
	Done, Total int
	// JobElapsed is this job's wall-clock time (finish events).
	JobElapsed time.Duration
	// Elapsed is campaign wall-clock so far; ETA estimates what
	// remains (0 when unknown).
	Elapsed, ETA time.Duration
	Err          error
	// Worker names the remote worker involved in lease-lifecycle
	// events (empty for local execution).
	Worker string
	// Engine, on the JobDone of a job that ran locally, says what the
	// engine skipped inside awake ticks (network.Elided) and, on the
	// partitioned engine, first describes the cut and what its
	// coordinator did (network.PartitionStats). Telemetry only: it is not
	// part of the Result, the cache or any digest.
	Engine string
}

// resolved is a job after fail-fast validation.
type resolved struct {
	exp        experiments.Experiment
	params     core.Params
	scheme     string
	seed       int64
	faults     *fault.Script
	watchdog   sim.Cycle
	simWorkers int
}

// resolve validates one job: the experiment must exist and be
// runnable, the scheme/params must be valid.
func resolve(j Job) (resolved, error) {
	var out resolved
	if j.Exp != nil {
		out.exp = *j.Exp
	} else {
		e, err := experiments.ByID(j.ExpID)
		if err != nil {
			return out, err
		}
		out.exp = e
	}
	if out.exp.Kind == experiments.ConfigTable {
		return out, fmt.Errorf("%s is a static table, not a runnable experiment", out.exp.ID)
	}
	if out.exp.Build == nil {
		return out, fmt.Errorf("%s has no Build function", out.exp.ID)
	}
	if j.Params != nil {
		out.params = *j.Params
	} else {
		p, err := experiments.SchemeByName(j.Scheme)
		if err != nil {
			return out, err
		}
		out.params = p
	}
	if err := out.params.Validate(); err != nil {
		return out, err
	}
	out.scheme = j.Scheme
	if out.scheme == "" {
		out.scheme = out.params.Name
	}
	out.seed = j.Seed
	if j.Faults != nil {
		if err := j.Faults.Validate(); err != nil {
			return out, err
		}
		out.faults = j.Faults
	}
	out.watchdog = j.Watchdog
	if j.SimWorkers < 0 {
		return out, fmt.Errorf("sim workers must be >= 0, got %d", j.SimWorkers)
	}
	out.simWorkers = j.SimWorkers
	return out, nil
}

// cacheKey is the job's content-addressed cache address. The watchdog
// window is deliberately NOT part of it: it can only turn a run into a
// failure, and failures are never cached, so every cached result is
// watchdog-neutral.
func (r resolved) cacheKey() string {
	var extra []string
	if r.faults != nil {
		extra = append(extra, "faults="+r.faults.Fingerprint())
	}
	return Key(r.exp, r.scheme, r.seed, r.params, extra...)
}

// Run executes a campaign: it validates every job up front, fans the
// valid grid across the worker pool, and returns one JobResult per
// job in input order. The returned error is non-nil only for campaign
// setup problems (invalid jobs) or context cancellation; individual
// job failures are reported in their JobResult.Err.
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

	// Oversubscription guard: the pool already saturates the machine at
	// one goroutine per worker, so per-job engine workers beyond
	// GOMAXPROCS/pool only add scheduling churn. Jobs are capped on a
	// copy — results are byte-identical at any worker count, so this
	// changes nothing but wall-clock behavior.
	pool := opt.Workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	if capped := CapSimWorkers(jobs, pool, runtime.GOMAXPROCS(0)); capped != nil {
		jobs = capped
	}

	var (
		out = make([]JobResult, len(jobs))

		mu       sync.Mutex // serializes done counting and Progress calls
		done     int
		campaign = time.Now()
	)
	emit := func(ev Event) {
		mu.Lock()
		defer mu.Unlock()
		ev.Total = len(jobs)
		switch {
		case ev.Type.Terminal():
			// Only terminal events advance the campaign cursor: a retry
			// or a lease bounce is the same job still in flight, and
			// counting it would inflate Done past Total.
			done++
			ev.Done = done
			ev.Elapsed = time.Since(campaign)
			if done > 0 && done < len(jobs) {
				ev.ETA = time.Duration(float64(ev.Elapsed) / float64(done) * float64(len(jobs)-done))
			}
		default:
			ev.Done = done
		}
		if opt.Progress != nil {
			opt.Progress(ev)
		}
	}

	exec := opt.executor()
	started := ForEach(ctx, len(jobs), opt.Workers, func(i int) {
		out[i] = exec.Execute(ctx, jobs[i], func(ev Event) {
			ev.Index = i
			emit(ev)
		})
	})

	if err := ctx.Err(); err != nil {
		for i := range out {
			if !started[i] {
				out[i] = JobResult{Job: jobs[i], Err: err}
			}
		}
		return out, err
	}
	return out, nil
}

// executeBounded runs the simulation in its own goroutine so the
// worker can enforce the timeout and cancellation. The simulator has
// no preemption points: an abandoned run keeps computing in the
// background until it finishes, then its result is discarded.
func executeBounded(ctx context.Context, job Job, r resolved, timeout time.Duration) (*experiments.Result, string, error) {
	type outcome struct {
		res    *experiments.Result
		engine string
		err    error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, engine, err := execute(r)
		ch <- outcome{res, engine, err}
	}()
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case o := <-ch:
		return o.res, o.engine, o.err
	case <-timer:
		return nil, "", fmt.Errorf("runner: %s exceeded the %v job timeout (simulation abandoned)", job, timeout)
	case <-ctx.Done():
		return nil, "", ctx.Err()
	}
}

// execute builds, runs and harvests one simulation, converting a panic
// anywhere in the stack into a job error (the partitioned engine
// re-raises a shard's panic on this goroutine, see sim.Parallel.Run).
// An invariant violation — raised as a panic by the always-on checker
// or surfaced by the final audit — comes back from RunAudited as the
// *invariant.Violation itself, so runOne can quarantine it instead of
// retrying a deterministic failure. engine is Event.Engine's text.
func execute(r resolved) (res *experiments.Result, engine string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("runner: job panicked: %v\n%s", p, debug.Stack())
		}
	}()
	n, err := r.exp.Build(r.params, r.seed, r.exp.Bin, r.exp.Duration,
		experiments.BuildOpts{SimWorkers: r.simWorkers})
	if err != nil {
		return nil, "", err
	}
	if r.faults != nil {
		if _, err := n.InjectFaults(r.faults); err != nil {
			return nil, "", err
		}
	}
	if r.watchdog != 0 && n.Checker != nil {
		n.Checker.SetWatchdogWindow(r.watchdog)
	}
	// Terminal audit included: corruption inside the last check interval
	// must not slip out as a plausible result.
	if err := n.RunAudited(r.exp.Duration); err != nil {
		return nil, "", err
	}
	engine = fmt.Sprintf("elided: %+v", n.Elided())
	if ps := n.PartitionInfo(); ps != nil {
		engine = ps.String() + "; " + engine
	}
	return experiments.Harvest(r.exp, r.scheme, r.seed, n), engine, nil
}

// EffectiveSimWorkers caps one job's partitioned-engine worker count
// so a campaign cannot oversubscribe the machine: campaignWorkers jobs
// run concurrently, each ticking simWorkers goroutines, and the product
// is held to maxProcs. It returns the count to use and whether it was
// capped. Capping never changes results — partitioned runs are
// byte-identical at any worker count.
func EffectiveSimWorkers(campaignWorkers, simWorkers, maxProcs int) (int, bool) {
	if simWorkers <= 1 {
		return simWorkers, false
	}
	if campaignWorkers < 1 {
		campaignWorkers = 1
	}
	if maxProcs < 1 {
		maxProcs = 1
	}
	if campaignWorkers*simWorkers <= maxProcs {
		return simWorkers, false
	}
	eff := maxProcs / campaignWorkers
	if eff < 1 {
		eff = 1
	}
	return eff, true
}

// CapSimWorkers applies EffectiveSimWorkers across a job list, returning
// a capped copy — or nil when no job needed capping (callers keep the
// original slice untouched either way).
func CapSimWorkers(jobs []Job, campaignWorkers, maxProcs int) []Job {
	var out []Job
	for i, j := range jobs {
		eff, capped := EffectiveSimWorkers(campaignWorkers, j.SimWorkers, maxProcs)
		if !capped {
			continue
		}
		if out == nil {
			out = make([]Job, len(jobs))
			copy(out, jobs)
		}
		out[i].SimWorkers = eff
	}
	return out
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
