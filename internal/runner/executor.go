package runner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/invariant"
)

// Executor runs one job to completion. It is the seam between
// campaign-level scheduling (who runs what, in which order, under
// which cancellation scope) and job-level execution semantics (cache
// probe, timeout, panic containment, retry vs quarantine): Run fans a
// fixed slice of jobs over one, the campaign service's queue feeds one
// job at a time from many campaigns into the same implementation.
//
// emit, when non-nil, receives job-scoped telemetry (JobStart,
// JobRetry, JobCacheCorrupt and the terminal event). The executor
// leaves campaign-level fields (Index, Done, Total, campaign Elapsed,
// ETA) zero — the caller owns campaign accounting and decorates the
// events it forwards.
type Executor interface {
	Execute(ctx context.Context, job Job, emit func(Event)) JobResult
}

// LocalExecutor executes jobs in-process with the semantics runner.Run
// has always had: content-addressed cache probe (recovering from
// corrupt entries), wall-clock timeout, panic recovery, transient
// retries with exponential backoff, and quarantine of deterministic
// invariant violations.
type LocalExecutor struct {
	// Cache, when non-nil, is consulted before running and updated
	// after a successful run.
	Cache *Cache
	// Timeout bounds each job's wall-clock time; 0 disables.
	Timeout time.Duration
	// Retries is how many times a transiently failed job is
	// re-attempted; RetryBackoff the pause before the first retry
	// (doubling per attempt).
	Retries      int
	RetryBackoff time.Duration
}

// Execute validates, resolves and runs one job. Invalid jobs (unknown
// experiment, bad scheme or parameters) fail without consuming a
// simulation.
func (e *LocalExecutor) Execute(ctx context.Context, job Job, emit func(Event)) JobResult {
	return e.ExecuteVia(ctx, job, emit, nil)
}

// Offload computes a job's result somewhere other than this process (a
// worker fleet). key is the job's cache key ("" when caching is off).
// ok=false means the job did not run there and must be simulated here.
type Offload func(ctx context.Context, job Job, key string, emit func(Event)) (jr JobResult, ok bool)

// ExecuteVia is the one envelope every execution path shares: resolve,
// key derivation, cache probe with corrupt-entry recovery, JobStart and
// exactly one terminal event, cache store. Only "how the result is
// computed" varies: via (when non-nil) is offered the job on a cache
// miss, and the in-process simulation — timeout, panic containment,
// transient retries, quarantine — runs when via is nil or declines.
func (e *LocalExecutor) ExecuteVia(ctx context.Context, job Job, emit func(Event), via Offload) JobResult {
	if emit == nil {
		emit = func(Event) {}
	}
	r, err := resolve(job)
	if err != nil {
		emit(Event{Type: JobFailed, Job: job, Err: err})
		return JobResult{Job: job, Err: err}
	}
	var key string
	if e.Cache != nil {
		key = r.cacheKey()
	}
	emit(Event{Type: JobStart, Job: job})
	t0 := time.Now()
	if e.Cache != nil {
		res, ok, gerr := e.Cache.Get(key)
		if ok {
			jr := JobResult{Job: job, Result: res, Cached: true, Elapsed: time.Since(t0), Key: key}
			emit(Event{Type: JobCached, Job: job, JobElapsed: jr.Elapsed})
			return jr
		}
		if gerr != nil {
			// Corrupt entry: log, drop it, recompute. The fresh Put
			// below overwrites the slot.
			emit(Event{Type: JobCacheCorrupt, Job: job, Err: gerr})
			_ = e.Cache.Remove(key)
		}
	}
	var (
		jr     JobResult
		engine string
		ran    bool
	)
	if via != nil {
		jr, ran = via(ctx, job, key, emit)
	}
	if !ran {
		jr, engine = e.simulate(ctx, job, r, emit)
	}
	jr.Job, jr.Elapsed = job, time.Since(t0)
	if e.Cache != nil {
		jr.Key = key
	}
	if jr.Err != nil {
		emit(Event{Type: JobFailed, Job: job, JobElapsed: jr.Elapsed, Err: jr.Err})
		return jr
	}
	if e.Cache != nil && jr.Result != nil {
		// A failed store only costs the next run a recompute: the job
		// itself succeeded, so the result stays usable and the store
		// failure is reported on its own channel instead of masquerading
		// as a failed simulation.
		if perr := e.Cache.Put(key, jr.Result); perr != nil {
			jr.CacheErr = fmt.Errorf("runner: %s ran but caching failed: %w", job, perr)
		}
	}
	emit(Event{Type: JobDone, Job: job, JobElapsed: jr.Elapsed, Engine: engine})
	return jr
}

// simulate runs a resolved job in-process: timeout and panic
// containment, transient retries, quarantine of invariant violations.
// engine is the JobDone event's Engine text.
func (e *LocalExecutor) simulate(ctx context.Context, job Job, r resolved, emit func(Event)) (jr JobResult, engine string) {
	for {
		jr.Attempts++
		jr.Result, engine, jr.Err = executeBounded(ctx, job, r, e.Timeout)
		if jr.Err == nil || invariant.IsViolation(jr.Err) || ctx.Err() != nil || jr.Attempts > e.Retries {
			break
		}
		emit(Event{Type: JobRetry, Job: job, Err: jr.Err})
		if e.RetryBackoff > 0 {
			select {
			case <-time.After(Backoff(e.RetryBackoff, jr.Attempts, MaxRetryBackoff)):
			case <-ctx.Done():
			}
		}
	}
	var v *invariant.Violation
	if errors.As(jr.Err, &v) {
		jr.Quarantined = true
		jr.Diagnostics = v.Snapshot
	}
	return jr, engine
}

// MaxRetryBackoff caps the exponential retry doubling: beyond it every
// further attempt waits the same bounded pause instead of shifting the
// base into overflow (a 100 ms base left-shifted 60 times is garbage).
const MaxRetryBackoff = 30 * time.Second

// Backoff returns the pause before 1-based retry `attempt`: base
// doubled per prior attempt, saturating at max (overflow-safe). It is
// shared by the local executor's retry loop and the remote worker's
// poll loop — both deliberately jitter-free, so a replayed schedule is
// deterministic.
func Backoff(base time.Duration, attempt int, max time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	if max > 0 && base >= max {
		return max
	}
	d := base
	for i := 1; i < attempt; i++ {
		d <<= 1
		if d <= 0 || (max > 0 && d >= max) { // overflow or cap
			return max
		}
	}
	return d
}

// FromSpec expands a declarative campaign spec into runner jobs, in
// the spec's deterministic cell order. It is the bridge the campaign
// service and the -server CLIs share with local runs: both sides
// expand the same Spec with the same function, so result index i
// means the same (experiment, scheme, seed) everywhere.
func FromSpec(s experiments.Spec) ([]Job, error) {
	cells, err := s.Expand()
	if err != nil {
		return nil, err
	}
	jobs := make([]Job, 0, len(cells))
	for _, c := range cells {
		e := c.Exp
		src := c.Source
		jobs = append(jobs, Job{ExpID: e.ID, Scheme: c.Scheme, Seed: c.Seed, Params: c.Params, Exp: &e, Source: &src})
	}
	return jobs, nil
}
