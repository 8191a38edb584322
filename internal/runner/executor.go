package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/invariant"
)

// Executor runs one job to completion: the seam between who runs what
// (whoever claims the job from a Queue) and how a job runs (cache
// probe, timeout, panic containment, quarantine). emit, when non-nil,
// receives job-scoped telemetry (JobStart, JobCacheCorrupt, lease
// events, the terminal event); campaign-level fields (Index, Done,
// Total, Elapsed, ETA) stay zero for the caller to fill in.
type Executor interface {
	Execute(ctx context.Context, job Job, emit func(Event)) JobResult
}

// LocalExecutor executes jobs in-process: cache probe (recovering from
// corrupt entries), wall-clock timeout, panic recovery and quarantine
// of invariant violations. A job runs once: its seed is fixed, so a
// failure would repeat. A run that never observed its seed serves its
// cell's other seeds as cache hits (seedFreeTable).
type LocalExecutor struct {
	Cache    *Cache        // probed before a run, stored after, when non-nil
	Timeout  time.Duration // per-job wall clock; 0: none
	seedFree seedFreeTable
}

// seedFreeEntries bounds the seed-free table; a cell's seeds expand
// side by side, so a few entries serve one.
const seedFreeEntries = 64

// seedFreeTable holds the results of runs that never observed their
// seed (sim.Engine.SeedSeen), keyed by the cache key at seed 0, as each
// Result's JSON, so each hit decodes a Result of its own; a full table
// starts afresh.
type seedFreeTable struct {
	mu sync.Mutex
	m  map[string][]byte // guarded by mu
}

// get returns key's result with Seed restamped, or nil.
func (t *seedFreeTable) get(key string, seed int64) *experiments.Result {
	t.mu.Lock()
	b, ok := t.m[key]
	t.mu.Unlock()
	var r experiments.Result
	if !ok || json.Unmarshal(b, &r) != nil {
		return nil
	}
	r.Seed = seed
	return &r
}

func (t *seedFreeTable) put(key string, r *experiments.Result) {
	b, err := json.Marshal(r)
	if err != nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.m) == 0 || len(t.m) >= seedFreeEntries {
		t.m = make(map[string][]byte)
	}
	t.m[key] = b
}

// Execute validates, resolves and runs one job in-process.
func (e *LocalExecutor) Execute(ctx context.Context, job Job, emit func(Event)) JobResult {
	return e.ExecuteVia(ctx, job, emit, nil)
}

// Offload computes a job's result outside this process (a remote
// worker); key is its cache key ("" when caching is off). ok=false:
// simulate it here.
type Offload func(ctx context.Context, job Job, key string, emit func(Event)) (jr JobResult, ok bool)

// ExecuteVia is the one envelope every execution path shares: resolve,
// cache and seed-free probes (corrupt entries recovered), JobStart and
// exactly one terminal event, cache store (a quarantined outcome too,
// at its quarantine key). Only how a miss is computed varies: via, when
// non-nil, is offered the job, and the in-process simulation runs when
// via is nil or declines. A via answering ErrRequeued ends the envelope
// with no terminal event and no store.
func (e *LocalExecutor) ExecuteVia(ctx context.Context, job Job, emit func(Event), via Offload) JobResult {
	if emit == nil {
		emit = func(Event) {}
	}
	r, err := resolve(job)
	if err != nil {
		emit(Event{Type: JobFailed, Job: job, Err: err})
		return JobResult{Job: job, Err: err}
	}
	var key, qkey string
	if e.Cache != nil {
		key = r.key(r.seed)
	}
	emit(Event{Type: JobStart, Job: job})
	t0 := time.Now()
	if e.Cache != nil {
		// A corrupt entry is reported, dropped and recomputed.
		corrupt := func(k string, err error) {
			if err != nil {
				emit(Event{Type: JobCacheCorrupt, Job: job, Err: err})
				_ = e.Cache.Remove(k)
			}
		}
		res, ok, gerr := e.Cache.Get(key)
		if ok {
			jr := JobResult{Job: job, Result: res, Cached: true, Elapsed: time.Since(t0), Key: key}
			emit(Event{Type: JobCached, Job: job, JobElapsed: jr.Elapsed})
			return jr
		}
		corrupt(key, gerr)
		qkey = r.quarantineKey()
		w, ok, qerr := e.Cache.get(qkey, true)
		if ok {
			jr := w.JobResult(job)
			jr.Elapsed = time.Since(t0)
			emit(Event{Type: JobFailed, Job: job, JobElapsed: jr.Elapsed, Err: jr.Err})
			return jr
		}
		corrupt(qkey, qerr)
	}
	free := r.key(0)
	var (
		jr   JobResult
		o    outcome
		ran  bool
		done = JobDone
	)
	if jr.Result = e.seedFree.get(free, r.seed); jr.Result != nil {
		jr.Cached, ran, done = true, true, JobCached
	}
	if !ran && via != nil {
		if jr, ran = via(ctx, job, key, emit); errors.Is(jr.Err, ErrRequeued) {
			return jr // queued again: the task's next claim runs a fresh envelope
		}
	}
	if !ran {
		jr, o = e.simulate(ctx, job, r)
	}
	jr.Job, jr.Elapsed = job, time.Since(t0)
	if e.Cache != nil {
		jr.Key = key
	}
	if jr.Err != nil {
		if jr.Quarantined && e.Cache != nil {
			if perr := e.Cache.put(qkey, WireResult{Err: jr.Err.Error(), Quarantined: true, Diagnostics: jr.Diagnostics, Key: key}); perr != nil {
				jr.CacheErr = fmt.Errorf("runner: %s quarantined but caching failed: %w", job, perr)
			}
		}
		emit(Event{Type: JobFailed, Job: job, JobElapsed: jr.Elapsed, Err: jr.Err})
		return jr
	}
	if o.seedFree {
		e.seedFree.put(free, jr.Result)
	}
	if e.Cache != nil && jr.Result != nil {
		// A failed store costs only the next run's recompute: reported
		// apart, not as a failed simulation.
		if perr := e.Cache.Put(key, jr.Result); perr != nil {
			jr.CacheErr = fmt.Errorf("runner: %s ran but caching failed: %w", job, perr)
		}
	}
	emit(Event{Type: done, Job: job, JobElapsed: jr.Elapsed, Engine: o.engine})
	return jr
}

// simulate runs a resolved job in-process, once, quarantining an
// invariant violation.
func (e *LocalExecutor) simulate(ctx context.Context, job Job, r resolved) (jr JobResult, o outcome) {
	o = executeBounded(ctx, job, r, e.Timeout)
	jr.Result, jr.Err, jr.Attempts = o.res, o.err, 1
	var v *invariant.Violation
	if errors.As(jr.Err, &v) {
		jr.Quarantined = true
		jr.Diagnostics = v.Snapshot
	}
	return jr, o
}

// Backoff returns the pause before 1-based retry attempt: base doubled
// per prior attempt, saturating at max (overflow-safe), jitter-free so
// a replayed schedule is deterministic.
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

// FromSpec expands a declarative spec into runner jobs in its cell
// order: local runs, the service and its clients all expand a Spec
// with it, so result index i is the same cell everywhere.
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
