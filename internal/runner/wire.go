package runner

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/sim"
)

// Wire (de)serialization for remote execution. A Job cannot cross a
// process boundary directly — its Experiment carries a Build closure —
// so the wire form carries the job's one-cell source spec instead and
// both sides expand it with the same deterministic function. That is
// the same trick the campaign client already plays for results: shared
// expansion means index i, cache key and rendered bytes agree between
// the service and every worker.

// WireJob is the serializable identity of one Job: the one-cell spec
// it was expanded from plus the service-level options that ride along
// with it (fault script, watchdog window). Decoding re-expands the
// spec, so an undecodable job — registry drift between service and
// worker builds — fails loudly instead of running the wrong cell.
type WireJob struct {
	Spec experiments.Spec `json:"spec"`
	// Faults is the deterministic fault script injected into the job;
	// its fingerprint is part of the cache key on both sides.
	Faults *fault.Script `json:"faults,omitempty"`
	// Watchdog is the invariant checker's forward-progress override in
	// cycles (0 default, <0 disable).
	Watchdog int64 `json:"watchdog,omitempty"`
}

// WireFromJob captures a job's serializable identity. Jobs built by
// hand (synthetic experiments, tests) carry no source spec
// and cannot be shipped.
func WireFromJob(j Job) (WireJob, error) {
	if j.Source == nil {
		return WireJob{}, fmt.Errorf("runner: job %s carries no source spec and cannot be serialized for remote execution", j)
	}
	w := WireJob{Spec: *j.Source, Faults: j.Faults}
	w.Watchdog = int64(j.Watchdog)
	return w, nil
}

// Job re-expands the wire form into a runnable Job. The spec must
// expand to exactly one cell — anything else means the two sides
// disagree about what a cell is, and running a guess would poison the
// shared cache.
func (w WireJob) Job() (Job, error) {
	jobs, err := FromSpec(w.Spec)
	if err != nil {
		return Job{}, fmt.Errorf("runner: expanding wire job: %w", err)
	}
	if len(jobs) != 1 {
		return Job{}, fmt.Errorf("runner: wire job spec expands to %d cells, want exactly 1", len(jobs))
	}
	j := jobs[0]
	j.Faults = w.Faults
	j.Watchdog = sim.Cycle(w.Watchdog)
	return j, nil
}

// WireResult is the serializable form of a JobResult. Errors travel as
// strings (they are terminal facts by the time they cross the wire),
// and the invariant checker's diagnostic snapshot rides along so a
// quarantined job's evidence survives the round trip.
type WireResult struct {
	Result      *experiments.Result `json:"result,omitempty"`
	Err         string              `json:"error,omitempty"`
	CacheErr    string              `json:"cache_error,omitempty"`
	Cached      bool                `json:"cached,omitempty"`
	ElapsedMS   float64             `json:"elapsed_ms,omitempty"`
	Key         string              `json:"key,omitempty"`
	Attempts    int                 `json:"attempts,omitempty"`
	Quarantined bool                `json:"quarantined,omitempty"`
	Diagnostics string              `json:"diagnostics,omitempty"`
}

// WireFromResult captures a finished job's outcome for the wire.
func WireFromResult(jr JobResult) WireResult {
	w := WireResult{
		Result:      jr.Result,
		Cached:      jr.Cached,
		ElapsedMS:   jr.ElapsedMS(),
		Key:         jr.Key,
		Attempts:    jr.Attempts,
		Quarantined: jr.Quarantined,
		Diagnostics: jr.Diagnostics,
	}
	if jr.Err != nil {
		w.Err = jr.Err.Error()
	}
	if jr.CacheErr != nil {
		w.CacheErr = jr.CacheErr.Error()
	}
	return w
}

// JobResult rehydrates the wire form against the job it answers.
func (w WireResult) JobResult(job Job) JobResult {
	jr := JobResult{
		Job:         job,
		Result:      w.Result,
		Cached:      w.Cached,
		Elapsed:     time.Duration(w.ElapsedMS * float64(time.Millisecond)),
		Key:         w.Key,
		Attempts:    w.Attempts,
		Quarantined: w.Quarantined,
		Diagnostics: w.Diagnostics,
	}
	if w.Err != "" {
		jr.Err = errors.New(w.Err)
	}
	if w.CacheErr != "" {
		jr.CacheErr = errors.New(w.CacheErr)
	}
	return jr
}

// JobKey resolves a job and computes its content-addressed cache key —
// the same key LocalExecutor uses, exposed so a remote dispatcher can
// probe the service-side cache before shipping the job anywhere.
func JobKey(job Job) (string, error) {
	r, err := resolve(job)
	if err != nil {
		return "", err
	}
	return r.key(r.seed), nil
}
