package runner

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/sim"
)

// A Job cannot cross a process boundary (its Experiment carries a Build
// closure), so the wire form carries its one-cell source spec, which
// both sides expand with the same deterministic function: cell, cache
// key and rendered bytes agree between the service and every worker.

// WireJob is the serializable identity of one Job: its one-cell spec
// and the service-level options (fault script, watchdog window).
// Registry drift between builds fails the decode, never runs the wrong
// cell.
type WireJob struct {
	Spec     experiments.Spec `json:"spec"`
	Faults   *fault.Script    `json:"faults,omitempty"`
	Watchdog int64            `json:"watchdog,omitempty"` // cycles: 0 default, <0 disable
}

// WireFromJob captures a job's serializable identity; a hand-built job
// has no source spec and cannot be shipped.
func WireFromJob(j Job) (WireJob, error) {
	if j.Source == nil {
		return WireJob{}, fmt.Errorf("runner: job %s carries no source spec and cannot be serialized for remote execution", j)
	}
	w := WireJob{Spec: *j.Source, Faults: j.Faults}
	w.Watchdog = int64(j.Watchdog)
	return w, nil
}

// Job re-expands the wire form into a runnable Job. The spec must
// expand to exactly one cell: anything else means the sides disagree
// about what a cell is.
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
// text beside the outcome they meant, so a cancelled cell still reads
// cancelled on the other side; a quarantined job's snapshot rides
// along.
type WireResult struct {
	Result      *experiments.Result `json:"result,omitempty"`
	Outcome     Outcome             `json:"outcome,omitempty"`
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
		Outcome:     jr.Outcome(),
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
	switch {
	case w.Err != "" && w.Outcome == OutcomeCancelled:
		jr.Err = cancelledError(w.Err)
	case w.Err != "":
		jr.Err = errors.New(w.Err)
	}
	if w.CacheErr != "" {
		jr.CacheErr = errors.New(w.CacheErr)
	}
	return jr
}

// cancelledError is a cancellation that crossed the wire as text: it
// reads as the text and matches context.Canceled.
type cancelledError string

func (e cancelledError) Error() string      { return string(e) }
func (cancelledError) Is(target error) bool { return target == context.Canceled }

// JobKey resolves a job and computes the cache key LocalExecutor uses.
func JobKey(job Job) (string, error) {
	r, err := resolve(job)
	if err != nil {
		return "", err
	}
	return r.key(r.seed), nil
}
