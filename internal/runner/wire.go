package runner

import (
	"context"
	"errors"
	"time"

	"repro/internal/experiments"
)

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
	return cacheKey(r, r.Seed), nil
}
