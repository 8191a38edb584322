// Package campaign is the serving layer over the parallel runner: a
// queued, resumable, multi-worker campaign scheduler plus its
// HTTP+JSON surface. A campaign is a declarative experiments.Spec
// (the same shape the CLI flags express) expanded into runner jobs,
// scheduled FIFO across a worker pool, executed through the shared
// runner.Executor semantics (cache probe, timeout, panic recovery,
// retry vs quarantine), and journaled to disk so a crashed or drained
// server resumes half-finished campaigns on restart.
//
// The content-addressed result cache is the shared dedup layer: cache
// keys fingerprint config + faults, so a resubmitted or overlapping
// campaign skips every finished cell for free, and a resumed campaign
// recomputes only the cells whose results are not already on disk.
// Simulations themselves stay single-goroutine and bit-deterministic;
// the service only decides when and where they run, so a campaign
// served with N workers — even across a server restart — produces
// byte-identical results to a local serial run.
package campaign

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/sim"
)

// Submission is the body of POST /campaigns: a declarative spec plus
// service-level options that ride along with every job.
type Submission struct {
	experiments.Spec
	// Faults, when non-nil, injects this deterministic fault script
	// into every job (its fingerprint enters the cache keys).
	Faults *fault.Script `json:"faults,omitempty"`
	// Watchdog overrides the invariant checker's forward-progress
	// window in cycles (0 default, <0 disable).
	Watchdog int64 `json:"watchdog,omitempty"`
}

// Jobs expands the submission into runner jobs in deterministic cell
// order, applying the service-level options. The expansion validates
// everything up front, so an invalid submission is rejected before a
// single simulation runs.
func (s Submission) Jobs() ([]runner.Job, error) {
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("campaign: fault script: %w", err)
		}
	}
	jobs, err := runner.FromSpec(s.Spec)
	if err != nil {
		return nil, err
	}
	for i := range jobs {
		jobs[i].Faults = s.Faults
		jobs[i].Watchdog = sim.Cycle(s.Watchdog)
	}
	return jobs, nil
}

// Status is a campaign's lifecycle state.
type Status string

const (
	// StatusQueued: submitted, no job has started yet.
	StatusQueued Status = "queued"
	// StatusRunning: at least one job started, not all terminal.
	StatusRunning Status = "running"
	// StatusDone: every job finished ok (fresh or cached).
	StatusDone Status = "done"
	// StatusFailed: every job terminal, at least one failed or was
	// quarantined.
	StatusFailed Status = "failed"
	// StatusCancelled: the campaign was cancelled; queued jobs were
	// dropped and in-flight jobs drained.
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether a campaign status is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// JobStatus is one job's lifecycle state inside a campaign.
type JobStatus string

const (
	JobQueued      JobStatus = "queued"
	JobRunning     JobStatus = "running"
	JobDone        JobStatus = "done"
	JobCached      JobStatus = "cached"
	JobFailed      JobStatus = "failed"
	JobQuarantined JobStatus = "quarantined"
	JobCancelled   JobStatus = "cancelled"
)

// Terminal reports whether a job status is final.
func (s JobStatus) Terminal() bool {
	switch s {
	case JobDone, JobCached, JobFailed, JobQuarantined, JobCancelled:
		return true
	}
	return false
}

// jobState is the scheduler's per-job record (also the journal's).
type jobState struct {
	Status    JobStatus `json:"status"`
	Key       string    `json:"key,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms,omitempty"`
	Attempts  int       `json:"attempts,omitempty"`
	Error     string    `json:"error,omitempty"`
}

// JobView is the API shape of one job's state.
type JobView struct {
	Index      int    `json:"index"`
	Job        string `json:"job"`
	Experiment string `json:"experiment"`
	Scheme     string `json:"scheme"`
	Seed       int64  `json:"seed"`
	jobState
}

// cellResult is one cell of GET /campaigns/{id}/results: the job's
// identity, which the client checks against its own expansion of the
// spec, and the same outcome record a worker reports to the board.
type cellResult struct {
	Index      int    `json:"index"`
	Experiment string `json:"experiment"`
	Scheme     string `json:"scheme"`
	Seed       int64  `json:"seed"`
	runner.WireResult
}

// View is the API shape of a campaign: GET /campaigns/{id}.
type View struct {
	ID        string    `json:"id"`
	Label     string    `json:"label,omitempty"`
	Status    Status    `json:"status"`
	Submitted time.Time `json:"submitted"`
	Total     int       `json:"total"`
	Done      int       `json:"done"`
	Cached    int       `json:"cached"`
	Failed    int       `json:"failed"`
	Cancelled int       `json:"cancelled"`
	// Jobs is included in single-campaign views, omitted in listings.
	Jobs []JobView `json:"jobs,omitempty"`
}

// Event is one progress tick streamed by GET /campaigns/{id}/events,
// one JSON object per line. "snapshot" opens every stream with the
// campaign's current counters; "complete" closes it with the final
// status.
type Event struct {
	Campaign  string  `json:"campaign"`
	Type      string  `json:"type"` // snapshot|start|done|cached|failed|retry|cache-corrupt|cancelled|complete|lease|lease-expired|requeued
	Index     int     `json:"index,omitempty"`
	Job       string  `json:"job,omitempty"`
	Status    Status  `json:"status,omitempty"` // snapshot and complete
	Done      int     `json:"done"`
	Total     int     `json:"total"`
	ElapsedMS float64 `json:"elapsed_ms,omitempty"`
	Error     string  `json:"error,omitempty"`
	// Worker names the remote worker in lease-lifecycle events.
	Worker string `json:"worker,omitempty"`
}

// ErrNotFound is returned for unknown campaign ids.
var ErrNotFound = errors.New("campaign: not found")
