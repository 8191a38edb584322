// Package campaign is the serving layer over the runner: a resumable
// campaign scheduler plus its HTTP+JSON surface. A campaign is a
// declarative experiments.Spec (what the CLI flags express) expanded
// into jobs on one runner.Queue, which the scheduler's in-process slots
// and a dispatch.Board's remote workers claim from alike, each job run
// through a runner.Executor (cache probe, timeout, panic recovery,
// quarantine). On disk a campaign is its spec file and, once cancelled,
// a cancel mark (store.go); the content-addressed result cache is the
// only store of outcomes and the dedup layer, so a restarted server
// resumes a campaign by recomputing just the cells the cache lacks, and
// an overlapping campaign skips every finished cell. A campaign served
// by any mix of slots and workers, across restarts, renders
// byte-identical results to a local serial run.
package campaign

import (
	"errors"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// Submission is the body of POST /campaigns and the spec file a
// campaign resumes from: a declarative spec. It keeps its one embedded
// field for bench/, which builds Submission{Spec: ...}.
type Submission struct {
	experiments.Spec
}

// Jobs expands the submission into runner jobs in cell order; an
// invalid submission fails here, before anything runs.
func (s Submission) Jobs() ([]runner.Job, error) {
	return runner.FromSpec(s.Spec)
}

// Status is a campaign's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"    // no job has started yet
	StatusRunning   Status = "running"   // a job started, not all are terminal
	StatusDone      Status = "done"      // every job finished ok (fresh or cached)
	StatusFailed    Status = "failed"    // all terminal, one failed or was quarantined
	StatusCancelled Status = "cancelled" // cancelled; in-flight jobs drained
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
func (s JobStatus) Terminal() bool { return s != JobQueued && s != JobRunning }

// jobState is the scheduler's per-job record.
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
// identity, which the client checks against its own expansion, and
// the outcome record a worker reports to the board.
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

// Event is one progress tick of GET /campaigns/{id}/events, one JSON
// object per line; "snapshot" opens every stream, "complete" closes it.
type Event struct {
	Campaign  string  `json:"campaign"`
	Type      string  `json:"type"` // snapshot|start|done|cached|failed|cache-corrupt|cancelled|complete|lease|lease-expired|requeued
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
