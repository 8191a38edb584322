// Package dispatch is the remote side of the campaign service's one job
// queue (runner.Queue): a lease board the service exposes over
// HTTP+JSON, plus the worker-side client loop ccfit-worker runs against
// it.
//
// Workers register, then claim; a claim parks until a job is queued and
// takes it under a TTL lease the worker renews by heartbeating while it
// executes. The service still runs each job's envelope — the cache
// probe before the worker gets the job, the store after its result is
// back — through RemoteExecutor. Every failure mode reduces to "the
// heartbeats stopped":
//
//   - worker crash (SIGKILL, OOM) or network partition: the lease
//     expires and the job goes back to the front of the queue; a late
//     result arrives under a dead lease and is dropped as a duplicate;
//   - worker drain (SIGTERM): the worker reports the job abandoned, so
//     it is requeued at once instead of waiting out the TTL;
//   - service restart: workers get "unknown worker", re-register and
//     carry on, while the spec file and the cache resume the jobs.
//
// A job is requeued at most maxReassign (3) times before it fails.
// The service's in-process slots take jobs only while no worker is
// live, so a fleet of zero degrades to the service alone. Workers run
// the full LocalExecutor stack against their own cache, and results
// carry the content-addressed key, so the service's cache stays the
// one dedup layer and any mix of local and remote execution renders
// byte-identical output.
package dispatch

import (
	"errors"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// Protocol is the wire-protocol version; a worker speaking another is
// refused at registration rather than handed a misdecoded job. A
// version 2 claim carries the job's one-cell source spec; version 3
// names a load point by its experiment id, as every other cell.
const Protocol = 3

// The wire messages of the four worker endpoints, all POST and JSON.

// RegisterRequest announces a worker to the board.
type RegisterRequest struct {
	Name     string `json:"name,omitempty"` // in /workers and lease events; default its id
	Protocol int    `json:"protocol"`       // must equal Protocol
	// Module is the worker build's module version, logged so a mixed
	// fleet is visible before the cache-key mismatch guard trips.
	Module string `json:"module,omitempty"`
}

// RegisterResponse carries the assigned identity and the lease TTL the
// worker heartbeats within.
type RegisterResponse struct {
	WorkerID   string `json:"worker_id"`
	LeaseTTLMS int64  `json:"lease_ttl_ms"`
}

// ClaimRequest asks for one job. WaitMS asks the board to hold the
// claim up to that long when it has no work; absent or 0: 204 at once.
type ClaimRequest struct {
	WorkerID string `json:"worker_id"`
	WaitMS   int64  `json:"wait_ms,omitempty"`
}

// ClaimResponse grants a lease on one job (HTTP 204 means no work).
// Job is the job's Source, which the worker runs through
// experiments.Spec.OneCell: registry drift between builds fails there,
// never runs the wrong cell.
type ClaimResponse struct {
	LeaseID string           `json:"lease_id"`
	TTLMS   int64            `json:"ttl_ms"`
	Job     experiments.Spec `json:"job"`
}

// HeartbeatRequest renews a lease mid-execution.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  string `json:"lease_id"`
}

// ResultRequest delivers a finished job, or with Abandon hands it back
// undone (a draining worker): the board requeues it at once.
type ResultRequest struct {
	WorkerID string            `json:"worker_id"`
	LeaseID  string            `json:"lease_id"`
	Abandon  bool              `json:"abandon,omitempty"`
	Result   runner.WireResult `json:"result"`
}

// ResultResponse acknowledges a delivery; Accepted is false when the
// lease was already reclaimed and the result dropped.
type ResultResponse struct {
	Accepted bool `json:"accepted"`
}

// errorBody is the JSON error payload shared with the campaign server.
type errorBody struct {
	Error string `json:"error"`
}

// Board-side sentinel errors, mapped onto HTTP statuses by the handler
// and back into these values by the worker client.
var (
	// ErrUnknownWorker: the id is not registered (service restarted, or
	// the worker was pruned). Recovery: re-register.
	ErrUnknownWorker = errors.New("dispatch: unknown worker")
	// ErrLeaseGone: the lease expired or was reclaimed. Recovery: drop
	// the job.
	ErrLeaseGone = errors.New("dispatch: lease gone")
	ErrClosed    = errors.New("dispatch: board closed")
)
