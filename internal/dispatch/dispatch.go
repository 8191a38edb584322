// Package dispatch is the fault-tolerant remote-execution backend
// behind the runner.Executor seam: a lease-based job board the
// campaign service exposes over HTTP+JSON, plus the worker-side client
// loop ccfit-worker runs against it.
//
// The model is pull-based with leases. Remote workers register, then
// ask for work; a claim parks until a job is queued, then hands it out
// under a TTL lease the worker renews by heartbeating while it executes.
// Every failure mode reduces to "the heartbeats stopped":
//
//   - worker crash (SIGKILL, OOM): no heartbeat, lease expires, the
//     board reclaims the job and requeues it at the front;
//   - network partition: same — and if the partitioned worker finishes
//     anyway, its late result arrives under a dead lease and is
//     dropped as a duplicate, never double-counted;
//   - worker drain (SIGTERM): the worker reports the job abandoned, so
//     the board requeues immediately instead of waiting out the TTL;
//   - service restart: the new process has an empty board; workers get
//     "unknown worker" on their next request, re-register and carry
//     on, while the campaign journal resumes the jobs themselves.
//
// A job is reassigned at most Options.MaxReassign times before the
// board gives up and fails it — a job that kills every worker it
// lands on must not loop forever. When no live workers remain, queued
// jobs are withdrawn and the RemoteExecutor falls back to local
// execution, so a fleet of zero degrades to exactly the service the
// campaign scheduler always had.
//
// Execution semantics on the worker are the full LocalExecutor stack —
// cache probe against the worker's own cache, timeout, panic
// containment, retries, quarantine — and results carry the
// content-addressed cache key, so the service's cache remains the
// single shared dedup layer and a campaign served by any mix of local
// and remote execution renders byte-identical output.
package dispatch

import (
	"errors"

	"repro/internal/runner"
)

// Protocol is the wire-protocol version. A worker built against a
// different protocol is rejected at registration — refusing early
// beats corrupting a campaign with a misdecoded job.
const Protocol = 1

// Wire messages for the four worker-facing endpoints. All POST, all
// JSON; the board side is idempotent where the transport can duplicate
// (a re-sent result lands on a spent lease and is dropped).

// RegisterRequest announces a worker to the board.
type RegisterRequest struct {
	// Name labels the worker in /workers and the journal (defaults to
	// its id when empty).
	Name string `json:"name,omitempty"`
	// Protocol must match the board's Protocol constant.
	Protocol int `json:"protocol"`
	// Module is the worker build's module version, logged so a mixed
	// fleet is visible before the cache-key mismatch guard trips.
	Module string `json:"module,omitempty"`
}

// RegisterResponse carries the assigned identity and lease timing.
type RegisterResponse struct {
	WorkerID string `json:"worker_id"`
	// LeaseTTLMS is the board's lease TTL; workers heartbeat at a
	// fraction of it.
	LeaseTTLMS int64 `json:"lease_ttl_ms"`
}

// ClaimRequest asks for one job.
type ClaimRequest struct {
	WorkerID string `json:"worker_id"`
	// WaitMS asks the board to hold the claim up to this long when it has
	// no work. Absent or 0 (or a board predating it): 204 at once.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// ClaimResponse grants a lease on one job (HTTP 204 means no work).
type ClaimResponse struct {
	LeaseID string         `json:"lease_id"`
	TTLMS   int64          `json:"ttl_ms"`
	Job     runner.WireJob `json:"job"`
}

// HeartbeatRequest renews a lease mid-execution.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  string `json:"lease_id"`
}

// ResultRequest delivers a finished (or abandoned) job.
type ResultRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  string `json:"lease_id"`
	// Abandon reports that the worker is draining and did not finish
	// the job: the board requeues it immediately (Result is ignored).
	Abandon bool              `json:"abandon,omitempty"`
	Result  runner.WireResult `json:"result"`
}

// ResultResponse acknowledges a delivery. Accepted is false when the
// lease was already reclaimed — the worker's effort was duplicated
// elsewhere and its result dropped.
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
	// ErrUnknownWorker: the worker id is not registered (service
	// restarted, or the worker was pruned as dead). Recovery:
	// re-register.
	ErrUnknownWorker = errors.New("dispatch: unknown worker")
	// ErrLeaseGone: the lease expired or was reclaimed; the delivered
	// result or heartbeat refers to work the board no longer expects
	// from this worker. Recovery: drop the job.
	ErrLeaseGone = errors.New("dispatch: lease gone")
	// ErrClosed: the board is shutting down.
	ErrClosed = errors.New("dispatch: board closed")
)
