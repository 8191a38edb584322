package dispatch

import (
	"context"
	"fmt"

	"repro/internal/runner"
)

// RemoteExecutor satisfies runner.Executor by offering jobs to the
// worker fleet, degrading to local execution whenever the fleet cannot
// take them. The service-side cache stays authoritative — it is probed
// before dispatch and updated after every successful remote run, so
// local and remote execution share one dedup layer.
type RemoteExecutor struct {
	// Board is the lease table workers pull from.
	Board *Board
	// Local owns the execution envelope and the fallback simulation; its
	// Cache, when non-nil, is the shared service cache.
	Local *runner.LocalExecutor
	// Log, when non-nil, receives fallback notices.
	Log func(format string, args ...any)
}

func (e *RemoteExecutor) logf(format string, args ...any) {
	if e.Log != nil {
		e.Log(format, args...)
	}
}

// Execute implements runner.Executor: the shared envelope (cache probe,
// JobStart/terminal events, store) is runner.LocalExecutor's; this type
// only supplies how a cache miss is computed — on the fleet when it can
// take the job, in-process otherwise.
func (e *RemoteExecutor) Execute(ctx context.Context, job runner.Job, emit func(runner.Event)) runner.JobResult {
	return e.Local.ExecuteVia(ctx, job, emit, e.offload)
}

// offload offers one job to the fleet. ok=false sends the envelope to
// its in-process simulation: an unserializable job, no live workers, or
// a job the board withdrew mid-wait.
func (e *RemoteExecutor) offload(ctx context.Context, job runner.Job, key string, emit func(runner.Event)) (runner.JobResult, bool) {
	wire, werr := runner.WireFromJob(job)
	if werr != nil {
		// Hand-built job (no source spec): local-only by construction.
		e.logf("dispatch: %s: %v; executing locally", job, werr)
		e.Board.cFallback.Add(1)
		return runner.JobResult{}, false
	}
	jr, executed := e.Board.Enqueue(ctx, job, wire, emit)
	if !executed {
		// No live workers, or withdrawn because the fleet died while
		// the job was queued (the board logs that).
		e.Board.cFallback.Add(1)
		return runner.JobResult{}, false
	}
	// The worker computed its key with its own build. A mismatch means
	// version skew between service and worker binaries — the result
	// bytes may differ from what this build would produce, so refuse it
	// rather than poison the shared cache, which stores quarantined
	// outcomes as well as results.
	if (jr.Err == nil || jr.Quarantined) && key != "" && jr.Key != "" && jr.Key != key {
		e.Board.cMismatch.Add(1)
		return runner.JobResult{Err: fmt.Errorf("dispatch: %s: worker cache key %s != service key %s (version skew between service and worker builds?); rejecting result", job, jr.Key, key)}, true
	}
	// A worker-side cache hit is still a completed run from this
	// campaign's point of view: the shared cache missed it, and the
	// envelope backfills it.
	jr.Cached = false
	return jr, true
}
