package dispatch

import (
	"context"
	"fmt"

	"repro/internal/runner"
)

// RemoteExecutor satisfies runner.Executor by offering a job to the
// remote worker whose claim is running it, and running it in-process
// when an in-process slot is. The service-side cache stays
// authoritative — it is probed before the worker gets the job and
// updated after every successful remote run, so local and remote
// execution share one dedup layer.
type RemoteExecutor struct {
	Board *Board // the lease table workers claim through
	// Local owns the envelope and the in-process simulation; its Cache
	// is the shared service cache.
	Local *runner.LocalExecutor
	Log   func(format string, args ...any) // fallback notices, when non-nil
}

// Execute implements runner.Executor: the shared envelope (cache probe,
// JobStart/terminal events, store) is runner.LocalExecutor's; this type
// only supplies how a cache miss is computed — on the claiming worker,
// or in-process.
func (e *RemoteExecutor) Execute(ctx context.Context, job runner.Job, emit func(runner.Event)) runner.JobResult {
	return e.Local.ExecuteVia(ctx, job, emit, e.offload)
}

// offload hands one job to the worker claiming it. ok=false sends the
// envelope to its in-process simulation: an in-process slot runs the
// job (no worker is live), or the job cannot be serialized.
func (e *RemoteExecutor) offload(ctx context.Context, job runner.Job, key string, emit func(runner.Event)) (runner.JobResult, bool) {
	wire, err := runner.WireFromJob(job)
	var jr runner.JobResult
	executed := err == nil
	if executed {
		jr, executed = e.Board.offer(ctx, job, wire, emit)
	} else if e.Log != nil {
		// Hand-built job (no source spec): local-only by construction.
		e.Log("dispatch: %s: %v; executing locally", job, err)
	}
	if !executed {
		e.Board.cFallback.Add(1)
		return runner.JobResult{}, false
	}
	// A key the worker's build computed differently means version skew:
	// its bytes may differ from this build's, so refuse them rather than
	// poison the shared cache (quarantines included).
	if (jr.Err == nil || jr.Quarantined) && key != "" && jr.Key != "" && jr.Key != key {
		e.Board.cMismatch.Add(1)
		return runner.JobResult{Err: fmt.Errorf("dispatch: %s: worker cache key %s != service key %s (version skew between service and worker builds?); rejecting result", job, jr.Key, key)}, true
	}
	// A worker-side hit is a run to this campaign: the shared cache
	// missed it, and the envelope backfills it.
	jr.Cached = false
	return jr, true
}
