package ccfit

import (
	"context"
	"io"

	"repro/internal/runner"
)

// Experiment-campaign orchestration, re-exported for library users.
// The runner fans independent (experiment, scheme, seed) simulations
// across a worker pool — each simulation stays single-goroutine and
// bit-deterministic, so a parallel campaign produces byte-identical
// results to a serial one — with per-job panic recovery, optional
// wall-clock timeouts, a content-addressed on-disk result cache, and
// progress telemetry. See internal/runner for details.
type (
	// Job is one unit of campaign work: (experiment, scheme, seed),
	// optionally with overridden Params (ablations) or a synthetic
	// Experiment.
	Job = runner.Job
	// JobResult pairs a Job with its Result or failure.
	JobResult = runner.JobResult
	// RunOptions configure a campaign: Workers, Timeout, Cache,
	// Progress.
	RunOptions = runner.Options
	// RunEvent is one telemetry tick (done/total, elapsed, ETA).
	RunEvent = runner.Event
	// ResultCache is the content-addressed on-disk result store.
	ResultCache = runner.Cache
	// RunManifest is the JSON record of a finished campaign.
	RunManifest = runner.Manifest
)

// RunJobs executes a campaign across the worker pool, returning one
// JobResult per job in input order. Every job is validated before
// anything runs; per-job failures land in JobResult.Err.
func RunJobs(ctx context.Context, jobs []Job, opt RunOptions) ([]JobResult, error) {
	return runner.Run(ctx, jobs, opt)
}

// OpenResultCache opens (creating if needed) an on-disk result cache.
func OpenResultCache(dir string) (*ResultCache, error) {
	return runner.OpenCache(dir)
}

// NewRunProgress returns a RunOptions.Progress callback streaming one
// line per finished job to w.
func NewRunProgress(w io.Writer) func(RunEvent) {
	return runner.NewProgress(w)
}
