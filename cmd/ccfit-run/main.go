// Command ccfit-run executes arbitrary experiment job grids through
// the parallel runner: every requested (experiment, scheme, seed)
// combination is validated up front, fanned across a worker pool,
// served from the on-disk result cache when warm, and rendered in
// deterministic order (parallel campaigns print byte-identical
// results to serial ones).
//
// Usage:
//
//	ccfit-run                                  # the full paper evaluation, all cores
//	ccfit-run -workers 4 -seeds 5 fig8b        # one figure, 5 replications
//	ccfit-run -schemes CCFIT,ITh -cache .ccfit-cache fig7a fig7b
//	ccfit-run -server http://127.0.0.1:8080 fig7a   # run on a ccfit-serve instance
//	ccfit-run -list                            # valid experiment ids
//
// With -csv DIR each experiment also writes a CSV, and a JSON run
// manifest (runs, outcomes, timings, cache keys) lands in
// DIR/manifest.json (or wherever -manifest points).
//
// With -server URL the same campaign is submitted to a ccfit-serve
// instance instead of running in-process: the spec is expanded by both
// sides with the same deterministic function, results stream back in
// the same cell order, and the rendered output is byte-identical to a
// local run of the same spec.
//
// SIGINT/SIGTERM cancel the campaign gracefully: in-flight jobs stop,
// completed results still render, and the manifest (with cancelled
// entries) is still written.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Figures("ccfit-run", os.Args[1:], os.Stdout, os.Stderr))
}
