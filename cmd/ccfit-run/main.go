// Command ccfit-run is the one client. Without a verb it executes
// arbitrary experiment job grids through the parallel runner: every
// requested (experiment, scheme, seed) combination is validated up
// front, fanned across -workers in-process slots, served from the
// on-disk result cache when warm, and rendered in deterministic order
// (parallel campaigns print byte-identical results to serial ones).
//
// Usage:
//
//	ccfit-run                                  # the full paper evaluation, all cores
//	ccfit-run -workers 4 -seeds 5 fig8b        # one figure, 5 replications
//	ccfit-run -schemes CCFIT,ITh -cache .ccfit-cache fig7a fig7b
//	ccfit-run -server http://127.0.0.1:8080 fig7a   # run on a ccfit-serve instance
//	ccfit-run -list                            # valid experiment ids
//
// A first argument that names a verb runs that tool instead; each takes
// the shared flags it needs and prints its own usage under -h:
//
//	ccfit-run sweep -exp fig8b -param numcfqs  # ablation: one parameter swept
//	ccfit-run loadcurve -config 2              # accepted versus offered load
//	ccfit-run sim -config 1 -ms 10             # one simulation's series as CSV
//
// The oracle harness that checks the engine has no verb: it is the
// tests of internal/oracle (go test ./internal/oracle).
//
// With -csv DIR each experiment also writes a CSV, and a JSON run
// manifest (runs, outcomes, timings, cache keys) lands in
// DIR/manifest.json (or wherever -manifest points).
//
// With -server URL the same campaign is submitted to a ccfit-serve
// instance instead of running in-process: the spec is expanded by both
// sides with the same deterministic function, results stream back in
// the same cell order, and the rendered output is byte-identical to a
// local run of the same spec. sweep and loadcurve take -server too.
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
	os.Exit(cli.Main(os.Args[1:], os.Stdout, os.Stderr))
}
