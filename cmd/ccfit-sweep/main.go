// Command ccfit-sweep runs the ablation studies: it sweeps one design
// parameter of a scheme across a range of values on a chosen
// experiment and reports the steady-state (or burst-window) normalized
// throughput, exposing how sensitive each mechanism is to its tuning —
// the discussion of Section III-E.
//
// The sweep points are independent simulations, so they execute in
// parallel through the runner; -seeds N replicates every point and
// prints mean±sd.
//
// Usage:
//
//	ccfit-sweep -exp fig8b -scheme CCFIT -param numcfqs
//	ccfit-sweep -exp fig7a -scheme ITh -param markingrate -workers 4 -seeds 3
//
// Parameters: numcfqs, stopgo, detection, markingrate, cctitimer,
// irdstep, islip, becnpacing.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Sweep(os.Args[1:], os.Stdout, os.Stderr))
}
