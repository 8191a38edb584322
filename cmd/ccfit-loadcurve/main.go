// Command ccfit-loadcurve produces the classic accepted-versus-offered
// load curve: uniform traffic on a chosen configuration is swept from
// light load to saturation, and for each offered load the delivered
// (normalized) throughput and latency percentiles are reported per
// scheme. This locates each scheme's saturation point — context the
// paper assumes when it injects "at 100% of the link bandwidth".
//
// Every (scheme, load) point is an independent simulation, declared
// through the same experiments.Spec the campaign service accepts, so
// the sweep runs identically in-process or on a ccfit-serve instance
// (-server URL).
//
// Usage:
//
//	ccfit-loadcurve -config 2 -schemes 1Q,VOQsw,VOQnet,FBICM,CCFIT
//	ccfit-loadcurve -config 2 -server http://127.0.0.1:8080
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.LoadCurve(os.Args[1:], os.Stdout, os.Stderr))
}
