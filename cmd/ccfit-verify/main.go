// Command ccfit-verify runs the oracle harness: a deliberately simple
// reference simulator differentially tested against the optimized
// engine, a metamorphic property suite over a fixed-seed sweep of fuzzed
// configurations, golden tolerance-band curves for the paper's headline
// figures, and a self-check that seeds engine bugs and requires the
// harness to catch them.
//
// Usage:
//
//	ccfit-verify                          # quick gates (same set `go test` runs)
//	ccfit-verify -mode=full               # + dominance, IRD, golden curves, 200-config sweep
//
// The open-ended campaign is the native fuzz target, which minimizes a
// failure and keeps it as a corpus file that plain `go test` replays:
//
//	go test -run '^$' -fuzz FuzzProperties -fuzztime 45m ./internal/oracle
//	go test -run 'FuzzProperties/<file>' ./internal/oracle   # replay one failure
//
// A failing sweep config is printed in the same corpus-file form.
// Exit status is 0 when every gate passes, 1 on findings, 2 on usage
// or infrastructure errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"

	"repro/internal/oracle"
)

func main() {
	mode := flag.String("mode", "quick", "verification depth: quick or full")
	seed := flag.Int64("seed", 1, "base seed for simulations and the fuzzed-config sweep")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel verification workers")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ccfit-verify [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := oracle.Verify(ctx, oracle.VerifyOptions{
		Mode:    *mode,
		Seed:    *seed,
		Workers: *workers,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "ccfit-verify: "+format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	for _, s := range rep.Sections {
		if len(s.Findings) == 0 {
			fmt.Printf("ok    %-12s %s\n", s.Name, s.Detail)
			continue
		}
		fmt.Printf("FAIL  %-12s %s\n", s.Name, s.Detail)
		for _, f := range s.Findings {
			fmt.Printf("      %s\n", f)
		}
	}
	if !rep.OK() {
		fmt.Printf("ccfit-verify: %s mode: %d finding(s)\n", rep.Mode, rep.Findings())
		os.Exit(1)
	}
	fmt.Printf("ccfit-verify: %s mode: all gates passed\n", rep.Mode)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccfit-verify:", err)
	os.Exit(2)
}
