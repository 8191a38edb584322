// Command ccfit-verify runs the oracle harness: a deliberately simple
// reference simulator differentially tested against the optimized
// engine, a metamorphic property suite over fuzzed configurations
// (with shrunk JSON repros for failures), golden tolerance-band curves
// for the paper's headline figures, and a self-check that seeds engine
// bugs and requires the harness to catch them.
//
// Usage:
//
//	ccfit-verify                          # quick gates (same set `go test` runs)
//	ccfit-verify -mode=full               # + dominance, IRD, golden curves, 200-config fuzz
//	ccfit-verify -mode=fuzz -fuzz-iters=2000 -repro-dir out/   # nightly campaign
//	ccfit-verify -repro out/fuzz-00042-shrunk.json             # replay one failure
//
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
	mode := flag.String("mode", "quick", "verification depth: quick, full or fuzz")
	seed := flag.Int64("seed", 1, "base seed for simulations and the fuzz generator")
	fuzzIters := flag.Int("fuzz-iters", 0, "fuzz campaign size (0 = mode default: 25 quick, 200 full/fuzz)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel verification workers")
	simWorkers := flag.Int("sim-workers", 1, "run the engine side of every differential under the partitioned engine on N worker goroutines (1 = serial; verdicts are identical either way)")
	reproDir := flag.String("repro-dir", "", "write shrunk fuzz-failure repros (JSON) into this directory")
	reproFile := flag.String("repro", "", "replay one repro file through the property suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: ccfit-verify [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}

	if *reproFile != "" {
		replay(*reproFile)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rep, err := oracle.Verify(ctx, oracle.VerifyOptions{
		Mode:       *mode,
		Seed:       *seed,
		FuzzIters:  *fuzzIters,
		Workers:    *workers,
		SimWorkers: *simWorkers,
		ReproDir:   *reproDir,
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

// replay loads a repro file (a shrunk fuzz failure or a bare config)
// and runs the property suite on it once, verbosely.
func replay(path string) {
	cfg, err := oracle.LoadRepro(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replaying %s: %s/%s seed %d, %d flow(s)\n",
		cfg.Label, cfg.Topo, cfg.Scheme, cfg.Seed, len(cfg.Flows))
	errs := oracle.CheckConfig(cfg)
	if len(errs) == 0 {
		fmt.Println("all properties hold — the failure did not reproduce")
		return
	}
	for _, e := range errs {
		fmt.Printf("FAIL  %v\n", e)
	}
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccfit-verify:", err)
	os.Exit(2)
}
