package cli

import (
	"context"
	"fmt"
	"os"
	"os/signal"

	"repro/internal/oracle"
)

const verifyDoc = `Runs the oracle harness: a deliberately simple reference simulator
differentially tested against the optimized engine, a metamorphic
property suite over a fixed-seed sweep of fuzzed configurations, golden
tolerance-band curves for the paper's headline figures, and a
self-check that seeds engine bugs and requires the harness to catch
them.

  ccfit-run verify                 # quick gates (same set go test runs)
  ccfit-run verify -mode=full      # + dominance, IRD, golden curves, 200-config sweep

The open-ended campaign is the native fuzz target, which minimizes a
failure and keeps it as a corpus file that plain go test replays:

  go test -run '^$' -fuzz FuzzProperties -fuzztime 45m ./internal/oracle
  go test -run 'FuzzProperties/<file>' ./internal/oracle   # replay one failure

A failing sweep config is printed in the same corpus-file form.
Exit status is 0 when every gate passes, 1 on findings, 2 on usage
or infrastructure errors.
`

// verify is ccfit-run verify: one report line per gate on stdout, then a
// verdict line; findings exit 1, a harness failure 2.
func (a *app) verify(args []string) error {
	mode := a.fs.String("mode", "quick", "verification depth: quick or full")
	a.Register(a.fs, "seed", "workers")
	a.usage(verifyDoc)
	if err := a.parse(args); err != nil {
		return err
	}
	if a.fs.NArg() > 0 {
		a.fs.Usage()
		return errUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	rep, err := oracle.Verify(ctx, oracle.VerifyOptions{Mode: *mode, Seed: a.Seed, Workers: a.Workers, Log: a.logf})
	if err != nil {
		return infraError{err}
	}

	for _, s := range rep.Sections {
		if len(s.Findings) == 0 {
			fmt.Fprintf(a.stdout, "ok    %-12s %s\n", s.Name, s.Detail)
			continue
		}
		fmt.Fprintf(a.stdout, "FAIL  %-12s %s\n", s.Name, s.Detail)
		for _, f := range s.Findings {
			fmt.Fprintf(a.stdout, "      %s\n", f)
		}
	}
	if !rep.OK() {
		fmt.Fprintf(a.stdout, "%s: %s mode: %d finding(s)\n", a.tool, rep.Mode, rep.Findings())
		return errFindings
	}
	fmt.Fprintf(a.stdout, "%s: %s mode: all gates passed\n", a.tool, rep.Mode)
	return nil
}
