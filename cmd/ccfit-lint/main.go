// Command ccfit-lint runs the repo's static-analysis suite
// (internal/lint) over the module and reports findings: the
// determinism and hot-path rules guarding the simulation core
// (determinism, hotpath-alloc, pool-hygiene, unchecked-err) plus the concurrency family guarding the service
// layer (guarded-field, lock-order, goroutine-lifecycle). CI runs it with no
// flags and fails on any diagnostic; the same suite also runs as a go
// test gate in internal/lint.
//
// Usage:
//
//	ccfit-lint [flags] [module-root]
//
//	-rules determinism,pool-hygiene   run a subset of rules
//	-json                             machine-readable output
//	-fix-suggestions                  include suggested fixes
//	-list                             list rules and exit
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	rules := flag.String("rules", "", "comma-separated rule ids to run (default: all)")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array")
	fixes := flag.Bool("fix-suggestions", false, "print suggested fixes under each finding")
	list := flag.Bool("list", false, "list available rules and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	root := "."
	if flag.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "ccfit-lint: at most one module root argument")
		os.Exit(2)
	}
	if flag.NArg() == 1 {
		root = flag.Arg(0)
	}

	analyzers := lint.All()
	if *rules != "" {
		var err error
		analyzers, err = lint.ByName(strings.Split(*rules, ","))
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccfit-lint: %v\n", err)
			os.Exit(2)
		}
	}

	mod, err := lint.LoadModule(root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ccfit-lint: load: %v\n", err)
		os.Exit(2)
	}
	// Type errors mean the analysis ran on partial information; surface
	// them loudly rather than pretending the module is clean.
	if len(mod.TypeErrors) > 0 {
		for _, e := range mod.TypeErrors {
			fmt.Fprintf(os.Stderr, "ccfit-lint: typecheck: %s\n", e)
		}
		os.Exit(2)
	}

	diags := lint.Run(mod, mod.Packages, analyzers)

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintf(os.Stderr, "ccfit-lint: %v\n", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
			if *fixes && d.Suggestion != "" {
				fmt.Printf("\tfix: %s\n", d.Suggestion)
			}
		}
		if len(diags) > 0 {
			fmt.Printf("ccfit-lint: %d finding(s)\n", len(diags))
		}
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
