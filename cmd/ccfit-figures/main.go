// Command ccfit-figures regenerates the paper's evaluation: every
// table and figure (Table I, Figs. 7a-7c, 8a-8c, 9, 10), printing the
// series the paper plots and, optionally, CSV files for plotting.
//
// It is ccfit-run's code (cli.Figures) under its own name: the same
// flags, the same rendered bytes for the same arguments, and
// "ccfit-figures" as the run manifest's tool. See ccfit-run for the
// flags; with no experiment ids, all of the paper's run in paper order.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() {
	os.Exit(cli.Figures("ccfit-figures", os.Args[1:], os.Stdout, os.Stderr))
}
