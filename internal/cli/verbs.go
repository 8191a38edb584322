package cli

import "io"

// mainTool is the one client's name; a verb's messages say "ccfit-run VERB".
const mainTool = "ccfit-run"

// verbs are the tools ccfit-run runs when its first argument names one.
// No experiment id is a verb name (a test pins it), so the first
// argument decides without ambiguity. Only Main reads this table, so a
// binary that calls Figures alone (ccfit-figures, which the benchmark
// builds and times) does not link the verbs.
var verbs = []struct {
	name string
	run  func(*app, []string) error
}{{"sweep", (*app).sweep}, {"loadcurve", (*app).loadCurve}, {"sim", (*app).sim}}

// verbUsage ends ccfit-run -h.
const verbUsage = `
verbs (ccfit-run VERB -h for a verb's flags):
  ccfit-run sweep     [flags]  sweep one scheme parameter on one experiment (ablation)
  ccfit-run loadcurve [flags]  accepted versus offered load under uniform traffic
  ccfit-run sim       [flags]  one simulation's throughput series as CSV on stdout
`

// Main is ccfit-run (documented in cmd/ccfit-run): a first argument
// naming a verb runs that verb on the rest of the command line; any other
// command line runs the figures. It returns the process exit status.
func Main(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		for _, v := range verbs {
			if v.name == args[0] {
				a := newApp(mainTool+" "+v.name, stdout, stderr)
				return a.exit(v.run(a, args[1:]))
			}
		}
	}
	return Figures(mainTool, args, stdout, stderr)
}
