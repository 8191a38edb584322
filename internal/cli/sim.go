package cli

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

const simDoc = `Runs a single simulation: one of the paper's network configurations
under one scheme and traffic case, emitting the throughput time series
(and per-flow series for the staged cases) as CSV on stdout.

  ccfit-run sim -config 1 -case 1 -scheme CCFIT -ms 10
  ccfit-run sim -config 3 -case 4 -trees 4 -scheme FBICM -ms 4
`

// simCases lists the traffic cases each config runs, its default first.
var simCases = map[int][]int{1: {1}, 2: {2, 3}, 3: {4}, 4: {5}}

// sim is ccfit-run sim: one network built, run under the invariant
// checker and printed as CSV, with a one-line summary on stderr.
func (a *app) sim(args []string) error {
	cfg := a.fs.Int("config", 1, "network configuration (1, 2, 3 — Table I — or 4, the 512-node fat tree)")
	caseNo := a.fs.Int("case", 0, "traffic case (default: the paper's case for the config)")
	scheme := a.fs.String("scheme", "CCFIT", "scheme: "+strings.Join(experiments.SchemeNames(), ", "))
	trees := a.fs.Int("trees", 1, "congestion trees for case #4")
	binUS := a.fs.Float64("bin", 50, "metrics bin width in microseconds")
	traceFlag := a.fs.Bool("trace", false, "log congestion-management protocol events to stderr")
	linksFlag := a.fs.Int("links", 0, "print the N most-utilized link directions to stderr")
	a.MS = 10
	a.Register(a.fs, "seed", "ms", "faults", "watchdog")
	a.usage(simDoc)
	if err := a.parse(args); err != nil {
		return err
	}
	cases, ok := simCases[*cfg]
	if !ok {
		return fmt.Errorf("unknown config %d", *cfg)
	}
	if *caseNo == 0 {
		*caseNo = cases[0]
	} else if !slices.Contains(cases, *caseNo) {
		return fmt.Errorf("config %d runs case %v, not %d", *cfg, cases, *caseNo)
	}
	treesSet := false
	a.fs.Visit(func(f *flag.Flag) { treesSet = treesSet || f.Name == "trees" })
	if treesSet && *cfg != 3 {
		return errors.New("-trees shapes case 4, which only config 3 runs")
	}

	p, err := experiments.SchemeByName(*scheme)
	if err != nil {
		return err
	}
	if *traceFlag {
		// Exhaustion events can fire per cycle under heavy overload;
		// keep the live log to the protocol milestones.
		p.Tracer = trace.Only(trace.NewWriter(a.stderr),
			trace.EvDetect, trace.EvPropagate, trace.EvStop, trace.EvGo,
			trace.EvDealloc, trace.EvCongestionOn, trace.EvCongestionOff)
	}
	end, err := experiments.MSCycles("-ms", a.MS)
	if err != nil {
		return err
	}
	if b := *binUS * 1000 / sim.CycleNS; !(b >= 0.5 && b <= float64(end)) { // NaN too
		return fmt.Errorf("-bin %g is not a width of 1 cycle to the run's length", *binUS)
	}
	bin := sim.CyclesFromNS(*binUS * 1000)

	// The run goes through Cell.Simulate like every job; sim keeps it
	// in-process because it prints from the network itself.
	build := func(p core.Params, seed int64, bin, end sim.Cycle, bo experiments.BuildOpts) (*network.Network, error) {
		switch *cfg {
		case 1:
			return experiments.BuildConfig1(p, seed, bin, end, bo)
		case 2:
			return experiments.BuildConfig2(p, seed, bin, end, *caseNo, bo)
		case 3:
			return experiments.BuildConfig3(p, seed, bin, end, *trees, bo)
		}
		return experiments.BuildConfig4(p, seed, bin, end, bo)
	}
	n, err := experiments.Cell{
		Exp:    experiments.Experiment{ID: "sim", Duration: end, Bin: bin, Build: build},
		Scheme: p.Name, Seed: a.Seed, Params: &p, Faults: a.faults, Watchdog: sim.Cycle(a.Watchdog),
	}.Simulate()
	// A violation mid-run or in the terminal audit prints its diagnostic
	// snapshot instead of a bare stack trace or — worse — a
	// plausible-looking CSV from a corrupted run.
	if err != nil {
		var v *invariant.Violation
		if errors.As(err, &v) {
			fmt.Fprint(a.stderr, v.Snapshot)
		}
		return err
	}

	bins := int(end / bin)
	norm := n.Collector.NormalizedSeries(bins)
	total := n.Collector.TotalSeries(bins)
	flows := n.Collector.Flows()
	w := bufio.NewWriter(a.stdout)
	series := make([][]float64, len(flows))
	fmt.Fprint(w, "time_ms,normalized,total_gbs")
	for i, f := range flows {
		fmt.Fprintf(w, ",F%d_gbs", f)
		series[i] = n.Collector.FlowSeries(f, bins)
	}
	fmt.Fprintln(w)
	for i := 0; i < bins; i++ {
		fmt.Fprintf(w, "%.3f,%.5f,%.4f", float64(i)*sim.MSFromCycles(bin), norm[i], total[i])
		for _, s := range series {
			fmt.Fprintf(w, ",%.4f", s[i])
		}
		fmt.Fprintln(w)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	op, ob := n.TotalOffered()
	dp, db := n.TotalDelivered()
	fmt.Fprintf(a.stderr, "%s config#%d: offered %d pkts (%d B), delivered %d pkts (%d B), avg latency %.0f ns\n",
		p.Name, *cfg, op, ob, dp, db, n.Collector.AvgLatencyNS())
	if *linksFlag > 0 {
		loads := n.LinkLoads()
		sort.Slice(loads, func(i, j int) bool { return loads[i].Utilization > loads[j].Utilization })
		if *linksFlag < len(loads) {
			loads = loads[:*linksFlag]
		}
		fmt.Fprintln(a.stderr, "hottest link directions:")
		for _, l := range loads {
			fmt.Fprintf(a.stderr, "  %-16s %5.1f%%  %8d pkts\n", l.Name, l.Utilization*100, l.Pkts)
		}
	}
	return nil
}
