// Command ccfit-sim runs a single simulation: one of the paper's
// network configurations under one scheme and traffic case, emitting
// the throughput time series (and per-flow series for the staged
// cases) as CSV on stdout.
//
// Usage:
//
//	ccfit-sim -config 1 -case 1 -scheme CCFIT -ms 10
//	ccfit-sim -config 3 -case 4 -trees 4 -scheme FBICM -ms 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	cfg := flag.Int("config", 1, "network configuration (1, 2, 3 — Table I — or 4, the 512-node fat tree)")
	caseNo := flag.Int("case", 0, "traffic case (default: the paper's case for the config)")
	scheme := flag.String("scheme", "CCFIT", "scheme: "+strings.Join(experiments.SchemeNames(), ", "))
	msFlag := flag.Float64("ms", 10, "simulated milliseconds")
	trees := flag.Int("trees", 1, "congestion trees for case #4")
	seed := flag.Int64("seed", 1, "simulation seed")
	binUS := flag.Float64("bin", 50, "metrics bin width in microseconds")
	traceFlag := flag.Bool("trace", false, "log congestion-management protocol events to stderr")
	linksFlag := flag.Int("links", 0, "print the N most-utilized link directions to stderr")
	faultsPath := flag.String("faults", "", "inject a deterministic fault script (JSON; see scripts/faults/)")
	watchdog := flag.Int64("watchdog", 0, "forward-progress watchdog window in cycles (0 = default 262144, -1 = disable)")
	flag.Parse()

	p, err := experiments.SchemeByName(*scheme)
	if err != nil {
		fatal(err)
	}
	if *traceFlag {
		// Exhaustion events can fire per cycle under heavy overload;
		// keep the live log to the protocol milestones.
		p.Tracer = trace.Only(trace.NewWriter(os.Stderr),
			trace.EvDetect, trace.EvPropagate, trace.EvStop, trace.EvGo,
			trace.EvDealloc, trace.EvCongestionOn, trace.EvCongestionOff)
	}
	end := sim.CyclesFromMS(*msFlag)
	bin := sim.CyclesFromNS(*binUS * 1000)

	var bo experiments.BuildOpts
	var n *network.Network
	switch *cfg {
	case 1:
		n, err = experiments.BuildConfig1(p, *seed, bin, end, bo)
	case 2:
		c := *caseNo
		if c == 0 {
			c = 2
		}
		n, err = experiments.BuildConfig2(p, *seed, bin, end, c, bo)
	case 3:
		n, err = experiments.BuildConfig3(p, *seed, bin, end, *trees, bo)
	case 4:
		n, err = experiments.BuildConfig4(p, *seed, bin, end, bo)
	default:
		fatal(fmt.Errorf("unknown config %d", *cfg))
	}
	if err != nil {
		fatal(err)
	}
	if *faultsPath != "" {
		script, err := fault.Load(*faultsPath)
		if err != nil {
			fatal(err)
		}
		if _, err := n.InjectFaults(script); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "ccfit-sim: fault script %q: %d event(s)\n", script.Name, len(script.Events))
	}
	if *watchdog != 0 && n.Checker != nil {
		n.Checker.SetWatchdogWindow(sim.Cycle(*watchdog))
	}
	// A violation mid-run or in the terminal audit prints its diagnostic
	// snapshot instead of a bare stack trace or — worse — a
	// plausible-looking CSV from a corrupted run.
	if err := n.RunAudited(end); err != nil {
		var v *invariant.Violation
		if errors.As(err, &v) {
			fmt.Fprint(os.Stderr, v.Snapshot)
		}
		fatal(err)
	}

	bins := int(end / bin)
	norm := n.Collector.NormalizedSeries(bins)
	total := n.Collector.TotalSeries(bins)
	flows := n.Collector.Flows()
	fmt.Print("time_ms,normalized,total_gbs")
	for _, f := range flows {
		fmt.Printf(",F%d_gbs", f)
	}
	fmt.Println()
	series := make([][]float64, len(flows))
	for i, f := range flows {
		series[i] = n.Collector.FlowSeries(f, bins)
	}
	for i := 0; i < bins; i++ {
		fmt.Printf("%.3f,%.5f,%.4f", float64(i)*sim.MSFromCycles(bin), norm[i], total[i])
		for _, s := range series {
			fmt.Printf(",%.4f", s[i])
		}
		fmt.Println()
	}
	op, ob := n.TotalOffered()
	dp, db := n.TotalDelivered()
	fmt.Fprintf(os.Stderr, "%s config#%d: offered %d pkts (%d B), delivered %d pkts (%d B), avg latency %.0f ns\n",
		p.Name, *cfg, op, ob, dp, db, n.Collector.AvgLatencyNS())
	if *linksFlag > 0 {
		loads := n.LinkLoads()
		sort.Slice(loads, func(i, j int) bool { return loads[i].Utilization > loads[j].Utilization })
		if *linksFlag < len(loads) {
			loads = loads[:*linksFlag]
		}
		fmt.Fprintln(os.Stderr, "hottest link directions:")
		for _, l := range loads {
			fmt.Fprintf(os.Stderr, "  %-16s %5.1f%%  %8d pkts\n", l.Name, l.Utilization*100, l.Pkts)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ccfit-sim:", err)
	os.Exit(1)
}
