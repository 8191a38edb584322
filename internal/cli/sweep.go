package cli

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/pkt"
	"repro/internal/runner"
	"repro/internal/sim"
)

// sweep is one tunable: the values to try, how to label one in the
// table's first column and how to apply it.
type sweep struct {
	values []float64
	label  string
	apply  func(p *core.Params, v float64)
}

// sweeps is keyed by -param. Thresholds are in MTUs (stopgo moves Stop;
// Go stays at 4), timers in ns, irdstep in cycles per CCT index,
// becnpacing in ns between BECNs per source.
var sweeps = map[string]sweep{
	"numcfqs":     {[]float64{1, 2, 4, 8}, "%g", func(p *core.Params, v float64) { p.NumCFQs = int(v) }},
	"stopgo":      {[]float64{6, 10, 16, 24}, "stop=%gMTU", func(p *core.Params, v float64) { p.StopThreshold = int(v) * pkt.MTU }},
	"detection":   {[]float64{2, 4, 8, 16}, "%gMTU", func(p *core.Params, v float64) { p.DetectionThreshold = int(v) * pkt.MTU }},
	"markingrate": {[]float64{0.25, 0.5, 0.85, 1.0}, "%g", func(p *core.Params, v float64) { p.MarkingRate = v }},
	"cctitimer":   {[]float64{2000, 4000, 8000, 16000}, "%gns", func(p *core.Params, v float64) { p.CCTITimer = sim.CyclesFromNS(v) }},
	"irdstep":     {[]float64{4, 8, 16, 32}, "%gcyc", func(p *core.Params, v float64) { p.IRDStep = sim.Cycle(v) }},
	"islip":       {[]float64{1, 2, 4}, "%g", func(p *core.Params, v float64) { p.ISlipIters = int(v) }},
	"becnpacing":  {[]float64{0, 2000, 4000, 8000}, "%gns", func(p *core.Params, v float64) { p.BECNPacing = sim.CyclesFromNS(v) }},
}

// Sweep is ccfit-sweep (documented in cmd/ccfit-sweep): one submission
// per valid value of the swept parameter, one table row per point. It
// returns the process exit status.
func Sweep(args []string, stdout, stderr io.Writer) int {
	a := newApp("ccfit-sweep", stdout, stderr)
	return a.exit(a.sweep(args))
}

func (a *app) sweep(args []string) error {
	expID := a.fs.String("exp", "fig8b", "experiment to sweep on")
	scheme := a.fs.String("scheme", "CCFIT", "scheme preset to start from")
	param := a.fs.String("param", "numcfqs", "parameter to sweep")
	a.Register(a.fs, "seed", "seeds", "ms", "workers", "cache", "server", "v")
	if err := a.parse(args); err != nil {
		return err
	}
	exp, err := experiments.ByID(*expID)
	if err != nil {
		return err
	}
	sw, ok := sweeps[*param]
	if !ok {
		return fmt.Errorf("unknown parameter %q", *param)
	}

	// One submission per valid sweep value; invalid combinations are
	// reported as rows without consuming a simulation.
	type point struct {
		label   string
		invalid error
	}
	var points []point
	var subs []campaign.Submission
	for _, v := range sw.values {
		p, err := experiments.SchemeByName(*scheme)
		if err != nil {
			return err
		}
		sw.apply(&p, v)
		pt := point{label: fmt.Sprintf(sw.label, v), invalid: p.Validate()}
		if pt.invalid == nil {
			subs = append(subs, a.submission(experiments.Spec{
				Experiments: []string{exp.ID},
				Schemes:     []string{*scheme},
				MS:          a.MS,
				Params:      &p,
				Label:       fmt.Sprintf("sweep %s=%s on %s/%s", *param, pt.label, exp.ID, *scheme),
			}))
		}
		points = append(points, pt)
	}
	results, err := a.Run(subs...)
	if err != nil {
		return err
	}

	w := a.stdout
	fmt.Fprintf(w, "ablation: %s on %s (%s), seeds %v, workers %d\n", *param, exp.ID, *scheme,
		experiments.Spec{Seed: a.Seed, Seeds: a.Seeds}.SeedList(), a.Workers)
	// Datacenter (finite-flow) experiments carry FCT stats; the sweep
	// table gains slowdown columns only then, so CBR sweeps are
	// unchanged.
	hasFCT := slices.ContainsFunc(results, func(jr runner.JobResult) bool {
		return jr.Err == nil && jr.Result != nil && jr.Result.FCT != nil
	})
	if a.Seeds > 1 {
		fmt.Fprintf(w, "%-12s %-16s %-10s %-16s", *param, "mean±sd", "worstBin", "delivered±sd")
	} else {
		fmt.Fprintf(w, "%-12s %-10s %-10s %-10s", *param, "mean", "worstBin", "delivered")
	}
	if hasFCT {
		fmt.Fprintf(w, " %-12s %-12s", "fctP50", "fctP99")
	}
	fmt.Fprintln(w)
	cursor := results
	for _, pt := range points {
		if pt.invalid != nil {
			fmt.Fprintf(w, "%-12s invalid: %v\n", pt.label, pt.invalid)
			continue
		}
		ran, rs, ok, err := next(&cursor, a.Seeds)
		if err != nil {
			return err
		}
		if !ok {
			fmt.Fprintf(w, "%-12s failed\n", pt.label)
			continue
		}
		// Replication statistics flow through the one shared path.
		rep, err := experiments.Aggregate(ran, *scheme, rs)
		if err != nil {
			return err
		}
		// worstBin: the lowest per-bin normalized throughput, averaged
		// across seeds.
		worst := 0.0
		for _, r := range rs {
			m := 1.0
			for _, x := range r.Normalized {
				m = min(m, x)
			}
			worst += m
		}
		worst /= float64(len(rs))
		if a.Seeds > 1 {
			fmt.Fprintf(w, "%-12s %6.3f ±%5.3f   %-10.3f %8.0f ±%6.0f",
				pt.label, rep.MeanNormalized, rep.StdNormalized, worst, rep.MeanDelivered, rep.StdDelivered)
			if hasFCT && rep.HasFCT {
				fmt.Fprintf(w, " %5.2f ±%4.2f %5.2f ±%4.2f", rep.MeanFCTP50, rep.StdFCTP50, rep.MeanFCTP99, rep.StdFCTP99)
			}
		} else {
			fmt.Fprintf(w, "%-12s %-10.3f %-10.3f %-10.0f", pt.label, rep.MeanNormalized, worst, rep.MeanDelivered)
			if hasFCT && rep.HasFCT {
				fmt.Fprintf(w, " %-12.2f %-12.2f", rep.MeanFCTP50, rep.MeanFCTP99)
			}
		}
		fmt.Fprintln(w)
	}
	return a.report(results)
}
