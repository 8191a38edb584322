package cli

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/topo"
)

const loadCurveDoc = `Produces the classic accepted-versus-offered load curve: uniform
traffic on a chosen configuration is swept from light load to
saturation, and for each offered load the delivered (normalized)
throughput and latency percentiles are reported per scheme. This
locates each scheme's saturation point — context the paper assumes when
it injects "at 100% of the link bandwidth".

Every (scheme, load) point is an independent simulation, declared
through the same experiments.Spec the campaign service accepts, so the
sweep runs identically in-process or on a ccfit-serve instance
(-server URL).

  ccfit-run loadcurve -config 2 -schemes 1Q,VOQsw,VOQnet,FBICM,CCFIT
  ccfit-run loadcurve -config 2 -server http://127.0.0.1:8080
`

// loadCurve is ccfit-run loadcurve: the whole curve is one submission,
// one table row per (scheme, load).
func (a *app) loadCurve(args []string) error {
	cfg := a.fs.Int("config", 2, "network configuration (2 or 3)")
	points := a.fs.String("loads", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0", "offered loads (fraction of link rate)")
	a.Schemes, a.MS = "1Q,VOQsw,DBBM,OBQA,FBICM,VOQnet", 1.0
	a.Register(a.fs, "seed", "schemes", "ms", "workers", "cache", "server", "v")
	a.usage(loadCurveDoc)
	if err := a.parse(args); err != nil {
		return err
	}
	var loads []float64
	for _, s := range strings.Split(*points, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil || !(v > 0 && v <= 1) {
			return fmt.Errorf("bad load %q (want a number in (0, 1])", s)
		}
		loads = append(loads, v)
	}
	ft := topo.Config2()
	if *cfg == 3 {
		ft = topo.Config3()
	}

	// Expansion is scheme-major then load, the order the render cursor
	// below walks; it also rejects any other -config.
	schemes := a.schemeList()
	results, err := a.Run(a.submission(experiments.Spec{
		Schemes:   schemes,
		LoadCurve: &experiments.LoadCurveSpec{Config: *cfg, Loads: loads, MS: a.MS},
		Label:     fmt.Sprintf("loadcurve config %d", *cfg),
	}))
	if err != nil {
		return err
	}

	w := a.stdout
	fmt.Fprintf(w, "uniform load curve on %s (%g ms per point, seed %d, workers %d)\n", ft.Name, a.MS, a.Seed, a.Workers)
	fmt.Fprintf(w, "%-8s %-8s %-10s %-12s %-12s\n", "scheme", "offered", "accepted", "p50lat(ns)", "p99lat(ns)")
	cursor := results
	for _, name := range schemes {
		for _, load := range loads {
			_, rs, ok, err := next(&cursor, 1)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			// Steady state: skip the warm-up third.
			accepted := experiments.SteadyMean(rs[0].Normalized, 2.0/3.0)
			fmt.Fprintf(w, "%-8s %-8.2f %-10.3f %-12.0f %-12.0f\n",
				name, load, accepted, rs[0].Summary.P50LatencyNS, rs[0].Summary.P99LatencyNS)
		}
	}
	return a.report(results)
}
