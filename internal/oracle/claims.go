package oracle

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Claim is one claim of EXPERIMENTS.md as an inequality over simulated
// cells, its threshold set from the measured value (most ~25 % inside
// it). The golden digests catch any change; a claim catches a change
// re-pinned into the digests while the physics it shows broke.
type Claim struct {
	ID   string // "figure/claim", e.g. "fig9/ith-equalises"
	Says string // the EXPERIMENTS.md words it checks, verbatim
	// Cells are the runs it reads: one experiment, distinct schemes.
	Cells []experiments.Cell
	Score func(Runs) Verdict
}

// Verdict is a claim's score: the margin by which it holds (> 0 holds),
// as a fraction of its threshold, and the numbers behind it.
type Verdict struct {
	Margin float64
	Detail string
}

// Runs are a claim's results by scheme.
type Runs map[string]*experiments.Result

// figure expands registered experiment id at seed 1 under schemes, run
// for ms milliseconds (0: its full length).
func figure(id string, ms float64, schemes ...string) []experiments.Cell {
	cells, err := experiments.Spec{Experiments: []string{id}, Schemes: schemes, Seed: 1, MS: ms}.Expand()
	if err != nil {
		panic(err) // fixed specs of registered ids
	}
	return cells
}

// onConfig1 is an unregistered Config #1 experiment: flows over ms
// milliseconds in 50 us bins, under each scheme at seed.
func onConfig1(id string, ms float64, seed int64, flowIDs []int, flows func(end sim.Cycle) []RefFlow) func(...string) []experiments.Cell {
	exp := experiments.Experiment{
		ID: id, Kind: experiments.FlowBandwidth, FlowIDs: flowIDs,
		Duration: sim.CyclesFromMS(ms), Bin: sim.CyclesFromNS(50_000),
		Build: func(p core.Params, seed int64, bin, end sim.Cycle, _ experiments.BuildOpts) (*network.Network, error) {
			n, err := network.Build(topo.Config1(), p, network.Options{Seed: seed, BinCycles: bin})
			if err != nil {
				return nil, err
			}
			var tfs []traffic.Flow
			for _, f := range flows(end) {
				tfs = append(tfs, f.traffic())
			}
			return n, n.AddFlows(tfs)
		},
	}
	return func(schemes ...string) (cells []experiments.Cell) {
		for _, s := range schemes {
			cells = append(cells, experiments.Cell{Exp: exp, Scheme: s, Seed: seed})
		}
		return cells
	}
}

// hotspot is Example_hotspot's load: the victim 0->3 beside F1, F2, F5
// and F6 -> 4, every flow at full rate from 0 ms for 5 ms (seed 7).
var hotspot = onConfig1("claims-hotspot", 5, 7, []int{0, 1, 2, 5, 6}, func(end sim.Cycle) []RefFlow {
	flows := []RefFlow{{ID: 0, Src: 0, Dst: 3, End: end, Rate: 1}}
	for _, f := range []int{1, 2, 5, 6} {
		flows = append(flows, RefFlow{ID: f, Src: f, Dst: 4, End: end, Rate: 1})
	}
	return flows
})

// dominance is CheckIRDStepMonotonic's staggered hot spot over 0.75 ms
// (seed 1), read in-window.
var dominance = onConfig1("claims-dominance", 0.75, hotspotSeed, []int{0}, hotspotFlows)

// Claims returns the table in the order TestClaims reports it.
func Claims() []Claim {
	iso, thr, cc := []string{"FBICM", "CCFIT"}, []string{"ITh", "CCFIT"}, []string{"ITh", "FBICM", "CCFIT"}
	norm := func(r *experiments.Result, from, to float64) float64 {
		return experiments.WindowMean(r, r.Normalized, from, to)
	}
	hot := func(r *experiments.Result, id int) float64 { return bw(r, id, 2.5, 5) }
	jain := func(r *experiments.Result) float64 {
		return metrics.JainIndex([]float64{hot(r, 1), hot(r, 2), hot(r, 5), hot(r, 6)})
	}
	delivered := func(r *experiments.Result) float64 { return float64(r.Summary.DeliveredBytes) }
	// F4's share over the mean of F0-F3's in Fig. 10's [8,10) ms.
	f4 := func(r *experiments.Result) float64 {
		return bw(r, 4, 8, 10) * 4 / (bw(r, 0, 8, 10) + bw(r, 1, 8, 10) + bw(r, 2, 8, 10) + bw(r, 3, 8, 10))
	}
	recovers := func(level float64, hold int, by float64) func(Runs, string) Verdict {
		return func(r Runs, s string) Verdict {
			if at := recovery(r[s], level, hold); at >= 0 {
				return le("at ms", at, by, "", 1)
			}
			return Verdict{math.Inf(-1), fmt.Sprintf("never holds %g GB/s", level)}
		}
	}
	return []Claim{
		// Fig. 7a, normalized throughput over [6,10) ms: 1Q 0.165, ITh
		// 0.256, FBICM 0.282, CCFIT 0.280; over [4,6) ITh 0.234, FBICM 0.286.
		{"fig7a/idle-schemes-agree", "before congestion (the victim alone, [0,2) ms) every scheme delivers the same throughput", figure("fig7a", 0, "1Q", "ITh", "FBICM", "CCFIT"),
			each(cc, func(r Runs, s string) Verdict {
				pre := norm(r["1Q"], 0, 2)
				return le("|Δ|/1Q", math.Abs(norm(r[s], 0, 2)-pre)/pre, 0.05, "", 1)
			})},
		{"fig7a/1q-collapses", "1Q decays as each contributor joins (HoL blocking)", figure("fig7a", 0, "1Q", "ITh"),
			func(r Runs) Verdict { return le("1Q", norm(r["1Q"], 6, 10), 0.80, "ITh", norm(r["ITh"], 6, 10)) }},
		{"fig7a/isolation-beats-throttling", "FBICM is flat at the offered load", figure("fig7a", 0, "ITh", "FBICM", "CCFIT"),
			each(iso, func(r Runs, s string) Verdict { return ge(s, norm(r[s], 6, 10), 1.04, "ITh", norm(r["ITh"], 6, 10)) })},
		{"fig7a/ith-dip", "ITh dips in [4,6] ms exactly as the paper describes", figure("fig7a", 0, "ITh", "FBICM"),
			func(r Runs) Verdict { return le("ITh", norm(r["ITh"], 4, 6), 0.95, "FBICM", norm(r["FBICM"], 4, 6)) }},

		// Fig. 8a over 3 ms, normalized throughput in the [1,2) ms burst:
		// 1Q 0.132, ITh 0.201, FBICM 0.624, CCFIT 0.651, VOQnet 0.756;
		// after it, over [2.25,3), 1Q 0.310 and CCFIT 0.600.
		{"fig8a/1q-collapses", "1Q's collapse is deepest with one 16:1 tree", figure("fig8a", 3, "1Q"),
			func(r Runs) Verdict { return le("burst", norm(r["1Q"], 1, 2), 0.5, "pre-burst", norm(r["1Q"], 0.5, 1)) }},
		{"fig8a/isolation-holds", "with 1 tree, CCFIT performs excellently at FBICM's level", figure("fig8a", 3, iso...),
			each(iso, func(r Runs, s string) Verdict {
				return ge("burst", norm(r[s], 1, 2), 0.70, "pre-burst", norm(r[s], 0.5, 1))
			})},
		{"fig8a/voqnet-bounds", "VOQnet (64 queues, 256 KB/port) is the upper bound throughout", figure("fig8a", 3, PaperSchemes...),
			each([]string{"1Q", "ITh", "FBICM", "CCFIT"}, func(r Runs, s string) Verdict {
				return ge("VOQnet", norm(r["VOQnet"], 1, 2), 1, s+" − 0.02", norm(r[s], 1, 2)-0.02)
			})},
		{"fig8a/ith-slow", "ITh cannot cope", figure("fig8a", 3, thr...),
			func(r Runs) Verdict { return le("ITh", norm(r["ITh"], 1, 2), 0.5, "CCFIT", norm(r["CCFIT"], 1, 2)) }},
		{"fig8a/ccfit-recovers", "after the burst ([2.25,3) ms) CCFIT recovers well above 1Q", figure("fig8a", 3, "1Q", "CCFIT"),
			func(r Runs) Verdict { return ge("CCFIT", norm(r["CCFIT"], 2.25, 3), 1.5, "1Q", norm(r["1Q"], 2.25, 3)) }},

		// Fig. 9, GB/s over [7,10) ms with all contributors on. 1Q: F0
		// 0.417, F1/F2 0.417, F5/F6 ~0.83. ITh: F0 2.32, hot-flow max/min
		// 1.08. FBICM: F0 2.46, max/min 2.25. CCFIT: F0 2.46, max/min 1.14.
		{"fig9/1q-parking-lot", "gives F5/F6 double shares", figure("fig9", 0, "1Q"),
			func(r Runs) Verdict { return ge("F5", bw(r["1Q"], 5, 7, 10), 1.6, "F1", bw(r["1Q"], 1, 7, 10)) }},
		{"fig9/1q-victim-starved", "1Q starves the victim", figure("fig9", 0, "1Q"),
			func(r Runs) Verdict { return le("F0", bw(r["1Q"], 0, 7, 10), 1.2, "F1", bw(r["1Q"], 1, 7, 10)) }},
		{"fig9/victim-restored", "every CC scheme restores the victim to at least three times its 1Q share", figure("fig9", 0, "1Q", "ITh", "FBICM", "CCFIT"),
			each(cc, func(r Runs, s string) Verdict { return ge("F0", bw(r[s], 0, 7, 10), 3, "1Q's", bw(r["1Q"], 0, 7, 10)) })},
		{"fig9/ith-equalises", "the parking lot solved by per-flow throttling", figure("fig9", 0, "ITh"),
			func(r Runs) Verdict { return le("max/min", spread(r["ITh"]), 1.3, "", 1) }},
		{"fig9/ccfit-equalises", "CCFIT gets both the best victim bandwidth *and* fairness", figure("fig9", 0, "CCFIT"),
			func(r Runs) Verdict { return le("max/min", spread(r["CCFIT"]), 1.3, "", 1) }},
		{"fig9/fbicm-unfair", "FBICM — best victim throughput but unfairness *increased*", figure("fig9", 0, "FBICM"),
			func(r Runs) Verdict { return ge("max/min", spread(r["FBICM"]), 1.5, "", 1) }},
		// The victim's recovery after the last contributors join at 6 ms:
		// ITh 6.75 ms, FBICM and CCFIT 6.05 (both bars).
		{"fig9/victim-recovers", "every CC scheme brings the victim back above 1.5 GB/s within 2 ms", figure("fig9", 0, cc...),
			each(cc, recovers(1.5, 3, 8))},
		{"fig9/isolation-immediate", "FBICM and CCFIT recover within the first bins after onset", figure("fig9", 0, iso...),
			each(iso, recovers(2.3, 4, 6.5))},
		{"fig9/throttling-slower", "ITh takes several times longer", figure("fig9", 0, thr...),
			func(r Runs) Verdict {
				if ith := recovery(r["ITh"], 2.3, 4); ith >= 0 {
					return ge("ITh at", ith, 1, "CCFIT's", recovery(r["CCFIT"], 2.3, 4))
				}
				return Verdict{math.Inf(1), "ITh never recovers"}
			}},
		{"fig9/1q-never-recovers", "1Q never recovers", figure("fig9", 0, "1Q"),
			func(r Runs) Verdict {
				v3, v4 := le("held 3 bins", held(r["1Q"], 3), 1.5, "", 1), le("held 4 bins", held(r["1Q"], 4), 2.3, "", 1)
				return Verdict{min(v3.Margin, v4.Margin), v3.Detail + "; " + v4.Detail}
			}},

		// Fig. 10, F4 over the mean of F0-F3 in [8,10) ms: 4.02 under 1Q
		// and FBICM, 1.41 under ITh, 1.87 under CCFIT.
		{"fig10/parking-lot", "F4's 4× parking-lot share under 1Q and FBICM", figure("fig10", 0, "1Q", "FBICM"),
			each([]string{"1Q", "FBICM"}, func(r Runs, s string) Verdict { return ge("F4/mean", f4(r[s]), 3, "", 1) })},
		{"fig10/throttling-breaks-parking-lot", "throttling schemes break it", figure("fig10", 0, thr...),
			each(thr, func(r Runs, s string) Verdict { return le("F4/mean", f4(r[s]), 2.4, "", 1) })},

		// Example_hotspot's load, GB/s over [2.5,5) ms: the victim 1Q
		// 0.416, ITh 2.114, FBICM, CCFIT and VOQnet 2.500; Jain over F1,
		// F2, F5, F6 0.900, 0.9997, 0.898, 0.9994, 0.500.
		{"hotspot/isolation-frees-victim", "keeps the victim as well off as isolation (FBICM)", hotspot(iso...),
			each(iso, func(r Runs, s string) Verdict { return ge("victim", hot(r[s], 0), 2, "", 1) })},
		{"hotspot/1q-hol-blocked", "the victim is HoL-blocked under 1Q", hotspot("1Q", "CCFIT"),
			func(r Runs) Verdict { return le("1Q", hot(r["1Q"], 0), 0.5, "CCFIT", hot(r["CCFIT"], 0)) }},
		{"hotspot/ccfit-near-voqnet", "the per-destination reference (VOQnet)", hotspot("CCFIT", "VOQnet"),
			func(r Runs) Verdict { return ge("CCFIT", hot(r["CCFIT"], 0), 0.9, "VOQnet", hot(r["VOQnet"], 0)) }},
		{"hotspot/voqnet-frees-victim", "VOQnet gives the victim more than four times its 1Q share", hotspot("1Q", "VOQnet"),
			func(r Runs) Verdict { return ge("VOQnet", hot(r["VOQnet"], 0), 4, "1Q", hot(r["1Q"], 0)) }},
		{"hotspot/throttling-equalises", "shares the hot link as fairly as throttling (ITh) does", hotspot(thr...),
			each(thr, func(r Runs, s string) Verdict { return ge("Jain", jain(r[s]), 0.99, "", 1) })},
		{"hotspot/parking-lot", "the schemes without throttling leave the parking lot in place", hotspot("1Q", "FBICM"),
			each([]string{"1Q", "FBICM"}, func(r Runs, s string) Verdict { return le("Jain", jain(r[s]), 0.91, "", 1) })},

		// The staggered hot spot, bytes delivered in 0.75 ms: 1Q 2 217 984,
		// ITh 2 772 992, CCFIT 3 407 872, FBICM 3 473 408, VOQnet 3 497 984;
		// the victim 2.12x its 1Q bytes under ITh, 3.10x under CCFIT. Not
		// claimed: CCFIT above FBICM or ITh, a gap that opens only at
		// Config #3 scale (Fig. 8).
		{"dominance/voqnet-bounds", "VOQnet delivers at least what every scheme delivers, within 5 %", dominance(PaperSchemes...),
			each([]string{"CCFIT", "FBICM", "ITh", "1Q"}, func(r Runs, s string) Verdict {
				return ge("VOQnet", delivered(r["VOQnet"]), 1-hotspotTol, s, delivered(r[s]))
			})},
		{"dominance/cc-beats-1q", "every CC scheme delivers at least what 1Q delivers, within 5 %", dominance(PaperSchemes...),
			each([]string{"CCFIT", "FBICM", "ITh"}, func(r Runs, s string) Verdict { return ge(s, delivered(r[s]), 1-hotspotTol, "1Q", delivered(r["1Q"])) })},
		{"dominance/victim-recovers", "the victim gets at least 1.5× (ITh: 1.2×) its 1Q bytes", dominance(PaperSchemes...),
			each([]string{"CCFIT", "VOQnet", "FBICM", "ITh"}, func(r Runs, s string) Verdict {
				factor := 1.5
				if s == "ITh" {
					factor = 1.2
				}
				return ge(s, bw(r[s], 0, 0, 1), factor, "1Q", bw(r["1Q"], 0, 0, 1))
			})},
	}
}

// bw is flow id's mean GB/s in r over [from, to) ms.
func bw(r *experiments.Result, id int, from, to float64) float64 {
	return experiments.WindowMean(r, flow(r, id), from, to)
}

// flow is flow id's GB/s series in r, nil when r does not track it.
func flow(r *experiments.Result, id int) []float64 {
	for _, f := range r.Flows {
		if f.ID == id {
			return f.GBs
		}
	}
	return nil
}

// spread is Fig. 9's hot-flow max/min over [7,10) ms, NaN when a hot
// flow delivers nothing.
func spread(r *experiments.Result) float64 {
	lo, hi := math.Inf(1), 0.0
	for _, id := range []int{1, 2, 5, 6} {
		lo, hi = min(lo, bw(r, id, 7, 10)), max(hi, bw(r, id, 7, 10))
	}
	if lo <= 0 {
		return math.NaN()
	}
	return hi / lo
}

// recovery is the first time the victim F0 holds level GB/s for hold
// bins after the last contributors join at 6 ms, -1 if it never does.
func recovery(r *experiments.Result, level float64, hold int) float64 {
	return experiments.RecoveryTime(r, flow(r, 0), 6, level, hold)
}

// held is the highest level F0 holds for hold bins from 6 ms on:
// recovery(r, level, hold) is -1 exactly when level > held(r, hold).
func held(r *experiments.Result, hold int) float64 {
	v, best := flow(r, 0), math.Inf(-1)
	for i, t := range r.TimeMS {
		if t >= 6 && i+hold <= len(v) {
			best = max(best, slices.Min(v[i:i+hold]))
		}
	}
	return best
}

// ge scores "x ≥ k·y" as (x − k·y)/|k·y|; with y labelled "" (and 1)
// k is the bound itself.
func ge(xl string, x, k float64, yl string, y float64) Verdict {
	d := fmt.Sprintf("%s %.4g ≥ %.4g", xl, x, k)
	if yl != "" {
		d = fmt.Sprintf("%s %.4g ≥ %g×%s %.4g", xl, x, k, yl, y)
	}
	return Verdict{(x - k*y) / math.Abs(k*y), d}
}

// le scores "x ≤ k·y" as (k·y − x)/|k·y|.
func le(xl string, x, k float64, yl string, y float64) Verdict {
	v := ge(xl, x, k, yl, y)
	return Verdict{-v.Margin, strings.Replace(v.Detail, "≥", "≤", 1)}
}

// each scores f on every scheme and keeps the smallest margin (NaN if
// any is NaN), with every scheme's detail.
func each(schemes []string, f func(r Runs, scheme string) Verdict) func(Runs) Verdict {
	return func(r Runs) Verdict {
		m, ds := math.Inf(1), make([]string, len(schemes))
		for i, s := range schemes {
			v := f(r, s)
			m, ds[i] = min(m, v.Margin), s+": "+v.Detail
		}
		return Verdict{m, strings.Join(ds, "; ")}
	}
}
