package oracle

import (
	"context"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// CurveSeed fixes the seed the golden-curve runs use; the engine is
// deterministic per seed, so TestGoldenCurves pins each run's result
// exactly.
const CurveSeed int64 = 1

// CurveSpecs lists the golden-curve figures, each under its own
// schemes: Fig. 7a (Config #1 throughput collapse and recovery), Fig. 9
// (Config #1 per-flow fairness) and Fig. 8a (Config #3 hot-burst
// response), trimmed from 4 ms to 3 ms, which still covers the full
// [1,2] ms hot burst plus 1 ms of recovery at a quarter less cost.
func CurveSpecs() []experiments.Spec {
	return []experiments.Spec{
		{Experiments: []string{"fig7a", "fig9"}, Seed: CurveSeed},
		{Experiments: []string{"fig8a"}, Seed: CurveSeed, MS: 3},
	}
}

// curveKey names one (figure, scheme) run.
func curveKey(fig, scheme string) string { return fig + "/" + scheme }

// RunCurves executes every golden-curve figure under every scheme
// (one runner campaign) and returns the results keyed "fig/scheme".
func RunCurves() (map[string]*experiments.Result, error) {
	var jobs []runner.Job
	for _, spec := range CurveSpecs() {
		cells, err := runner.FromSpec(spec)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, cells...)
	}
	results, err := runner.Run(context.Background(), jobs, runner.Options{})
	if err != nil {
		return nil, err
	}
	out := make(map[string]*experiments.Result, len(jobs))
	for _, jr := range results {
		if jr.Err != nil {
			return nil, fmt.Errorf("oracle: %s: %w", jr.Job, jr.Err)
		}
		out[curveKey(jr.Job.Exp.ID, jr.Job.Scheme)] = jr.Result
	}
	return out, nil
}

// CheckCurveShapes asserts the figures' QUALITATIVE claims directly on
// fresh runs, independent of the golden digests — these are the
// paper's sentences turned into inequalities, with thresholds set from
// measured values with ~25% headroom. The digests catch any change;
// these catch a world where a change was regenerated into the digests
// without anyone noticing the physics changed.
func CheckCurveShapes(results map[string]*experiments.Result) []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	get := func(fig, scheme string) *experiments.Result {
		r := results[curveKey(fig, scheme)]
		if r == nil {
			fail("%s/%s: missing result", fig, scheme)
		}
		return r
	}
	win := func(r *experiments.Result, series []float64, from, to float64) float64 {
		return experiments.WindowMean(r, series, from, to)
	}

	// Fig. 7a — "1Q collapses when congestion starts; ITh dips in
	// [4,6] ms after detection; FBICM and CCFIT track the offered
	// load." Measured steady [6,10] ms: 1Q 0.165, ITh 0.256,
	// FBICM 0.282, CCFIT 0.280; ITh's [4,6] dip 0.234 vs CCFIT 0.264.
	if q, i, f, c := get("fig7a", "1Q"), get("fig7a", "ITh"), get("fig7a", "FBICM"), get("fig7a", "CCFIT"); q != nil && i != nil && f != nil && c != nil {
		pre := win(q, q.Normalized, 0, 2)
		for _, r := range []*experiments.Result{i, f, c} {
			if p := win(r, r.Normalized, 0, 2); relDiff(p, pre) > 0.05 {
				fail("fig7a: pre-congestion throughput differs across schemes (%.3f vs %.3f) — congestion control acted on an idle network", p, pre)
			}
		}
		sq, si, sf, sc := win(q, q.Normalized, 6, 10), win(i, i.Normalized, 6, 10), win(f, f.Normalized, 6, 10), win(c, c.Normalized, 6, 10)
		if sq > 0.80*si {
			fail("fig7a: 1Q no longer collapses under congestion (steady %.3f vs ITh %.3f)", sq, si)
		}
		if sc < 1.04*si {
			fail("fig7a: CCFIT lost its edge over pure throttling (steady %.3f vs ITh %.3f)", sc, si)
		}
		if sf < 1.04*si {
			fail("fig7a: FBICM lost its edge over pure throttling (steady %.3f vs ITh %.3f)", sf, si)
		}
		if di, df := win(i, i.Normalized, 4, 6), win(f, f.Normalized, 4, 6); di > 0.95*df {
			fail("fig7a: ITh's [4,6] ms detection dip vanished (%.3f vs FBICM %.3f)", di, df)
		}
	}

	// Fig. 8a (3 ms) — "one tree: FBICM and CCFIT excellent; ITh
	// slow/unstable; VOQnet is the upper bound." Measured burst
	// [1,2] ms: 1Q 0.132, ITh 0.201, FBICM 0.624, CCFIT 0.651,
	// VOQnet 0.756; post [2.25,3] ms: 1Q 0.310, CCFIT 0.600.
	var schemes8 = map[string]*experiments.Result{}
	all8 := true
	for _, s := range []string{"1Q", "ITh", "FBICM", "CCFIT", "VOQnet"} {
		schemes8[s] = get("fig8a", s)
		all8 = all8 && schemes8[s] != nil
	}
	if all8 {
		burst := func(s string) float64 {
			r := schemes8[s]
			return win(r, r.Normalized, 1, 2)
		}
		pre1q := win(schemes8["1Q"], schemes8["1Q"].Normalized, 0.5, 1)
		if burst("1Q") > 0.5*pre1q {
			fail("fig8a: 1Q no longer collapses during the hot burst (%.3f vs pre-burst %.3f)", burst("1Q"), pre1q)
		}
		for _, s := range []string{"FBICM", "CCFIT"} {
			r := schemes8[s]
			if pre := win(r, r.Normalized, 0.5, 1); burst(s) < 0.70*pre {
				fail("fig8a: %s stopped isolating the single congestion tree (burst %.3f vs pre-burst %.3f)", s, burst(s), pre)
			}
		}
		for _, s := range []string{"1Q", "ITh", "FBICM", "CCFIT"} {
			if burst("VOQnet") < burst(s)-0.02 {
				fail("fig8a: VOQnet is no longer the upper bound (%.3f vs %s %.3f)", burst("VOQnet"), s, burst(s))
			}
		}
		if burst("ITh") > 0.5*burst("CCFIT") {
			fail("fig8a: pure throttling reacts as fast as CCFIT now (burst %.3f vs %.3f) — the paper's slow-reaction claim no longer holds", burst("ITh"), burst("CCFIT"))
		}
		p1q := win(schemes8["1Q"], schemes8["1Q"].Normalized, 2.25, 3)
		pcc := win(schemes8["CCFIT"], schemes8["CCFIT"].Normalized, 2.25, 3)
		if pcc < 1.5*p1q {
			fail("fig8a: CCFIT's post-burst recovery edge over 1Q vanished (%.3f vs %.3f)", pcc, p1q)
		}
	}

	// Fig. 9 — per-flow fairness on Config #1 once all four hot flows
	// are active ([7,10] ms). Measured GB/s under 1Q: victim F0 0.417
	// starved at the parking lot while sole-user F5/F6 get ~0.83 —
	// double F1/F2's 0.417; ITh equalises (max/min 1.08) and restores
	// the victim (2.32); FBICM restores the victim best (2.46) but
	// leaves max/min 2.25 unfairness; CCFIT restores AND equalises.
	if q, i, f, c := get("fig9", "1Q"), get("fig9", "ITh"), get("fig9", "FBICM"), get("fig9", "CCFIT"); q != nil && i != nil && f != nil && c != nil {
		bw := func(r *experiments.Result, id int, from, to float64) float64 {
			for _, fs := range r.Flows {
				if fs.ID == id {
					return win(r, fs.GBs, from, to)
				}
			}
			fail("fig9: flow %d not tracked", id)
			return 0
		}
		hotSpread := func(r *experiments.Result) float64 {
			lo, hi := bw(r, 1, 7, 10), bw(r, 1, 7, 10)
			for _, id := range []int{2, 5, 6} {
				v := bw(r, id, 7, 10)
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
			}
			if lo <= 0 {
				return 0
			}
			return hi / lo
		}
		// Parking lot under 1Q: last-hop entrants get ~double.
		if f5, f1 := bw(q, 5, 7, 10), bw(q, 1, 7, 10); f5 < 1.6*f1 {
			fail("fig9: 1Q's parking-lot effect vanished (F5 %.3f vs F1 %.3f GB/s)", f5, f1)
		}
		// Victim starved under 1Q, restored by every CC scheme.
		v1q := bw(q, 0, 7, 10)
		if v1q > 1.2*bw(q, 1, 7, 10) {
			fail("fig9: 1Q's victim flow is no longer starved to a hot-flow share (F0 %.3f)", v1q)
		}
		// Fixed iteration order: fail() output feeds CI diffs, and a
		// map range here would shuffle the error lines across runs.
		ccSchemes := []struct {
			name string
			r    *experiments.Result
		}{{"ITh", i}, {"FBICM", f}, {"CCFIT", c}}
		for _, sc := range ccSchemes {
			if v := bw(sc.r, 0, 7, 10); v < 3*v1q {
				fail("fig9: %s no longer restores the victim flow (F0 %.3f vs 1Q %.3f GB/s)", sc.name, v, v1q)
			}
		}
		// ITh and CCFIT equalise hot-flow shares; FBICM does not.
		if s := hotSpread(i); s == 0 || s > 1.3 {
			fail("fig9: ITh's equalised shares regressed (hot-flow max/min %.2f)", s)
		}
		if s := hotSpread(c); s == 0 || s > 1.3 {
			fail("fig9: CCFIT's fairness regressed (hot-flow max/min %.2f)", s)
		}
		if s := hotSpread(f); s < 1.5 {
			fail("fig9: FBICM's characteristic unfairness disappeared (hot-flow max/min %.2f) — check CFQ accounting", s)
		}
		// Victim recovery time: the reaction metric. Every CC scheme
		// must bring F0 above 1.5 GB/s within 2 ms of the last hot
		// flows joining at 6 ms; 1Q never recovers.
		victimSeries := func(r *experiments.Result) []float64 {
			for _, fs := range r.Flows {
				if fs.ID == 0 {
					return fs.GBs
				}
			}
			return nil
		}
		for _, sc := range ccSchemes {
			at := experiments.RecoveryTime(sc.r, victimSeries(sc.r), 6, 1.5, 3)
			if at < 0 || at > 8 {
				fail("fig9: %s victim recovery at %.2f ms (want within [6,8] ms)", sc.name, at)
			}
		}
		if at := experiments.RecoveryTime(q, victimSeries(q), 6, 1.5, 3); at >= 0 {
			fail("fig9: 1Q's victim recovered at %.2f ms without any congestion control", at)
		}
	}
	return errs
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	if b == 0 {
		return d
	}
	return d / b
}
