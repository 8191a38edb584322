package oracle

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
)

// goldenCurvesJSON pins the tolerance-banded reference curves for the
// paper's headline figures. Embedding (rather than reading testdata at
// run time) lets ccfit-verify check the curves from any working
// directory. Regenerate with:
//
//	go test ./internal/oracle -run TestGoldenCurves -update
//
//go:embed testdata/curves.json
var goldenCurvesJSON []byte

// CurveSeed fixes the seed golden curves are recorded and checked at;
// the engine is deterministic per seed, so the bands only need to
// absorb intentional engine changes, not run-to-run noise.
const CurveSeed int64 = 1

// CurveSpec selects one figure's curves. DurationMS, when non-zero,
// overrides the registry duration — Fig. 8a is trimmed from 4 ms to
// 3 ms, which still covers the full [1,2] ms hot burst plus 1 ms of
// recovery at a quarter less cost.
type CurveSpec struct {
	Fig        string
	DurationMS float64
	Schemes    []string
}

// CurveSpecs lists the golden-curve figures: Fig. 7a (Config #1
// throughput collapse and recovery), Fig. 8a (Config #3 hot-burst
// response) and Fig. 9 (Config #1 per-flow fairness).
func CurveSpecs() []CurveSpec {
	return []CurveSpec{
		{Fig: "fig7a", Schemes: []string{"1Q", "ITh", "FBICM", "CCFIT"}},
		{Fig: "fig8a", DurationMS: 3, Schemes: []string{"1Q", "ITh", "FBICM", "CCFIT", "VOQnet"}},
		{Fig: "fig9", Schemes: []string{"1Q", "ITh", "FBICM", "CCFIT"}},
	}
}

// Curve is one (figure, scheme) series set as persisted in the golden
// file: the network-wide normalized throughput plus, for per-flow
// figures, each tracked flow's bandwidth in GB/s keyed by flow id.
type Curve struct {
	BinMS      float64              `json:"bin_ms"`
	Normalized []float64            `json:"normalized"`
	Flows      map[string][]float64 `json:"flows,omitempty"`
}

// GoldenCurves is the testdata/curves.json schema.
type GoldenCurves struct {
	Note   string           `json:"note"`
	Seed   int64            `json:"seed"`
	Curves map[string]Curve `json:"curves"`
}

// curveKey names one curve in the golden map.
func curveKey(fig, scheme string) string { return fig + "/" + scheme }

// RunCurves executes every golden-curve figure under every scheme
// (one runner campaign) and returns the results keyed like the golden
// map.
func RunCurves() (map[string]*experiments.Result, error) {
	var jobs []runner.Job
	for _, spec := range CurveSpecs() {
		exp, err := experiments.ByID(spec.Fig)
		if err != nil {
			return nil, err
		}
		if spec.DurationMS > 0 {
			exp.Duration = sim.CyclesFromMS(spec.DurationMS)
		}
		for _, s := range spec.Schemes {
			jobs = append(jobs, runner.Job{Scheme: s, Seed: CurveSeed, Exp: &exp})
		}
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

// CurvesToGolden converts run results into the persistable form.
func CurvesToGolden(results map[string]*experiments.Result) *GoldenCurves {
	g := &GoldenCurves{
		Note: "Reference curves for Figs. 7a, 8a (3 ms) and 9 at seed 1. " +
			"Regenerate: go test ./internal/oracle -run TestGoldenCurves -update",
		Seed:   CurveSeed,
		Curves: map[string]Curve{},
	}
	for key, r := range results {
		c := Curve{BinMS: r.BinMS, Normalized: r.Normalized}
		if len(r.Flows) > 0 {
			c.Flows = map[string][]float64{}
			for _, f := range r.Flows {
				c.Flows[strconv.Itoa(f.ID)] = f.GBs
			}
		}
		g.Curves[key] = c
	}
	return g
}

// LoadGoldenCurves decodes the embedded golden file.
func LoadGoldenCurves() (*GoldenCurves, error) {
	var g GoldenCurves
	if err := json.Unmarshal(goldenCurvesJSON, &g); err != nil {
		return nil, fmt.Errorf("oracle: embedded curves.json: %w", err)
	}
	if len(g.Curves) == 0 {
		return nil, fmt.Errorf("oracle: embedded curves.json holds no curves — regenerate with -update")
	}
	return &g, nil
}

// WriteGoldenCurves persists the golden file (the -update path).
func WriteGoldenCurves(path string, results map[string]*experiments.Result) error {
	b, err := json.MarshalIndent(CurvesToGolden(results), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// CurveBand tolerances: a bin passes when |got-want| <= ATol +
// RTol*peak(want series); the series additionally must keep its mean
// absolute error under MAE. Peak-relative (not bin-relative) slack
// keeps near-zero bins from demanding impossible precision while a
// systematic drift across the whole curve still trips the MAE gate.
type CurveBand struct {
	RTol float64
	ATol float64
	MAE  float64
}

// DefaultCurveBand absorbs benign scheduling-tweak wiggle; a curve
// that moves by more than ~10% of its peak in any bin, or drifts by
// 3% of peak on average, is reported.
func DefaultCurveBand() CurveBand { return CurveBand{RTol: 0.10, ATol: 0.02, MAE: 0.03} }

// compareSeries applies the band to one series pair.
func compareSeries(name string, got, want []float64, band CurveBand) []error {
	var errs []error
	if len(got) != len(want) {
		return []error{fmt.Errorf("%s: series length %d, golden has %d (duration or bin changed — regenerate with -update)",
			name, len(got), len(want))}
	}
	peak := 0.0
	for _, v := range want {
		if v > peak {
			peak = v
		}
	}
	limit := band.ATol + band.RTol*peak
	mae, worst, worstAt := 0.0, 0.0, -1
	for i := range want {
		d := got[i] - want[i]
		if d < 0 {
			d = -d
		}
		mae += d
		if d > worst {
			worst, worstAt = d, i
		}
	}
	mae /= float64(len(want))
	if worst > limit {
		errs = append(errs, fmt.Errorf("%s: bin %d off by %.4f (band %.4f; got %.4f, golden %.4f)",
			name, worstAt, worst, limit, got[worstAt], want[worstAt]))
	}
	if maeLimit := band.MAE * peak; mae > maeLimit {
		errs = append(errs, fmt.Errorf("%s: mean abs error %.4f exceeds %.4f — curve drifted as a whole",
			name, mae, maeLimit))
	}
	return errs
}

// CompareCurves checks every run series against the golden file.
func CompareCurves(results map[string]*experiments.Result, g *GoldenCurves, band CurveBand) []error {
	var errs []error
	for _, key := range sortedKeys(results) {
		r := results[key]
		want, ok := g.Curves[key]
		if !ok {
			errs = append(errs, fmt.Errorf("%s: no golden curve recorded — regenerate with -update", key))
			continue
		}
		errs = append(errs, compareSeries(key, r.Normalized, want.Normalized, band)...)
		for _, f := range r.Flows {
			id := strconv.Itoa(f.ID)
			wf, ok := want.Flows[id]
			if !ok {
				errs = append(errs, fmt.Errorf("%s: flow %s missing from golden file", key, id))
				continue
			}
			errs = append(errs, compareSeries(key+"/F"+id, f.GBs, wf, band)...)
		}
	}
	return errs
}

func sortedKeys(m map[string]*experiments.Result) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CheckCurveShapes asserts the figures' QUALITATIVE claims directly on
// fresh runs, independent of the golden file — these are the paper's
// sentences turned into inequalities, with thresholds set from
// measured values with ~25% headroom. The golden bands catch drift;
// these catch a world where the drift was regenerated into the golden
// file without anyone noticing the physics changed.
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
	for _, s := range []string{"1Q", "ITh", "FBICM", "CCFIT", "VOQnet"} {
		schemes8[s] = get("fig8a", s)
	}
	if allNonNil(schemes8) {
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

func allNonNil(m map[string]*experiments.Result) bool {
	//lint:ignore determinism existential check over values; the boolean result is independent of iteration order
	for _, r := range m {
		if r == nil {
			return false
		}
	}
	return true
}

// CheckCurves is the full golden-curve gate: run every figure, check
// the tolerance bands against the embedded golden file, then the
// qualitative shapes. Returned errors are findings; the error return
// is infrastructural (a figure failed to run, no golden file).
func CheckCurves(band CurveBand) ([]error, error) {
	results, err := RunCurves()
	if err != nil {
		return nil, err
	}
	g, err := LoadGoldenCurves()
	if err != nil {
		return nil, err
	}
	findings := CompareCurves(results, g, band)
	findings = append(findings, CheckCurveShapes(results)...)
	return findings, nil
}
