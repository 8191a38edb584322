package main

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// compare reads two result files (base first) and judges every
// (end-to-end metric, workload) pair by the bounds in metrics.go.
//
//	same        medians within the bound of each other
//	better      new median better than base by more than the bound
//	worse       new median worse than base by more than the bound
//	unresolved  either side's run-to-run spread exceeds the bound and the
//	            two ranges overlap: the runs cannot tell
//
// model.* metrics must be exactly equal; other per-layer metrics are
// informational and flagged when they move by more than 25%. The exit
// status is non-zero on any `worse`, any model.* difference, or any
// failed operation on the new side.

type verdictKind string

const (
	vSame       verdictKind = "same"
	vBetter     verdictKind = "better"
	vWorse      verdictKind = "worse"
	vUnresolved verdictKind = "unresolved"
)

const layerInfoBand = 0.25

// judge compares base runs a with new runs b of one metric.
func judge(d metricDef, a, b []float64) verdictKind {
	ma, mb := median(a), median(b)
	if ma == 0 {
		if mb == 0 {
			return vSame
		}
		return vUnresolved
	}
	loA, hiA := minMax(a)
	loB, hiB := minMax(b)
	spread := math.Max((hiA-loA)/math.Abs(ma), (hiB-loB)/math.Abs(mb))
	overlap := loA <= hiB && loB <= hiA
	if spread > d.Bound && overlap && (len(a) > 1 || len(b) > 1) {
		return vUnresolved
	}
	rel := (mb - ma) / math.Abs(ma) // > 0: the new side reads higher
	if d.Better == "higher" {
		rel = -rel
	}
	switch {
	case rel > d.Bound:
		return vWorse
	case rel < -d.Bound:
		return vBetter
	}
	return vSame
}

// samples groups a file's runs: workload -> metric -> values, for one
// trace mode.
func samples(f *resultFile, trace int) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range f.Runs {
		if r.Trace != trace {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v.Value)
		}
	}
	return out
}

// pairsWon counts, over runs paired by position, how often the new side
// read better, ties counting for neither.
func pairsWon(d metricDef, a, b []float64) (won, pairs int) {
	if len(a) != len(b) {
		return 0, 0
	}
	for i := range a {
		if a[i] == b[i] {
			continue
		}
		if (b[i] < a[i]) == (d.Better == "lower") {
			won++
		}
	}
	return won, len(a)
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare BASE.json NEW.json")
		return 2
	}
	base, err := loadResults(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	next, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	bad := compareFiles(stdout, base, next)
	if bad > 0 {
		fmt.Fprintf(stdout, "FAIL: %d finding(s)\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "OK")
	return 0
}

// compareFiles prints the comparison and returns how many findings fail
// it.
func compareFiles(w io.Writer, base, next *resultFile) (bad int) {
	fmt.Fprintf(w, "base: %s (%d runs)   new: %s (%d runs)\n", base.Root, len(base.Runs), next.Root, len(next.Runs))
	for _, r := range next.Runs {
		if r.Failed > 0 || !r.Correct {
			fmt.Fprintf(w, "new side: %s seed=%d trace=%d failed %d of %d (golden=%s)\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted, r.Golden)
			bad++
		}
	}

	a, b := samples(base, 0), samples(next, 0)
	fmt.Fprintf(w, "\n%-18s %-18s %12s %12s  %-22s %-8s %-22s %s\n", "workload", "end-to-end", "base", "new", "new/base", "bound", "quartiles new", "verdict")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := a[wl.name][d.Name], b[wl.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			v := judge(d, xa, xb)
			if v == vWorse {
				bad++
			}
			ma, mb := median(xa), median(xb)
			q1, q3 := quartiles(xb)
			line := fmt.Sprintf("%-18s %-18s %12.6g %12.6g  %-22s %-8s %-22s %s",
				wl.name, d.Name, ma, mb, ratio(mb, ma, d.Unit), fmt.Sprintf("%g%%", d.Bound*100),
				fmt.Sprintf("[%.5g, %.5g] n=%d", q1, q3, len(xb)), v)
			if won, pairs := pairsWon(d, xa, xb); pairs > 1 {
				line += fmt.Sprintf("  pairs won %d/%d", won, pairs)
			}
			fmt.Fprintln(w, line)
		}
	}

	for _, diff := range modelDiffs(base, next) {
		fmt.Fprintln(w, diff)
		bad++
	}

	a, b = samples(base, 1), samples(next, 1)
	header := false
	for _, wl := range workloads {
		for _, d := range perLayer {
			xa, xb := a[wl.name][d.Name], b[wl.name][d.Name]
			if len(xa) == 0 || len(xb) == 0 || strings.HasPrefix(d.Name, "model.") {
				continue
			}
			ma, mb := median(xa), median(xb)
			note := ""
			switch {
			case ma != 0 && math.Abs(mb-ma)/math.Abs(ma) > layerInfoBand:
				note = fmt.Sprintf("moved more than %g%% (informational)", layerInfoBand*100)
			case ma == 0 && mb != 0:
				note = "moved off zero (informational)"
			default:
				continue
			}
			if !header {
				fmt.Fprintf(w, "\n%-18s %-34s %14s %14s  %s\n", "workload", "per-layer", "base", "new", "new/base")
				header = true
			}
			fmt.Fprintf(w, "%-18s %-34s %14.6g %14.6g  %-22s %s\n", wl.name, d.Name, ma, mb, ratio(mb, ma, d.Unit), note)
		}
	}
	return bad
}

// modelDiffs checks that every model.* metric reads exactly the same in
// every traced run of one (workload, seed), across both files. A
// simulator-only change must leave them bit-identical.
func modelDiffs(base, next *resultFile) []string {
	first := map[string]float64{}
	var diffs []string
	for _, f := range []*resultFile{base, next} {
		for _, r := range f.Runs {
			if r.Trace != 1 {
				continue
			}
			for _, name := range sortedKeys(r.Metrics) {
				if !strings.HasPrefix(name, "model.") {
					continue
				}
				key := fmt.Sprintf("%s seed=%d %s", r.Workload, r.Seed, name)
				v := r.Metrics[name].Value
				if want, seen := first[key]; !seen {
					first[key] = v
				} else if v != want {
					diffs = append(diffs, fmt.Sprintf("%s: %v vs %v - model.* must repeat exactly", key, want, v))
				}
			}
		}
	}
	return diffs
}

// ratio renders new/base with its base, as every ratio must be given.
func ratio(next, base float64, unit string) string {
	if base == 0 {
		return fmt.Sprintf("n/a (base 0 %s)", unit)
	}
	return fmt.Sprintf("%.4fx of %.5g %s", next/base, base, unit)
}
