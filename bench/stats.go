package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func minMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return lo, hi
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the default "exclusive" method),
// because that is the rule the acceptance driver applies to the ten
// runs of a workload. Fewer than two values have no spread: both
// quartiles collapse onto the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return median(xs), median(xs)
	}
	at := func(i int) float64 { // i-th of 4 cut points
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside [0,4] when j was clamped: Python extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// hiLadder is the set of tail percentiles a distribution may report.
var hiLadder = []float64{50, 90, 95, 99, 99.9, 99.99}

// hiPercentile applies the reporting rule for distributions: the
// highest percentile of the ladder that still has at least ten samples
// beyond it. It returns the percentile, its value (nearest-rank) and
// the sample count; with fewer than 20 samples no percentile qualifies
// and the median is returned with pct = 50.
func hiPercentile(xs []float64) (pct, value float64, n int) {
	n = len(xs)
	if n == 0 {
		return 50, 0, 0
	}
	s := sorted(xs)
	// rank is the nearest-rank index of percentile p (1-based); the
	// epsilon keeps 99.9% of 10000 at 9990 despite binary fractions.
	rank := func(p float64) int { return max(1, int(math.Ceil(p/100*float64(n)-1e-9))) }
	pct = 50
	for _, p := range hiLadder {
		if n-rank(p) >= 10 {
			pct = p
		}
	}
	if pct == 50 {
		return 50, median(xs), n
	}
	return pct, s[rank(pct)-1], n
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
