package traffic

import (
	"math"
	"math/rand"
	"testing"
)

func TestCDFValidation(t *testing.T) {
	cases := map[string]struct {
		sizes []int64
		p     []float64
	}{
		"empty":             {nil, nil},
		"length mismatch":   {[]int64{1, 2}, []float64{1}},
		"size below 1":      {[]int64{0, 2}, []float64{0.5, 1}},
		"p above 1":         {[]int64{1, 2}, []float64{0.5, 1.5}},
		"p negative":        {[]int64{1, 2}, []float64{-0.1, 1}},
		"p NaN":             {[]int64{1, 2}, []float64{math.NaN(), 1}},
		"sizes not sorted":  {[]int64{5, 2}, []float64{0.5, 1}},
		"p not monotone":    {[]int64{1, 2, 3}, []float64{0.5, 0.4, 1}},
		"does not end at 1": {[]int64{1, 2}, []float64{0.5, 0.9}},
	}
	for name, c := range cases {
		if _, err := NewCDF(name, c.sizes, c.p); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewCDF("ok", []int64{100, 1000}, []float64{0.25, 1}); err != nil {
		t.Fatalf("valid cdf rejected: %v", err)
	}
}

func TestCDFMean(t *testing.T) {
	// Point mass 0.25 at 100, then 0.75 spread uniformly over [100,1000]:
	// mean = 0.25*100 + 0.75*550 = 437.5.
	c, err := NewCDF("t", []int64{100, 1000}, []float64{0.25, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Mean(); math.Abs(got-437.5) > 1e-9 {
		t.Fatalf("mean %v, want 437.5", got)
	}
	// The embedded table: sanity-check the documented scale.
	if m := DataMiningCDF().Mean(); m < 3e3 || m > 8e3 {
		t.Fatalf("data-mining mean %v outside the expected ~5KB scale", m)
	}
}

func TestCDFAt(t *testing.T) {
	c, err := NewCDF("t", []int64{100, 1000}, []float64{0.25, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		x    int64
		want float64
	}{
		{50, 0}, {100, 0.25}, {550, 0.625}, {1000, 1}, {5000, 1},
	} {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("At(%d) = %v, want %v", tc.x, got, tc.want)
		}
	}
}

// ksDeviation samples n sizes at a fixed seed and returns the largest
// absolute gap between the empirical CDF and the configured curve,
// evaluated at the curve's own breakpoints. Because Sample draws a
// continuous interpolated value and rounds up, P(sample <= s) equals
// the continuous CDF exactly at every integer breakpoint s, so the
// only gap left is sampling noise (~1.36/sqrt(n) at 95%).
func ksDeviation(c *CDF, n int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, len(c.Sizes))
	for i := 0; i < n; i++ {
		s := c.Sample(rng)
		for j, brk := range c.Sizes {
			if s <= brk {
				counts[j]++
			}
		}
	}
	var dev float64
	for j := range c.Sizes {
		d := math.Abs(float64(counts[j])/float64(n) - c.At(c.Sizes[j]))
		if d > dev {
			dev = d
		}
	}
	return dev
}

func TestSampleMatchesCDF(t *testing.T) {
	// A fixed seed makes this an exact regression check, not flaky
	// statistics: the bound 0.015 is ~2.4x the 50k-sample KS 95% radius.
	const n, bound = 50_000, 0.015
	if dev := ksDeviation(DataMiningCDF(), n, 12345); dev > bound {
		t.Errorf("KS deviation %.4f exceeds %.3f", dev, bound)
	}
}

func TestSampleRangeAndMean(t *testing.T) {
	// Every sample stays inside the configured support, and the sample
	// mean lands near the analytic mean (data-mining's tail is wide, so
	// the tolerance is loose).
	rng := rand.New(rand.NewSource(99))
	c := DataMiningCDF()
	const n = 200_000
	var sum float64
	for i := 0; i < n; i++ {
		s := c.Sample(rng)
		if s < 1 || s > c.Sizes[len(c.Sizes)-1] {
			t.Fatalf("sample %d outside support", s)
		}
		sum += float64(s)
	}
	mean, want := sum/n, c.Mean()
	if math.Abs(mean-want)/want > 0.10 {
		t.Fatalf("sample mean %.0f vs analytic %.0f (fixed seed)", mean, want)
	}
}
