package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// CDF is an empirical flow-size distribution: a piecewise-linear
// cumulative distribution over sizes in bytes, the form datacenter
// traffic studies publish (the VL2 data-mining curve, for one) and the
// form ns-2/ns-3 generators consume. Sampling is by
// inverse transform with linear interpolation between points, so the
// sampled distribution converges to exactly this curve — which is what
// the KS-style generator tests assert.
type CDF struct {
	Name string
	// Sizes (bytes, ascending) and P (cumulative probability,
	// non-decreasing, ending at 1). Same length; P[0] may be > 0, giving
	// Sizes[0] that point mass.
	Sizes []int64
	P     []float64
}

// NewCDF validates and returns a CDF over the given points.
func NewCDF(name string, sizes []int64, p []float64) (*CDF, error) {
	c := &CDF{Name: name, Sizes: sizes, P: p}
	if err := c.validate(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *CDF) validate() error {
	if len(c.Sizes) == 0 || len(c.Sizes) != len(c.P) {
		return fmt.Errorf("traffic: cdf %q has %d sizes but %d probabilities", c.Name, len(c.Sizes), len(c.P))
	}
	for i := range c.Sizes {
		if c.Sizes[i] < 1 {
			return fmt.Errorf("traffic: cdf %q point %d has size %d < 1 byte", c.Name, i, c.Sizes[i])
		}
		if c.P[i] < 0 || c.P[i] > 1 || math.IsNaN(c.P[i]) {
			return fmt.Errorf("traffic: cdf %q point %d has probability %v outside [0,1]", c.Name, i, c.P[i])
		}
		if i > 0 && (c.Sizes[i] < c.Sizes[i-1] || c.P[i] < c.P[i-1]) {
			return fmt.Errorf("traffic: cdf %q not monotone at point %d", c.Name, i)
		}
	}
	if last := c.P[len(c.P)-1]; last != 1 {
		return fmt.Errorf("traffic: cdf %q ends at probability %v, want 1", c.Name, last)
	}
	return nil
}

// Sample draws one flow size by inverse transform: u ~ U[0,1) is
// mapped through the piecewise-linear inverse CDF. Sizes are at least
// 1 byte.
func (c *CDF) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	// First point at or above u.
	i := sort.Search(len(c.P), func(i int) bool { return c.P[i] >= u })
	if i >= len(c.P) {
		i = len(c.P) - 1
	}
	if i == 0 || c.P[i] == c.P[i-1] {
		return c.Sizes[i]
	}
	// Interpolate within the segment (i-1, i].
	frac := (u - c.P[i-1]) / (c.P[i] - c.P[i-1])
	s := float64(c.Sizes[i-1]) + frac*float64(c.Sizes[i]-c.Sizes[i-1])
	sz := int64(math.Ceil(s))
	if sz < 1 {
		sz = 1
	}
	return sz
}

// At returns the interpolated cumulative probability P(size <= x) —
// the continuous curve Sample draws from, used by the statistical
// generator tests to compute exact KS deviations.
func (c *CDF) At(x int64) float64 {
	if x < c.Sizes[0] {
		return 0
	}
	n := len(c.Sizes)
	if x >= c.Sizes[n-1] {
		return 1
	}
	i := sort.Search(n, func(i int) bool { return c.Sizes[i] > x })
	// c.Sizes[i-1] <= x < c.Sizes[i].
	if c.Sizes[i] == c.Sizes[i-1] {
		return c.P[i]
	}
	frac := float64(x-c.Sizes[i-1]) / float64(c.Sizes[i]-c.Sizes[i-1])
	return c.P[i-1] + frac*(c.P[i]-c.P[i-1])
}

// Mean returns the expected flow size in bytes of the interpolated
// distribution — the number that converts a target offered load into a
// Poisson arrival rate.
func (c *CDF) Mean() float64 {
	mean := c.P[0] * float64(c.Sizes[0])
	for i := 1; i < len(c.P); i++ {
		// Mass P[i]-P[i-1] spread uniformly over [Sizes[i-1], Sizes[i]].
		mean += (c.P[i] - c.P[i-1]) * float64(c.Sizes[i-1]+c.Sizes[i]) / 2
	}
	return mean
}

// DataMiningCDF is the VL2 data-mining workload (Greenberg et al.,
// SIGCOMM 2009, as tabulated by the CONGA/ns-3 generators): about half
// the flows are tiny control messages, with a tail out to ~700 KB.
// Mean ~= 5 KB, so a given offered load produces many concurrent
// flows — the CAM/CFQ stress regime.
func DataMiningCDF() *CDF {
	c, err := NewCDF("datamining",
		[]int64{1, 2, 3, 7, 267, 2_107, 66_667, 666_667},
		[]float64{0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99, 1})
	if err != nil {
		panic(err) // embedded tables ship with their validator
	}
	return c
}
