package metrics

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/sim"
)

// Histogram is a log-bucketed latency histogram with percentile
// queries. Buckets grow geometrically (factor 2 from a 1-cycle base),
// which keeps memory constant while covering the ns-to-ms range the
// simulator produces.
type Histogram struct {
	counts []int64
	total  int64
	min    sim.Cycle
	max    sim.Cycle
}

const histBuckets = 40 // 2^40 cycles ≈ 7.8 h of simulated time

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, histBuckets), min: math.MaxInt64}
}

func bucketOf(v sim.Cycle) int {
	if v < 1 {
		return 0
	}
	b := bits.Len64(uint64(v))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Observe records one latency sample (in cycles).
func (h *Histogram) Observe(v sim.Cycle) {
	if v < 0 {
		panic("metrics: negative latency observed")
	}
	h.counts[bucketOf(v)]++
	h.total++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of samples.
func (h *Histogram) Count() int64 { return h.total }

// Percentile returns an upper bound on the p-quantile (0 < p <= 1) in
// cycles: the top of the bucket holding the p-th sample, clamped to
// the observed extremes. Returns 0 for an empty histogram.
func (h *Histogram) Percentile(p float64) sim.Cycle {
	if h.total == 0 {
		return 0
	}
	if p <= 0 || p > 1 {
		panic(fmt.Sprintf("metrics: percentile %v outside (0,1]", p))
	}
	rank := int64(math.Ceil(p * float64(h.total)))
	var seen int64
	for b, c := range h.counts {
		seen += c
		if seen >= rank {
			top := sim.Cycle(1) << uint(b)
			if top > h.max {
				top = h.max
			}
			if top < h.min {
				top = h.min
			}
			return top
		}
	}
	return h.max
}

// PercentileNS returns Percentile in nanoseconds.
func (h *Histogram) PercentileNS(p float64) float64 {
	return sim.NSFromCycles(h.Percentile(p))
}

// MinNS returns the smallest observed latency in nanoseconds.
func (h *Histogram) MinNS() float64 {
	if h.total == 0 {
		return 0
	}
	return sim.NSFromCycles(h.min)
}

// MaxNS returns the largest observed latency in nanoseconds.
func (h *Histogram) MaxNS() float64 {
	if h.total == 0 {
		return 0
	}
	return sim.NSFromCycles(h.max)
}
