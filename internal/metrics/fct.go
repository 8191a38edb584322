// Flow-completion-time tracking: the first-class datacenter metric.
// Finite flows are registered up front with their size and ideal
// (contention-free store-and-forward) completion time; the Delivered
// hot path accumulates per-flow delivered bytes and stamps the finish
// cycle when the last byte lands. FCTStats then reports slowdown
// (measured FCT / ideal FCT) percentiles by flow-size bucket.
package metrics

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/sim"
)

type fctRec struct {
	size      int64     // flow size in bytes
	start     sim.Cycle // first cycle the flow may inject
	ideal     sim.Cycle // contention-free completion time, >= 1
	delivered int64
	finish    sim.Cycle
	done      bool
}

// RegisterFlow declares a finite flow for FCT tracking: `size` bytes
// starting at `start`, with precomputed ideal completion time `ideal`
// (clamped to 1 cycle). Call before the flow delivers anything, on the
// collector that will observe its deliveries.
func (c *Collector) RegisterFlow(flow int, size int64, start, ideal sim.Cycle) {
	if size <= 0 {
		panic(fmt.Sprintf("metrics: registering flow %d with size %d", flow, size))
	}
	if ideal < 1 {
		ideal = 1
	}
	if c.fct == nil {
		c.fct = make(map[int]*fctRec)
	}
	if _, ok := c.fct[flow]; ok {
		panic(fmt.Sprintf("metrics: flow %d registered twice", flow))
	}
	c.fct[flow] = &fctRec{size: size, start: start, ideal: ideal}
}

// observeFCT is the Delivered hot-path hook: count bytes toward the
// flow's completion and stamp the finish cycle on the last one.
func (c *Collector) observeFCT(flow int, size int, now sim.Cycle) {
	r, ok := c.fct[flow]
	if !ok || r.done {
		return
	}
	r.delivered += int64(size)
	if r.delivered >= r.size {
		r.done = true
		r.finish = now
	}
}

// FCTBucket summarizes completed flows in one size class.
type FCTBucket struct {
	Label    string
	MaxBytes int64 // inclusive upper size bound (MaxInt64 on the last)

	Completed int64
	// Slowdown = measured FCT / ideal contention-free FCT (>= 1 in a
	// correct run). Percentiles are exact order statistics, not
	// histogram bounds.
	MeanSlowdown float64
	P50Slowdown  float64
	P99Slowdown  float64
	MaxSlowdown  float64
	// MeanFCTNS is the mean absolute completion time in nanoseconds.
	MeanFCTNS float64
}

// FCTStats is the full FCT summary: per-size-bucket slowdowns plus the
// overall line. Zero completed flows yield zeroed buckets, never NaN.
type FCTStats struct {
	Registered int64
	Completed  int64
	Incomplete int64 // registered but unfinished at collection time

	Overall FCTBucket
	Buckets []FCTBucket
}

// defaultFCTBuckets are the conventional datacenter size classes:
// short (<=10KB), medium, long, and jumbo flows.
func defaultFCTBuckets() []FCTBucket {
	return []FCTBucket{
		{Label: "<=10KB", MaxBytes: 10_000},
		{Label: "<=100KB", MaxBytes: 100_000},
		{Label: "<=1MB", MaxBytes: 1_000_000},
		{Label: ">1MB", MaxBytes: math.MaxInt64},
	}
}

// FCTStats computes the summary over all registered flows, or nil if
// no flow was ever registered (CBR-only runs stay FCT-free).
func (c *Collector) FCTStats() *FCTStats {
	if len(c.fct) == 0 {
		return nil
	}
	st := &FCTStats{Registered: int64(len(c.fct)), Buckets: defaultFCTBuckets()}
	// Deterministic iteration: collect-then-sort the flow ids.
	ids := make([]int, 0, len(c.fct))
	for id := range c.fct {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	type sample struct {
		slowdown float64
		fctNS    float64
		size     int64
	}
	var samples []sample
	for _, id := range ids {
		r := c.fct[id]
		if !r.done {
			st.Incomplete++
			continue
		}
		st.Completed++
		fct := r.finish - r.start
		if fct < 1 {
			fct = 1
		}
		samples = append(samples, sample{
			slowdown: float64(fct) / float64(r.ideal),
			fctNS:    sim.NSFromCycles(fct),
			size:     r.size,
		})
	}
	fill := func(b *FCTBucket, xs []sample) {
		b.Completed = int64(len(xs))
		if len(xs) == 0 {
			return
		}
		sd := make([]float64, len(xs))
		var sumSD, sumNS float64
		for i, x := range xs {
			sd[i] = x.slowdown
			sumSD += x.slowdown
			sumNS += x.fctNS
		}
		sort.Float64s(sd)
		b.MeanSlowdown = sumSD / float64(len(xs))
		b.P50Slowdown = percentile(sd, 0.50)
		b.P99Slowdown = percentile(sd, 0.99)
		b.MaxSlowdown = sd[len(sd)-1]
		b.MeanFCTNS = sumNS / float64(len(xs))
	}
	fill(&st.Overall, samples)
	st.Overall.Label, st.Overall.MaxBytes = "all", math.MaxInt64
	for i := range st.Buckets {
		b := &st.Buckets[i]
		lo := int64(0)
		if i > 0 {
			lo = st.Buckets[i-1].MaxBytes
		}
		var xs []sample
		for _, x := range samples {
			if x.size > lo && x.size <= b.MaxBytes {
				xs = append(xs, x)
			}
		}
		fill(b, xs)
	}
	return st
}

// percentile returns the exact p-quantile of sorted xs as the
// ceil(p*n)-th order statistic (the value such that at least p of the
// mass is at or below it). xs must be non-empty and sorted.
func percentile(xs []float64, p float64) float64 {
	idx := int(math.Ceil(p*float64(len(xs)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(xs) {
		idx = len(xs) - 1
	}
	return xs[idx]
}
