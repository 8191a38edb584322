// Per-flow records and flow-completion time, the first-class datacenter
// metric. network.AddFlows declares every flow before the run, finite
// ones with their size and ideal (contention-free store-and-forward)
// completion time; the Delivered hot path finds the flow's one record
// with one lookup, adds to its bins and stamps the finish cycle when the
// last byte lands. FCTStats then reports slowdown (measured FCT / ideal
// FCT) percentiles by flow-size bucket.
package metrics

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/sim"
)

// flowRec is everything the collector keeps about one flow.
type flowRec struct {
	id    int
	first int     // bin of bins[0]: 0, or a finite flow's first delivered bin
	bins  []int64 // delivered bytes per bin from first; nil until a delivery

	// FCT tracking of a finite flow (size > 0): size bytes that may
	// start at cycle start, ideal the contention-free completion (>= 1).
	size, delivered      int64
	start, ideal, finish sim.Cycle
	done                 bool
}

// Expect sizes the collector for n flows: one slab of records and one
// index, before they are declared.
func (c *Collector) Expect(n int) {
	c.recs = slices.Grow(c.recs, n)
	if c.index == nil {
		c.index = make(map[int]int32, n)
	}
}

// Declare gives flow id, active until end, its record before it delivers
// anything. bytes > 0 declares a finite flow tracked for FCT: bytes from
// cycle start, with contention-free completion time ideal (clamped to 1
// cycle); 0 declares a CBR flow. Two finite flows may not share an id.
// The latest end declared is the run's horizon: the total series, and
// each CBR flow's bins at its first delivery, get room for the bins before
// it at once, rounded up to a power of two so that a run past the horizon
// grows them at the bins doubling from empty would.
func (c *Collector) Declare(id int, bytes int64, start, end, ideal sim.Cycle) error {
	c.roomBins = max(c.roomBins, 1<<bits.Len(uint((end-1)/c.binCycles)))
	r := c.record(id)
	if bytes <= 0 {
		return nil
	}
	if r.size > 0 {
		return fmt.Errorf("metrics: finite flows share id %d; FCT tracking needs unique ids", id)
	}
	r.size, r.start, r.ideal = bytes, start, max(ideal, 1)
	return nil
}

// record returns flow id's record, appending one for an undeclared flow.
func (c *Collector) record(id int) *flowRec {
	i, ok := c.index[id]
	if !ok {
		if c.index == nil {
			c.index = make(map[int]int32)
		}
		i = int32(len(c.recs))
		c.index[id] = i
		c.recs = append(c.recs, flowRec{id: id})
	}
	return &c.recs[i]
}

// deliver adds size bytes delivered in bin at cycle now (never earlier
// than the last delivery). A finite flow's bins grow from its first
// delivered bin; a CBR flow's get room to the horizon at once, since it
// delivers in every bin and, like Case #4's bursts, past its own End.
func (r *flowRec) deliver(size, bin int, now sim.Cycle, room int) {
	if r.size > 0 {
		if r.bins == nil {
			r.first = bin
		}
		room = 0
	}
	r.bins = extend(r.bins, bin-r.first, room)
	r.bins[bin-r.first] += int64(size)
	if r.size > 0 && !r.done {
		if r.delivered += int64(size); r.delivered >= r.size {
			r.done, r.finish = true, now
		}
	}
}

// extend returns s long enough to index i; a nil s gets room for want
// entries at once.
func extend(s []int64, i, want int) []int64 {
	if s == nil {
		s = make([]int64, 0, max(want, i+1))
	}
	for len(s) <= i {
		s = append(s, 0)
	}
	return s
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

// FCTStats computes the summary over all finite flows, or nil if none
// was declared (CBR-only runs stay FCT-free).
func (c *Collector) FCTStats() *FCTStats {
	st := &FCTStats{Buckets: defaultFCTBuckets()}
	type sample struct {
		id              int
		slowdown, fctNS float64
		size            int64
	}
	samples := make([]sample, 0, len(c.recs))
	for i := range c.recs {
		switch r := &c.recs[i]; {
		case r.size == 0:
		case !r.done:
			st.Incomplete++
		default:
			fct := max(r.finish-r.start, 1)
			samples = append(samples, sample{r.id, float64(fct) / float64(r.ideal), sim.NSFromCycles(fct), r.size})
		}
	}
	st.Completed = int64(len(samples))
	if st.Registered = st.Completed + st.Incomplete; st.Registered == 0 {
		return nil
	}
	// Means sum in ascending flow id order, which fixes their last bit.
	slices.SortFunc(samples, func(a, b sample) int { return cmp.Compare(a.id, b.id) })
	sd := make([]float64, 0, len(samples))
	fill := func(b *FCTBucket, lo int64) {
		var sumSD, sumNS float64
		sd = sd[:0]
		for _, x := range samples {
			if x.size > lo && x.size <= b.MaxBytes {
				sd = append(sd, x.slowdown)
				sumSD += x.slowdown
				sumNS += x.fctNS
			}
		}
		if b.Completed = int64(len(sd)); len(sd) == 0 {
			return
		}
		slices.Sort(sd)
		b.MeanSlowdown = sumSD / float64(len(sd))
		b.P50Slowdown = percentile(sd, 0.50)
		b.P99Slowdown = percentile(sd, 0.99)
		b.MaxSlowdown = sd[len(sd)-1]
		b.MeanFCTNS = sumNS / float64(len(sd))
	}
	st.Overall.Label, st.Overall.MaxBytes = "all", math.MaxInt64
	fill(&st.Overall, 0)
	lo := int64(0)
	for i := range st.Buckets {
		fill(&st.Buckets[i], lo)
		lo = st.Buckets[i].MaxBytes
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
