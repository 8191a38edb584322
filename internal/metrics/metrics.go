// Package metrics collects the two measurements the paper's evaluation
// is built on (Section IV-A): per-flow bandwidth versus time (Figs. 9
// and 10) and overall network throughput versus time (Figs. 7 and 8),
// plus latency and packet accounting used by tests and diagnostics.
package metrics

import (
	"fmt"
	"sort"

	"repro/internal/pkt"
	"repro/internal/sim"
)

// Collector accumulates time-binned delivery statistics. Register its
// Delivered method as every node's deliver hook and Injected from the
// traffic generator.
type Collector struct {
	binCycles    sim.Cycle
	numEndpoints int
	linkBPC      int

	// One record per flow (fct.go): Declare fills one slab sized by
	// Expect, and a delivery from an undeclared flow appends its own.
	recs      []flowRec
	index     map[int]int32 // flow id -> recs index
	roomBins  int           // see Declare
	totalBins []int64

	InjectedPkts   int64
	InjectedBytes  int64
	DeliveredPkts  int64
	DeliveredBytes int64

	latencySum  int64      // cycles
	latencyHist *Histogram // counts the samples and keeps the maximum
}

// New builds a collector. binCycles is the time-bin width; linkBPC the
// endpoint link bandwidth used for normalisation.
func New(binCycles sim.Cycle, numEndpoints, linkBPC int) *Collector {
	if binCycles <= 0 || numEndpoints <= 0 || linkBPC <= 0 {
		panic("metrics: invalid collector parameters")
	}
	return &Collector{
		binCycles:    binCycles,
		numEndpoints: numEndpoints,
		linkBPC:      linkBPC,
		latencyHist:  NewHistogram(),
	}
}

// BinCycles returns the bin width in cycles.
func (c *Collector) BinCycles() sim.Cycle { return c.binCycles }

// BinMS returns the bin width in milliseconds.
func (c *Collector) BinMS() float64 { return sim.MSFromCycles(c.binCycles) }

// Injected records a packet entering the network at its source.
func (c *Collector) Injected(p *pkt.Packet) {
	c.InjectedPkts++
	c.InjectedBytes += int64(p.Size)
}

// Delivered records a sink delivery; it implements endnode.DeliverHook.
func (c *Collector) Delivered(p *pkt.Packet, now sim.Cycle) {
	c.DeliveredPkts++
	c.DeliveredBytes += int64(p.Size)
	bin := int(now / c.binCycles)
	c.totalBins = extend(c.totalBins, bin, c.roomBins)
	c.totalBins[bin] += int64(p.Size)
	if p.Flow >= 0 {
		c.record(p.Flow).deliver(p.Size, bin, now, c.roomBins)
	}
	lat := now - p.Injected
	c.latencySum += int64(lat)
	c.latencyHist.Observe(lat)
}

// gbPerSec converts bytes-per-bin to GB/s.
func (c *Collector) gbPerSec(bytes int64) float64 {
	seconds := sim.NSFromCycles(c.binCycles) / 1e9
	return float64(bytes) / seconds / 1e9
}

// FlowSeries returns flow id's bandwidth in GB/s per bin, padded to
// `bins` entries (pass 0 to use the natural length).
func (c *Collector) FlowSeries(flow, bins int) []float64 {
	if i, ok := c.index[flow]; ok {
		return c.series(c.recs[i].first, c.recs[i].bins, bins)
	}
	return c.series(0, nil, bins)
}

// FlowBytes returns the bytes flow id delivered.
func (c *Collector) FlowBytes(flow int) (sum int64) {
	if i, ok := c.index[flow]; ok {
		for _, b := range c.recs[i].bins {
			sum += b
		}
	}
	return sum
}

// TotalSeries returns aggregate delivered bandwidth in GB/s per bin.
func (c *Collector) TotalSeries(bins int) []float64 {
	return c.series(0, c.totalBins, bins)
}

// Flows returns the ids of all flows that delivered at least one
// packet, in ascending order.
func (c *Collector) Flows() []int {
	ids := make([]int, 0, len(c.recs))
	for i := range c.recs {
		if c.recs[i].bins != nil {
			ids = append(ids, c.recs[i].id)
		}
	}
	sort.Ints(ids)
	return ids
}

// NormalizedSeries returns network throughput per bin as a fraction of
// the aggregate endpoint reception capacity (numEndpoints x link BW) —
// the paper's "network efficiency when normalized".
func (c *Collector) NormalizedSeries(bins int) []float64 {
	out := c.TotalSeries(bins)
	cap := float64(c.numEndpoints) * float64(c.linkBPC) / sim.CycleNS // GB/s: B/cyc / (ns/cyc) = GB/s
	for i := range out {
		out[i] /= cap
	}
	return out
}

// series converts bins that start at bin first, zero before and padded
// to want entries.
func (c *Collector) series(first int, bins []int64, want int) []float64 {
	out := make([]float64, max(first+len(bins), want))
	for i, b := range bins {
		out[first+i] = c.gbPerSec(b)
	}
	return out
}

// AvgLatencyNS returns the mean sink latency (injection to delivery).
func (c *Collector) AvgLatencyNS() float64 {
	n := c.latencyHist.Count()
	if n == 0 {
		return 0
	}
	return sim.NSFromCycles(sim.Cycle(c.latencySum / n))
}

// MaxLatencyNS returns the worst observed latency.
func (c *Collector) MaxLatencyNS() float64 { return c.latencyHist.MaxNS() }

// LatencyPercentileNS returns an upper bound on the p-quantile of sink
// latency in nanoseconds (log-bucketed; see Histogram).
func (c *Collector) LatencyPercentileNS(p float64) float64 {
	return c.latencyHist.PercentileNS(p)
}

// MeanFlowBandwidth returns a flow's average GB/s over [fromBin, toBin).
func (c *Collector) MeanFlowBandwidth(flow, fromBin, toBin int) float64 {
	s := c.FlowSeries(flow, toBin)
	if fromBin < 0 || fromBin >= toBin || toBin > len(s) {
		panic(fmt.Sprintf("metrics: bad bin range [%d,%d) of %d", fromBin, toBin, len(s)))
	}
	sum := 0.0
	for _, v := range s[fromBin:toBin] {
		sum += v
	}
	return sum / float64(toBin-fromBin)
}

// JainIndex computes Jain's fairness index over a set of values:
// (sum x)^2 / (n * sum x^2); 1.0 is perfectly fair.
func JainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}
