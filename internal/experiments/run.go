package experiments

import (
	"fmt"
	"math"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/sim"
)

// FlowSeries is one flow's bandwidth-versus-time series.
type FlowSeries struct {
	ID  int
	GBs []float64
}

// Summary condenses a run for tables and EXPERIMENTS.md.
type Summary struct {
	DeliveredPkts  int64
	DeliveredBytes int64
	AvgLatencyNS   float64
	MaxLatencyNS   float64
	P50LatencyNS   float64
	P99LatencyNS   float64
	BECNs          int
	Marked         int
	Detections     int
	LazyAllocs     int
	CAMExhausted   int
	Deallocs       int
	MaxCFQsInUse   int
	StopsSent      int
	// MeanNormalized is the run-average normalized throughput.
	MeanNormalized float64
	// FCT accounting (populated only when the run registered finite
	// flows; omitted from JSON otherwise, so CBR-only results — and
	// their pinned golden digests — are unchanged by the FCT axis).
	FCTCompleted   int64   `json:",omitempty"`
	FCTIncomplete  int64   `json:",omitempty"`
	FCTSlowdownP50 float64 `json:",omitempty"`
	FCTSlowdownP99 float64 `json:",omitempty"`
}

// Result is one (experiment, scheme) run.
type Result struct {
	ExpID  string
	Scheme string
	Seed   int64
	BinMS  float64
	// TimeMS labels each bin by its start time.
	TimeMS []float64
	// Normalized network throughput per bin (fraction of aggregate
	// endpoint capacity) and the same series in GB/s.
	Normalized []float64
	TotalGBs   []float64
	// Flows is populated for FlowBandwidth experiments.
	Flows []FlowSeries
	// FCT carries flow-completion-time stats when the run registered
	// finite flows (datacenter workloads); nil for pure CBR runs.
	FCT     *metrics.FCTStats `json:",omitempty"`
	Summary Summary
}

// Run executes one experiment under one scheme on the serial engine,
// audited: an invariant violation mid-run or in the terminal audit is
// the returned error, never a plausible Result.
func Run(exp Experiment, scheme string, seed int64) (*Result, error) {
	if exp.Kind == ConfigTable {
		return nil, fmt.Errorf("experiments: %s is a static table; use RenderTable1", exp.ID)
	}
	p, err := SchemeByName(scheme)
	if err != nil {
		return nil, err
	}
	n, err := exp.Build(p, seed, exp.Bin, exp.Duration, BuildOpts{})
	if err != nil {
		return nil, err
	}
	if err := n.RunAudited(exp.Duration); err != nil {
		return nil, err
	}
	return Harvest(exp, scheme, seed, n), nil
}

// Harvest extracts a Result from a network that has finished running
// an experiment (exported for custom/ablation runs that bypass Run).
func Harvest(exp Experiment, scheme string, seed int64, n *network.Network) *Result {
	bins := int(exp.Duration / exp.Bin)
	r := &Result{
		ExpID:      exp.ID,
		Scheme:     scheme,
		Seed:       seed,
		BinMS:      sim.MSFromCycles(exp.Bin),
		Normalized: n.Collector.NormalizedSeries(bins),
		TotalGBs:   n.Collector.TotalSeries(bins),
	}
	r.TimeMS = make([]float64, len(r.Normalized))
	for i := range r.TimeMS {
		r.TimeMS[i] = float64(i) * r.BinMS
	}
	for _, id := range exp.FlowIDs {
		r.Flows = append(r.Flows, FlowSeries{ID: id, GBs: n.Collector.FlowSeries(id, bins)})
	}

	s := &r.Summary
	s.DeliveredPkts = n.Collector.DeliveredPkts
	s.DeliveredBytes = n.Collector.DeliveredBytes
	// finite guards the latency summary against zero-delivery runs (a
	// pathological scheme, a paused source, a scripted fault): tables
	// and manifests must read 0, never NaN or ±Inf.
	s.AvgLatencyNS = finite(n.Collector.AvgLatencyNS())
	s.MaxLatencyNS = finite(n.Collector.MaxLatencyNS())
	s.P50LatencyNS = finite(n.Collector.LatencyPercentileNS(0.50))
	s.P99LatencyNS = finite(n.Collector.LatencyPercentileNS(0.99))
	for _, nd := range n.Nodes {
		s.BECNs += nd.Stats().BECNsReceived
	}
	for _, sw := range n.Switches {
		s.Marked += sw.Stats().Marked
	}
	ds := n.DiscStatsSum()
	s.Detections = ds.Detections
	s.LazyAllocs = ds.LazyAllocs
	s.CAMExhausted = ds.CAMExhausted
	s.Deallocs = ds.Deallocs
	s.MaxCFQsInUse = ds.MaxCFQsInUse
	s.StopsSent = ds.StopsSent
	for _, v := range r.Normalized {
		s.MeanNormalized += v
	}
	if len(r.Normalized) > 0 {
		s.MeanNormalized /= float64(len(r.Normalized))
	}
	if fct := n.Collector.FCTStats(); fct != nil {
		r.FCT = fct
		s.FCTCompleted = fct.Completed
		s.FCTIncomplete = fct.Incomplete
		s.FCTSlowdownP50 = finite(fct.Overall.P50Slowdown)
		s.FCTSlowdownP99 = finite(fct.Overall.P99Slowdown)
	}
	return r
}

// finite maps NaN and ±Inf to 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// SteadyMean averages a series over its final fraction (e.g. 0.5 for
// the second half) — used by shape checks and EXPERIMENTS.md.
func SteadyMean(series []float64, finalFraction float64) float64 {
	if len(series) == 0 {
		return 0
	}
	from := int(float64(len(series)) * (1 - finalFraction))
	if from >= len(series) {
		from = len(series) - 1
	}
	sum := 0.0
	for _, v := range series[from:] {
		sum += v
	}
	return sum / float64(len(series)-from)
}

// RecoveryTime returns the time (in ms, bin-aligned) of the first bin
// at or after fromMS where the series reaches `level` and stays there
// for `hold` consecutive bins — the reaction-time metric behind the
// paper's \"fast reaction to congestion\" claim. It returns -1 when the
// series never recovers.
func RecoveryTime(r *Result, series []float64, fromMS, level float64, hold int) float64 {
	if hold < 1 {
		hold = 1
	}
	run := 0
	for i, t := range r.TimeMS {
		if t < fromMS || i >= len(series) {
			continue
		}
		if series[i] >= level {
			run++
			if run >= hold {
				return r.TimeMS[i-hold+1]
			}
		} else {
			run = 0
		}
	}
	return -1
}

// WindowMean averages series bins whose start time lies in
// [fromMS, toMS).
func WindowMean(r *Result, series []float64, fromMS, toMS float64) float64 {
	sum, cnt := 0.0, 0
	for i, t := range r.TimeMS {
		if i < len(series) && t >= fromMS && t < toMS {
			sum += series[i]
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
