package experiments

import (
	"fmt"
	"io"
	"math"
)

// Replication is the multi-seed statistical summary of one
// (experiment, scheme) pair: mean and sample standard deviation of the
// headline metrics across independent seeds, plus the per-bin mean
// series. Single-seed results are exact re-runs (the simulator is
// deterministic per seed); replications quantify how much the figures
// depend on the random streams (uniform destinations, marking coins).
type Replication struct {
	ExpID  string
	Scheme string
	Seeds  []int64

	// MeanNormalized / StdNormalized summarise the run-mean normalized
	// throughput across seeds.
	MeanNormalized float64
	StdNormalized  float64
	// MeanDelivered / StdDelivered summarise delivered packet counts.
	MeanDelivered float64
	StdDelivered  float64
	// SeriesMean is the per-bin mean of the normalized series.
	SeriesMean []float64
	// HasFCT marks replications whose runs carry FCT stats; the FCT
	// fields below summarise overall slowdown percentiles across seeds.
	HasFCT     bool
	MeanFCTP50 float64
	StdFCTP50  float64
	MeanFCTP99 float64
	StdFCTP99  float64
	// Results keeps the raw per-seed results.
	Results []*Result
}

// Aggregate builds the replication statistics from already-computed
// per-seed results — the one mean±sd path: the runner-based CLIs
// compute the per-seed results in parallel and aggregate afterwards.
func Aggregate(exp Experiment, scheme string, results []*Result) (*Replication, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("experiments: Aggregate needs at least one result")
	}
	rep := &Replication{ExpID: exp.ID, Scheme: scheme}
	var norm, del []float64
	for _, r := range results {
		if r == nil {
			return nil, fmt.Errorf("experiments: Aggregate got a nil result for %s/%s", exp.ID, scheme)
		}
		if r.ExpID != exp.ID || r.Scheme != scheme {
			return nil, fmt.Errorf("experiments: Aggregate mixes %s/%s into %s/%s",
				r.ExpID, r.Scheme, exp.ID, scheme)
		}
		rep.Seeds = append(rep.Seeds, r.Seed)
		rep.Results = append(rep.Results, r)
		norm = append(norm, r.Summary.MeanNormalized)
		del = append(del, float64(r.Summary.DeliveredPkts))
		if rep.SeriesMean == nil {
			rep.SeriesMean = make([]float64, len(r.Normalized))
		}
		for i, v := range r.Normalized {
			if i < len(rep.SeriesMean) {
				rep.SeriesMean[i] += v
			}
		}
	}
	for i := range rep.SeriesMean {
		rep.SeriesMean[i] /= float64(len(results))
	}
	rep.MeanNormalized, rep.StdNormalized = meanStd(norm)
	rep.MeanDelivered, rep.StdDelivered = meanStd(del)
	var p50, p99 []float64
	for _, r := range rep.Results {
		if r.FCT != nil {
			p50 = append(p50, r.Summary.FCTSlowdownP50)
			p99 = append(p99, r.Summary.FCTSlowdownP99)
		}
	}
	if len(p50) > 0 {
		rep.HasFCT = true
		rep.MeanFCTP50, rep.StdFCTP50 = meanStd(p50)
		rep.MeanFCTP99, rep.StdFCTP99 = meanStd(p99)
	}
	return rep, nil
}

// meanStd returns the mean and the sample standard deviation, with
// 0,0 for an empty sample — a campaign whose runs all delivered
// nothing must aggregate to zeros, not NaN.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if len(xs) < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(ss / (n - 1))
}

// RenderReplications prints a replication table: one row per scheme
// with mean ± stddev across seeds.
func RenderReplications(w io.Writer, exp Experiment, reps []*Replication) {
	hasFCT := false
	for _, r := range reps {
		if r.HasFCT {
			hasFCT = true
		}
	}
	fmt.Fprintf(w, "%s — %d seeds per scheme\n", exp.Title, seedCount(reps))
	if hasFCT {
		fmt.Fprintf(w, "%-8s %16s %20s %16s %16s\n", "scheme", "norm (mean±sd)", "delivered (mean±sd)", "fct p50 (±sd)", "fct p99 (±sd)")
	} else {
		fmt.Fprintf(w, "%-8s %16s %20s\n", "scheme", "norm (mean±sd)", "delivered (mean±sd)")
	}
	for _, r := range reps {
		fmt.Fprintf(w, "%-8s %8.3f ±%5.3f %12.0f ±%7.0f",
			r.Scheme, r.MeanNormalized, r.StdNormalized, r.MeanDelivered, r.StdDelivered)
		if hasFCT {
			fmt.Fprintf(w, " %9.2f ±%5.2f %9.2f ±%5.2f", r.MeanFCTP50, r.StdFCTP50, r.MeanFCTP99, r.StdFCTP99)
		}
		fmt.Fprintln(w)
	}
}

func seedCount(reps []*Replication) int {
	if len(reps) == 0 {
		return 0
	}
	return len(reps[0].Seeds)
}
