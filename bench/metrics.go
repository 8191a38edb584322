package main

// metricDef is one row of BENCHMARK.json. The tables below are the
// source the benchmark emits from; bench_test.go holds them equal to
// BENCHMARK.json, so a name, unit, direction or bound cannot drift
// between the file the driver reads and the numbers the program prints.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the base median
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them from an untraced run. Host time throughout.
var endToEnd = []metricDef{
	// campaign submitted -> last rendered byte (child start -> exit)
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	// user+sys of every child process in the timed region (rusage)
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	// simulated cycles of the campaign's cells / wall_s / 1e6
	{Name: "sim_mcycles_per_s", Unit: "Mcycle/s", Better: "higher", Bound: 0.25},
	// go build of the four CLIs + temp dirs (+ service launch until the
	// fleet is healthy); median of the set-ups made in the run
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the single-layer metrics of a traced run, in the order
// they print. They carry no bound. "model.*" are simulated quantities
// and must repeat exactly for a given (workload, seed); everything else
// is host time, host memory or a host-side count.
var perLayer = []metricDef{
	{Name: "network.build_ms", Unit: "ms", Better: "lower"},
	{Name: "network.build_allocs", Unit: "count", Better: "lower"},
	{Name: "network.build_kb", Unit: "kB", Better: "lower"},
	{Name: "network.partition_shards", Unit: "count", Better: "higher"},
	{Name: "network.partition_cut_links", Unit: "count", Better: "lower"},
	{Name: "network.partition_window_cycles", Unit: "cycle", Better: "higher"},
	{Name: "traffic.openloop_ms", Unit: "ms", Better: "lower"},
	{Name: "traffic.flows", Unit: "count", Better: "higher"},
	{Name: "sim.ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "sim.ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "sim.allocs_per_kcycle", Unit: "count", Better: "lower"},
	{Name: "sim.kb_per_kcycle", Unit: "kB", Better: "lower"},
	{Name: "sim.gc_per_run", Unit: "count", Better: "lower"},
	{Name: "sim.window_us_p50", Unit: "us", Better: "lower"},
	{Name: "sim.window_us_hi", Unit: "us", Better: "lower"},
	{Name: "sim.par_speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "sim.par_cpu_ratio_w2", Unit: "ratio", Better: "higher"},
	{Name: "experiments.harvest_us", Unit: "us", Better: "lower"},
	{Name: "experiments.render_us", Unit: "us", Better: "lower"},
	{Name: "experiments.result_encode_us", Unit: "us", Better: "lower"},
	{Name: "experiments.result_json_kb", Unit: "kB", Better: "lower"},
	{Name: "runner.key_us", Unit: "us", Better: "lower"},
	{Name: "runner.cache_put_us", Unit: "us", Better: "lower"},
	{Name: "runner.cache_get_us", Unit: "us", Better: "lower"},
	{Name: "runner.cached_job_us", Unit: "us", Better: "lower"},
	{Name: "runner.overhead_us", Unit: "us", Better: "lower"},
	{Name: "runner.pool_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "runner.job_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "runner.job_ms_hi", Unit: "ms", Better: "lower"},
	{Name: "campaign.overhead_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "campaign.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.results_fetch_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.resubmit_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.reopen_ms", Unit: "ms", Better: "lower"},
	{Name: "campaign.journal_kb", Unit: "kB", Better: "lower"},
	{Name: "campaign.worker_utilization", Unit: "ratio", Better: "higher"},
	{Name: "campaign.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "dispatch.claim_rtt_us", Unit: "us", Better: "lower"},
	{Name: "dispatch.claim_rtt_us_hi", Unit: "us", Better: "lower"},
	{Name: "dispatch.lease_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "dispatch.leases_granted", Unit: "count", Better: "higher"},
	{Name: "dispatch.jobs_reclaimed", Unit: "count", Better: "lower"},
	{Name: "dispatch.results_duplicate", Unit: "count", Better: "lower"},
	{Name: "dispatch.local_fallbacks", Unit: "count", Better: "lower"},
	{Name: "model.sim_cycles", Unit: "cycle", Better: "higher"},
	{Name: "model.delivered_pkts", Unit: "count", Better: "higher"},
	{Name: "model.norm_throughput_ccfit", Unit: "ratio", Better: "higher"},
	{Name: "model.latency_p99_ns_ccfit", Unit: "ns", Better: "lower"},
	{Name: "model.fct_p99_slowdown_ccfit", Unit: "ratio", Better: "lower"},
	{Name: "model.becns", Unit: "count", Better: "lower"},
	{Name: "model.cfq_detections", Unit: "count", Better: "higher"},
	{Name: "model.cam_exhausted", Unit: "count", Better: "lower"},
	{Name: "host.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "host.go_build_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// measure is one reported number. Pct and N qualify a distribution's
// tail value; N, Min and Max qualify a median over samples. Only value
// and unit go on the driver's result line.
type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Pct   float64 `json:"pct,omitempty"`
	N     int     `json:"n,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// metricSet accumulates the measures of one run, checked against a
// definition table so an unknown or repeated name is a bug caught at
// the source.
type metricSet struct {
	defs map[string]metricDef
	vals map[string]measure
}

func newMetricSet(defs []metricDef) *metricSet {
	m := &metricSet{defs: map[string]metricDef{}, vals: map[string]measure{}}
	for _, d := range defs {
		m.defs[d.Name] = d
	}
	return m
}

func (m *metricSet) set(name string, v float64) { m.put(name, measure{Value: v}) }

func (m *metricSet) put(name string, v measure) {
	d, ok := m.defs[name]
	if !ok {
		panic("bench: metric " + name + " is not in the definition table")
	}
	if _, dup := m.vals[name]; dup {
		panic("bench: metric " + name + " emitted twice")
	}
	v.Unit = d.Unit
	m.vals[name] = v
}

// setMedian records the median of xs with its min, max and count.
func (m *metricSet) setMedian(name string, xs []float64) {
	lo, hi := minMax(xs)
	m.put(name, measure{Value: median(xs), N: len(xs), Min: lo, Max: hi})
}

// setHi records the tail value chosen by the percentile rule.
func (m *metricSet) setHi(name string, xs []float64) {
	pct, v, n := hiPercentile(xs)
	m.put(name, measure{Value: v, Pct: pct, N: n})
}

// missing lists defined metrics that have no value yet.
func (m *metricSet) missing(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		if _, ok := m.vals[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}
