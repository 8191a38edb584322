package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// runResult is one run of one workload: the driver's unit.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Trace     int                `json:"trace"`
	Seconds   float64            `json:"seconds"`
	Reps      int                `json:"reps"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Golden    string             `json:"golden"`
	Notes     []string           `json:"notes,omitempty"`
	Metrics   map[string]measure `json:"metrics"`
}

const (
	// setupReps is how many times an untraced run sets up; the median is
	// setup_s. A traced run sets up once (host.go_build_s).
	setupReps = 3
)

// repsFor sizes a run: as many repetitions as fit the requested
// measuring time at the workload's nominal repetition length, at least
// one. The count depends only on --seconds, so two commits do the same
// work.
func (s *session) repsFor(w workload, seconds float64) int {
	if s.smoke {
		return 1
	}
	return max(1, int(seconds/w.nominalS))
}

// checkedRep makes one repetition, checks its output and folds it into
// the run's failure count: every cell fails when the command exits
// non-zero or its output is wrong, otherwise the cells the manifest
// marks not-ok.
func (s *session) checkedRep(ctx context.Context, res *runResult, w workload, cells int, observe bool) (repOut, error) {
	out, err := s.rep(ctx, w, res.Seed, observe)
	if err != nil {
		return out, err
	}
	v := verdict{}
	if out.exitErr == nil {
		if v, err = s.check(w, res.Seed, out.stdout); err != nil {
			return out, err
		}
	}
	res.Attempted += cells
	switch {
	case out.exitErr != nil:
		res.Failed += cells
		res.Notes = append(res.Notes, out.exitErr.Error())
	case !v.ok:
		res.Failed += cells
	case out.badCells > 0:
		res.Failed += out.badCells
		res.Notes = append(res.Notes, fmt.Sprintf("%d cell(s) not ok in the manifest", out.badCells))
	}
	res.Golden = v.golden
	res.Notes = append(res.Notes, v.notes...)
	return out, nil
}

// runTimed is the untraced run: set up, repeat the campaign through its
// front door, report the end-to-end metrics.
func (s *session) runTimed(ctx context.Context, w workload, seed int64, seconds float64) (*runResult, error) {
	c := w.cli(s.smoke)
	cells, cycles, err := campaignSize(c, seed)
	if err != nil {
		return nil, err
	}
	k := setupReps
	if s.smoke {
		k = 1
	}
	if err := s.ensureBuilt(ctx, k); err != nil {
		return nil, err
	}
	prep, err := s.prepS(ctx, w, k)
	if err != nil {
		return nil, err
	}

	res := &runResult{Workload: w.name, Seed: seed, Seconds: seconds, Reps: s.repsFor(w, seconds)}
	var wallS, cpuS, rate []float64
	for i := 0; i < res.Reps; i++ {
		out, err := s.checkedRep(ctx, res, w, cells, false)
		if err != nil {
			return nil, err
		}
		wallS = append(wallS, out.wall.Seconds())
		cpuS = append(cpuS, out.use.cpu.Seconds())
		rate = append(rate, float64(cycles)/out.wall.Seconds()/1e6)
	}
	res.Correct = res.Failed == 0

	m := newMetricSet(endToEnd)
	m.setMedian("wall_s", wallS)
	m.setMedian("cpu_s", cpuS)
	m.setMedian("sim_mcycles_per_s", rate)
	m.put("setup_s", measure{Value: median(s.buildS) + median(prep), N: k})
	res.Metrics = m.vals
	return res, nil
}

// runTraced is the traced run: one repetition through the front door
// for what only it can show (pool efficiency, per-job wall, service
// counters, peak RSS), then the workload's traced cells and the probe
// cells in-process with spans around every layer call.
func (s *session) runTraced(ctx context.Context, w workload, seed int64, traceOut string) (*runResult, error) {
	c := w.cli(s.smoke)
	cells, _, err := campaignSize(c, seed)
	if err != nil {
		return nil, err
	}
	if err := s.ensureBuilt(ctx, 1); err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.name, Seed: seed, Trace: 1, Reps: 1}
	m := newMetricSet(perLayer)

	out, err := s.checkedRep(ctx, res, w, cells, true)
	if err != nil {
		return nil, err
	}
	frontDoorMetrics(m, w, cells, out)
	m.set("host.go_build_s", median(s.buildS))

	tr := newTracer()
	notes, err := s.layerMetrics(ctx, tr, m, w, seed)
	if err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, notes...)
	if traceOut == "" {
		traceOut = filepath.Join(s.work, "trace", fmt.Sprintf("%s.seed%d.json", w.name, seed))
	}
	if err := tr.write(traceOut); err != nil {
		return nil, err
	}
	res.Notes = append(res.Notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), traceOut))
	res.Notes = append(res.Notes, selfTimeNote(tr))

	if missing := m.missing(perLayer); len(missing) > 0 {
		return nil, fmt.Errorf("traced run left metrics unset: %v", missing)
	}
	res.Correct = res.Failed == 0
	res.Metrics = m.vals
	return res, nil
}

// frontDoorMetrics fills what the repetition through the CLIs observed.
// The service counters are 0 on workloads whose front door is not the
// service: those workloads grant no leases and pay no orchestration.
func frontDoorMetrics(m *metricSet, w workload, cells int, out repOut) {
	m.set("host.peak_rss_mb", out.use.rssMB)
	eff := 0.0
	if len(out.jobMS) > 0 {
		eff = sum(out.jobMS) / 1000 / (float64(w.slots) * out.wall.Seconds())
	}
	m.set("runner.pool_efficiency", eff)
	m.setMedian("runner.job_ms_p50", out.jobMS)
	m.setHi("runner.job_ms_hi", out.jobMS)

	perJob := 0.0
	if w.service && cells > 0 {
		perJob = (out.wall - out.localWall).Seconds() * 1000 / float64(cells)
	}
	m.set("campaign.overhead_ms_per_job", perJob)
	for name, key := range map[string]string{
		"campaign.worker_utilization": "worker_utilization",
		"campaign.cache_hit_rate":     "cache_hit_rate",
		"dispatch.leases_granted":     "leases_granted",
		"dispatch.jobs_reclaimed":     "jobs_reclaimed",
		"dispatch.results_duplicate":  "results_duplicate",
		"dispatch.local_fallbacks":    "local_fallbacks",
	} {
		m.set(name, out.svc[key])
	}
}

// layerMetrics runs the in-process part of the traced run and fills the
// per-layer metrics it yields. The returned notes record the identities
// it enforced.
func (s *session) layerMetrics(ctx context.Context, tr *tracer, m *metricSet, w workload, seed int64) (notes []string, err error) {
	// In-process cells run whole at full scale; at smoke scale each is
	// cut to a sliver of simulated time.
	ms := 0.0
	if s.smoke {
		ms = smokeTraceMS
	}
	traced, err := expandRefs(w.tracedCells(s.smoke), seed, ms)
	if err != nil {
		return nil, err
	}
	var samples []cellSample
	var model modelSample
	for _, cell := range traced {
		cs, err := traceCell(tr, cell)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cellName(cell), err)
		}
		samples = append(samples, cs)
		model.add(cs)
	}

	// network, sim, experiments: over the traced cells.
	var buildMS, harvestUS, renderUS, encodeUS, jsonKB []float64
	var cyc, pkts, runNS, allocs, kb, gcs, buildAllocs, buildKB float64
	for _, cs := range samples {
		buildMS = append(buildMS, msF(cs.build))
		harvestUS = append(harvestUS, usF(cs.harvest))
		renderUS = append(renderUS, usF(cs.render))
		encodeUS = append(encodeUS, usF(cs.encode))
		jsonKB = append(jsonKB, float64(len(cs.resJSON))/1024)
		cyc += float64(cs.cycles)
		pkts += float64(cs.res.Summary.DeliveredPkts)
		runNS += float64(cs.run)
		allocs += float64(cs.runMem.allocs)
		kb += float64(cs.runMem.bytes) / 1024
		gcs += float64(cs.runMem.gcs)
		buildAllocs += float64(cs.buildMem.allocs)
		buildKB += float64(cs.buildMem.bytes) / 1024
	}
	n := float64(len(samples))
	m.setMedian("network.build_ms", buildMS)
	m.set("network.build_allocs", buildAllocs/n)
	m.set("network.build_kb", buildKB/n)
	m.set("sim.ns_per_cycle", runNS/cyc)
	m.set("sim.ns_per_pkt", runNS/max(pkts, 1))
	m.set("sim.allocs_per_kcycle", allocs/cyc*1000)
	m.set("sim.kb_per_kcycle", kb/cyc*1000)
	m.set("sim.gc_per_run", gcs/n)
	windows := durs(tr.named("sim.window"), usF)
	m.setMedian("sim.window_us_p50", windows)
	m.setHi("sim.window_us_hi", windows)
	m.setMedian("experiments.harvest_us", harvestUS)
	m.setMedian("experiments.render_us", renderUS)
	m.setMedian("experiments.result_encode_us", encodeUS)
	m.setMedian("experiments.result_json_kb", jsonKB)

	// The partition pair: the workload's parCell plain at SimWorkers 1
	// and 2. The serial plain run is also the untraced baseline of the
	// windowed, spanned run of the same cell above.
	par, err := expandRefs([]cellRef{w.par(s.smoke)}, seed, ms)
	if err != nil {
		return nil, err
	}
	serial, err := plainCell(par[0], 1)
	if err != nil {
		return nil, err
	}
	sharded, err := plainCell(par[0], 2)
	if err != nil {
		return nil, err
	}
	var tracedPar *cellSample
	for i := range samples {
		if samples[i].name == cellName(par[0]) {
			tracedPar = &samples[i]
		}
	}
	if tracedPar == nil {
		return nil, fmt.Errorf("workload %s: parCell %s is not among its traced cells", w.name, cellName(par[0]))
	}
	if err := sameJSON("windowed run vs one Network.Run call on "+tracedPar.name, tracedPar.resJSON, serial.resJSON); err != nil {
		return nil, err
	}
	if err := sameJSON("SimWorkers=2 vs serial on "+tracedPar.name, sharded.resJSON, serial.resJSON); err != nil {
		return nil, err
	}
	notes = []string{fmt.Sprintf("partitioned == serial == windowed on %s (Result JSON byte-identical)", tracedPar.name)}
	m.set("network.partition_shards", float64(sharded.shards))
	m.set("network.partition_cut_links", float64(sharded.cutLinks))
	m.set("network.partition_window_cycles", float64(sharded.window))
	m.set("sim.par_speedup_w2", serial.run.Seconds()/sharded.run.Seconds())
	m.set("sim.par_cpu_ratio_w2", serial.cpu.Seconds()/sharded.cpu.Seconds())
	m.set("trace.overhead_pct", (tracedPar.run.Seconds()/serial.run.Seconds()-1)*100)

	// traffic
	openloop, flows, err := trafficProbe(tr, seed, 5)
	if err != nil {
		return nil, err
	}
	m.set("traffic.openloop_ms", msF(openloop))
	m.set("traffic.flows", float64(flows))

	// runner, campaign, dispatch: over the probe cells.
	seeds := probeSeeds
	if s.smoke {
		seeds = smokeProbeSeeds
	}
	spec := probeSpec(seed, seeds, ms)
	dir, err := s.tmp("probe-*")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rerr := os.RemoveAll(dir); err == nil {
			err = rerr
		}
	}()
	rs, err := runnerProbe(ctx, tr, spec, filepath.Join(dir, "runner"))
	if err != nil {
		return nil, err
	}
	m.setMedian("runner.key_us", rs.keyUS)
	m.setMedian("runner.cache_put_us", rs.putUS)
	m.setMedian("runner.cache_get_us", rs.getUS)
	m.set("runner.cached_job_us", usF(rs.cachedJob))
	m.setMedian("runner.overhead_us", rs.overheadUS)

	ss, err := serviceProbe(ctx, tr, spec, filepath.Join(dir, "service"), s.smoke)
	if err != nil {
		return nil, err
	}
	m.set("campaign.submit_ms", msF(ss.submit))
	m.set("campaign.results_fetch_ms", msF(ss.fetch))
	m.setMedian("campaign.resubmit_ms", ss.resubmitMS)
	m.set("campaign.reopen_ms", msF(ss.reopen))
	m.set("campaign.journal_kb", ss.journalKB)
	m.setMedian("dispatch.claim_rtt_us", ss.claimUS)
	m.setHi("dispatch.claim_rtt_us_hi", ss.claimUS)
	m.setMedian("dispatch.lease_overhead_ms", ss.leaseOverheadMS)
	for i := range ss.resultsJSON {
		if err := sameJSON(fmt.Sprintf("probe cell %d served by the in-process fleet vs run directly", i), ss.resultsJSON[i], rs.directJSON[i]); err != nil {
			return nil, err
		}
	}
	notes = append(notes, fmt.Sprintf("in-process service == direct on the %d probe cells (Result JSON byte-identical)", len(ss.resultsJSON)))

	// model: simulated quantities of the traced cells, exact per seed.
	m.set("model.sim_cycles", float64(model.cycles))
	m.set("model.delivered_pkts", float64(model.deliveredPkts))
	m.set("model.norm_throughput_ccfit", mean(model.normCCFIT))
	m.set("model.latency_p99_ns_ccfit", mean(model.latP99CCFIT))
	m.set("model.fct_p99_slowdown_ccfit", mean(model.fctP99CCFIT))
	m.set("model.becns", float64(model.becns))
	m.set("model.cfq_detections", float64(model.detections))
	m.set("model.cam_exhausted", float64(model.camExhausted))
	return notes, nil
}

// selfTimeNote summarises where the traced run's host time went, by
// span name, largest first.
func selfTimeNote(tr *tracer) string {
	self := selfByName(tr.spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	s := "self time by span:"
	for _, n := range names {
		s += fmt.Sprintf(" %s=%s", n, self[n].Round(10*time.Microsecond))
	}
	return s
}
