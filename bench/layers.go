package main

// This file holds every compile-time dependency of the benchmark on
// the repo's internals, restricted to the functions the per-layer
// metric table names (the list is in README.md, "Pinned surface"). When
// a layer function is renamed, the follow-up is here and nowhere else.
//
// Everything below runs in-process and single-threaded from the
// caller's goroutine (the only goroutines started are the two dispatch
// workers of the service probe), with spans recorded around each call
// into a layer.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/traffic"
)

// campaignSize expands a campaign exactly as the CLIs do and returns
// its cell count and the simulated cycles those cells cover.
func campaignSize(c cliCampaign, seed int64) (cells int, cycles int64, err error) {
	expanded, err := experiments.Spec{Experiments: c.ids, Seed: seed, Seeds: c.seeds, MS: c.ms}.Expand()
	if err != nil {
		return 0, 0, err
	}
	for _, cell := range expanded {
		cycles += int64(cell.Exp.Duration)
	}
	return len(expanded), cycles, nil
}

// expandRefs resolves traced-cell references into runnable cells.
func expandRefs(refs []cellRef, seed int64, ms float64) ([]experiments.Cell, error) {
	var out []experiments.Cell
	for _, r := range refs {
		cells, err := experiments.Spec{
			Experiments: []string{r.exp}, Schemes: []string{r.scheme}, Seed: seed + r.off, Seeds: 1, MS: ms,
		}.Expand()
		if err != nil {
			return nil, err
		}
		out = append(out, cells...)
	}
	return out, nil
}

func cellName(c experiments.Cell) string {
	return fmt.Sprintf("%s/%s seed=%d", c.Exp.ID, c.Scheme, c.Seed)
}

// memDelta is the allocation cost of one call, from runtime.MemStats
// read either side of it.
type memDelta struct {
	allocs, bytes uint64
	gcs           uint32
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

func memSince(a runtime.MemStats) memDelta {
	b := memNow()
	return memDelta{allocs: b.Mallocs - a.Mallocs, bytes: b.TotalAlloc - a.TotalAlloc, gcs: b.NumGC - a.NumGC}
}

// cellSample is what one traced cell yields.
type cellSample struct {
	name                                string
	cycles                              int64
	build, run, harvest, render, encode time.Duration
	buildMem, runMem                    memDelta
	res                                 *experiments.Result
	resJSON                             []byte
}

// windowCycles is the slice of simulated time one sim.window span
// covers.
const windowCycles = 256

// traceCell builds, runs (in windows, each its own span), harvests,
// renders and encodes one cell.
func traceCell(tr *tracer, cell experiments.Cell) (cellSample, error) {
	s := cellSample{name: cellName(cell), cycles: int64(cell.Exp.Duration)}
	exp := cell.Exp
	p, err := experiments.SchemeByName(cell.Scheme)
	if err != nil {
		return s, err
	}
	runtime.GC() // every cell starts from a collected heap, traced or plain
	root := tr.begin("cell", s.name)
	defer tr.end(root)

	m0 := memNow()
	id := tr.begin("network.build", s.name)
	n, err := exp.Build(p, cell.Seed, exp.Bin, exp.Duration, experiments.BuildOpts{})
	s.build = tr.end(id)
	s.buildMem = memSince(m0)
	if err != nil {
		return s, err
	}

	m0 = memNow()
	id = tr.begin("sim.run", s.name)
	for done := sim.Cycle(0); done < exp.Duration; {
		step := min(sim.Cycle(windowCycles), exp.Duration-done)
		w := tr.begin("sim.window", s.name)
		n.Run(step)
		tr.end(w)
		done += step
	}
	s.run = tr.end(id)
	s.runMem = memSince(m0)

	id = tr.begin("experiments.harvest", s.name)
	s.res = experiments.Harvest(exp, cell.Scheme, cell.Seed, n)
	s.harvest = tr.end(id)

	id = tr.begin("experiments.render", s.name)
	var buf bytes.Buffer
	rs := []*experiments.Result{s.res}
	if exp.FlowIDs == nil {
		experiments.RenderThroughput(&buf, exp, rs)
	} else {
		experiments.RenderFlows(&buf, exp, rs)
	}
	experiments.RenderSummary(&buf, rs)
	experiments.RenderFCT(&buf, rs)
	s.render = tr.end(id)

	id = tr.begin("experiments.result_encode", s.name)
	s.resJSON, err = json.Marshal(s.res)
	s.encode = tr.end(id)
	return s, err
}

// plainSample is one untraced Build+Run+Harvest.
type plainSample struct {
	total, run, cpu time.Duration // whole call; Network.Run alone; process CPU over Run
	resJSON         []byte
	shards          int // 0 when the network came out serial
	cutLinks        int
	window          int64
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// plainCell runs one cell with a single Network.Run call at the given
// engine worker count.
func plainCell(cell experiments.Cell, simWorkers int) (plainSample, error) {
	var s plainSample
	exp := cell.Exp
	p, err := experiments.SchemeByName(cell.Scheme)
	if err != nil {
		return s, err
	}
	runtime.GC()
	t0 := time.Now()
	n, err := exp.Build(p, cell.Seed, exp.Bin, exp.Duration, experiments.BuildOpts{SimWorkers: simWorkers})
	if err != nil {
		return s, err
	}
	if part := n.PartitionInfo(); part != nil {
		s.shards, s.cutLinks, s.window = part.N, part.CutLinks, int64(part.Window)
	}
	c0, r0 := selfCPU(), time.Now()
	n.Run(exp.Duration)
	s.run, s.cpu = time.Since(r0), selfCPU()-c0
	res := experiments.Harvest(exp, cell.Scheme, cell.Seed, n)
	s.total = time.Since(t0)
	s.resJSON, err = json.Marshal(res)
	return s, err
}

// trafficProbe times the open-loop schedule build of xleafincast's
// shape (15 Poisson sources of data-mining-sized flows into one sink
// over 2 ms) and returns the median of reps builds and the flow count.
func trafficProbe(tr *tracer, seed int64, reps int) (time.Duration, int, error) {
	end := sim.CyclesFromMS(2)
	var ds []float64
	flows := 0
	for i := 0; i < reps; i++ {
		id := tr.begin("traffic.openloop", "")
		fl, err := experiments.IncastFlows(16, 0, sim.FlitBytes, traffic.DataMiningCDF(), 0.05, end*3/4, end, seed)
		d := tr.end(id)
		if err != nil {
			return 0, 0, err
		}
		ds = append(ds, float64(d))
		flows = len(fl)
	}
	return time.Duration(median(ds)), flows, nil
}

// probeSpec is the campaign of the probe cells (workloads.go).
func probeSpec(seed int64, seeds int, ms float64) experiments.Spec {
	return experiments.Spec{Experiments: dcIDs, Schemes: []string{"1Q", "CCFIT"}, Seed: seed, Seeds: seeds, MS: ms}
}

// runnerSample is the runner layer's cost over the probe cells.
type runnerSample struct {
	keyUS, putUS, getUS, overheadUS []float64
	cachedJob                       time.Duration // per job
	directJSON                      [][]byte      // Result of each cell run directly, cell order
}

// runnerProbe measures what runner.Run (one worker, no cache) adds over
// calling Build/Run/Harvest directly - per cell, the two back to back
// with the order flipped every cell so warm-up favours neither - then
// JobKey, Cache.Put/Get of the real results, and a 100%-hit runner.Run.
func runnerProbe(ctx context.Context, tr *tracer, spec experiments.Spec, dir string) (runnerSample, error) {
	var s runnerSample
	cells, err := spec.Expand()
	if err != nil {
		return s, err
	}
	jobs, err := runner.FromSpec(spec)
	if err != nil {
		return s, err
	}
	results := make([]*experiments.Result, len(cells))
	for i, c := range cells {
		var direct, through time.Duration
		viaRunner := func() error {
			runtime.GC() // as plainCell does: both sides start from a collected heap
			id := tr.begin("runner.run_uncached", cellName(c))
			jrs, err := runner.Run(ctx, jobs[i:i+1], runner.Options{Workers: 1})
			through = tr.end(id)
			if err == nil {
				err = firstJobErr(jrs)
			}
			if err == nil {
				results[i] = jrs[0].Result
			}
			return err
		}
		directly := func() error {
			ps, err := plainCell(c, 1)
			direct = ps.total
			s.directJSON = append(s.directJSON, ps.resJSON)
			return err
		}
		steps := []func() error{directly, viaRunner}
		if i%2 == 1 {
			steps[0], steps[1] = steps[1], steps[0]
		}
		for _, step := range steps {
			if err := step(); err != nil {
				return s, fmt.Errorf("%s: %w", cellName(c), err)
			}
		}
		s.overheadUS = append(s.overheadUS, usF(through-direct))
	}

	cache, err := runner.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return s, err
	}
	for i, job := range jobs {
		id := tr.begin("runner.key", "")
		key, err := runner.JobKey(job)
		s.keyUS = append(s.keyUS, usF(tr.end(id)))
		if err != nil {
			return s, err
		}
		id = tr.begin("runner.cache_put", "")
		err = cache.Put(key, results[i])
		s.putUS = append(s.putUS, usF(tr.end(id)))
		if err != nil {
			return s, err
		}
		id = tr.begin("runner.cache_get", "")
		_, ok, err := cache.Get(key)
		s.getUS = append(s.getUS, usF(tr.end(id)))
		if err != nil || !ok {
			return s, fmt.Errorf("cache.Get of a key just stored: ok=%v err=%v", ok, err)
		}
	}
	id := tr.begin("runner.run_cached", "")
	jrs, err := runner.Run(ctx, jobs, runner.Options{Workers: 1, Cache: cache})
	hit := tr.end(id)
	if err == nil {
		err = firstJobErr(jrs)
	}
	if err != nil {
		return s, fmt.Errorf("all-hit runner.Run: %w", err)
	}
	for _, jr := range jrs {
		if !jr.Cached {
			return s, fmt.Errorf("all-hit runner.Run recomputed %s", jr.Job)
		}
	}
	s.cachedJob = hit / time.Duration(len(jobs))
	return s, nil
}

func firstJobErr(jrs []runner.JobResult) error {
	for _, jr := range jrs {
		if jr.Err != nil {
			return fmt.Errorf("%s: %w", jr.Job, jr.Err)
		}
	}
	return nil
}

// timedExec wraps an executor and records each job's duration, on
// whichever side of the lease it sits.
type timedExec struct {
	inner runner.Executor

	mu      sync.Mutex
	elapsed map[string]time.Duration // guarded by mu
}

func newTimedExec(inner runner.Executor) *timedExec {
	return &timedExec{inner: inner, elapsed: map[string]time.Duration{}}
}

func (e *timedExec) Execute(ctx context.Context, job runner.Job, emit func(runner.Event)) runner.JobResult {
	t0 := time.Now()
	jr := e.inner.Execute(ctx, job, emit)
	d := time.Since(t0)
	e.mu.Lock()
	e.elapsed[job.String()] = d
	e.mu.Unlock()
	return jr
}

func (e *timedExec) snapshot() map[string]time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]time.Duration, len(e.elapsed))
	for k, v := range e.elapsed {
		out[k] = v
	}
	return out
}

// serviceSample is the campaign and dispatch layers' cost over the
// probe cells, served in-process.
type serviceSample struct {
	submit, fetch, reopen time.Duration
	resubmitMS            []float64 // 100%-hit resubmissions
	journalKB             float64   // after the cold pass
	leaseOverheadMS       []float64 // per job: service-side Execute - worker-side Execute
	claimUS               []float64 // Claim round trips on an empty board
	resultsJSON           [][]byte  // cold-pass results, cell order
}

const (
	resubmits   = 10
	emptyClaims = 1000
)

// serviceProbe stands up campaign.Open + dispatch.NewBoard behind an
// httptest server with two single-slot dispatch.Worker loops, submits
// the probe campaign cold, resubmits it warm, measures Claim on the
// then-empty board, tears everything down and times a re-Open that
// replays the finished journals. Loopback only.
func serviceProbe(ctx context.Context, tr *tracer, spec experiments.Spec, dir string, smoke bool) (serviceSample, error) {
	var s serviceSample
	cache, err := runner.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		return s, err
	}
	journalDir := filepath.Join(dir, "journal")
	board := dispatch.NewBoard(dispatch.Options{})
	// The executor campaign.Open would build for a board, wrapped so the
	// service side of every lease is timed.
	svcExec := newTimedExec(&dispatch.RemoteExecutor{Board: board, Local: &runner.LocalExecutor{Cache: cache}})
	sched, err := campaign.Open(campaign.Options{Dir: journalDir, Cache: cache, Workers: fleetSize, Dispatch: board, Executor: svcExec})
	if err != nil {
		board.Close()
		return s, err
	}
	srv := httptest.NewServer(campaign.NewServer(sched))

	wctx, stopWorkers := context.WithCancel(ctx)
	workerExec := newTimedExec(&runner.LocalExecutor{})
	var wg sync.WaitGroup
	for i := 0; i < fleetSize; i++ {
		w := &dispatch.Worker{
			Client: &dispatch.Client{Base: srv.URL},
			Opt:    dispatch.WorkerOptions{Name: fmt.Sprintf("probe-w%d", i), Slots: 1, Exec: workerExec, PollMax: 100 * time.Millisecond},
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Run returns nil on a drain; a registration failure shows up
			// below as a fleet that never becomes ready.
			_ = w.Run(wctx)
		}()
	}
	closed := false
	teardown := func() error {
		if closed {
			return nil
		}
		closed = true
		stopWorkers()
		wg.Wait()
		srv.Close()
		err := sched.Close()
		board.Close()
		return err
	}
	defer func() { _ = teardown() }() // error paths; the success path checks it below

	ready := func() bool { return len(board.Workers()) == fleetSize }
	if err := pollUntil(ctx, time.Now().Add(fleetReadyTimeout), ready); err != nil {
		return s, fmt.Errorf("in-process fleet: %w", err)
	}

	sub := campaign.Submission{Spec: spec}
	jobs, err := sub.Jobs()
	if err != nil {
		return s, err
	}
	client := &campaign.Client{Base: srv.URL}

	id := tr.begin("campaign.submit", "")
	view, err := client.Submit(ctx, sub)
	s.submit = tr.end(id)
	if err != nil {
		return s, err
	}
	if _, err := client.Wait(ctx, view.ID, nil); err != nil {
		return s, err
	}
	id = tr.begin("campaign.results_fetch", "")
	jrs, err := client.Results(ctx, view.ID, jobs)
	s.fetch = tr.end(id)
	if err == nil {
		err = firstJobErr(jrs)
	}
	if err != nil {
		return s, fmt.Errorf("probe campaign: %w", err)
	}
	for _, jr := range jrs {
		data, err := json.Marshal(jr.Result)
		if err != nil {
			return s, err
		}
		s.resultsJSON = append(s.resultsJSON, data)
	}
	s.journalKB = dirKB(journalDir)
	svc, wrk := svcExec.snapshot(), workerExec.snapshot()
	for _, job := range jobs {
		a, okA := svc[job.String()]
		b, okB := wrk[job.String()]
		if !okA || !okB {
			return s, fmt.Errorf("probe campaign: %s did not run on the fleet (service side %v, worker side %v)", job, okA, okB)
		}
		s.leaseOverheadMS = append(s.leaseOverheadMS, msF(a-b))
	}

	n := resubmits
	if smoke {
		n = 2
	}
	for i := 0; i < n; i++ {
		id := tr.begin("campaign.resubmit", "")
		v, err := client.Submit(ctx, sub)
		if err == nil {
			v, err = client.Wait(ctx, v.ID, nil)
		}
		d := tr.end(id)
		if err != nil {
			return s, err
		}
		if v.Cached != v.Total {
			return s, fmt.Errorf("resubmission %d recomputed %d of %d cells", i, v.Total-v.Cached, v.Total)
		}
		s.resubmitMS = append(s.resubmitMS, msF(d))
	}

	dc := &dispatch.Client{Base: srv.URL}
	reg, err := dc.Register(ctx, dispatch.RegisterRequest{Name: "probe-claimer", Protocol: dispatch.Protocol})
	if err != nil {
		return s, err
	}
	n = emptyClaims
	if smoke {
		n = 50
	}
	for i := 0; i < n; i++ {
		id := tr.begin("dispatch.claim", "")
		_, got, err := dc.Claim(ctx, reg.WorkerID)
		d := tr.end(id)
		if err != nil || got {
			return s, fmt.Errorf("Claim on an empty board: granted=%v err=%v", got, err)
		}
		s.claimUS = append(s.claimUS, usF(d))
	}

	if err := teardown(); err != nil {
		return s, err
	}
	id = tr.begin("campaign.reopen", "")
	again, err := campaign.Open(campaign.Options{Dir: journalDir, Cache: cache, Workers: 1})
	s.reopen = tr.end(id)
	if err != nil {
		return s, err
	}
	return s, again.Close()
}

func dirKB(dir string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := int64(0)
	for _, e := range entries {
		if info, err := e.Info(); err == nil && !e.IsDir() {
			total += info.Size()
		}
	}
	return float64(total) / 1024
}

// modelSample sums the simulated quantities of a set of results. A
// simulator-only speed-up must leave every one of them bit-identical.
type modelSample struct {
	cycles, deliveredPkts               int64
	becns, detections, camExhausted     int
	normCCFIT, latP99CCFIT, fctP99CCFIT []float64
}

func (m *modelSample) add(s cellSample) {
	r := s.res
	m.cycles += s.cycles
	m.deliveredPkts += r.Summary.DeliveredPkts
	m.becns += r.Summary.BECNs
	m.detections += r.Summary.Detections
	m.camExhausted += r.Summary.CAMExhausted
	if r.Scheme != "CCFIT" {
		return
	}
	m.normCCFIT = append(m.normCCFIT, r.Summary.MeanNormalized)
	m.latP99CCFIT = append(m.latP99CCFIT, r.Summary.P99LatencyNS)
	if r.FCT != nil {
		m.fctP99CCFIT = append(m.fctP99CCFIT, r.Summary.FCTSlowdownP99)
	}
}

// sameJSON fails when two encodings of a Result are not byte-equal.
func sameJSON(what string, a, b []byte) error {
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s: results differ", what)
	}
	return nil
}
