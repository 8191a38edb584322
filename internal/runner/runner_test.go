package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/network"
	"repro/internal/pkt"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// scaledRegistry returns every runnable paper experiment with a short
// duration, so the determinism matrix stays tractable under -race.
func scaledRegistry() []experiments.Experiment {
	var out []experiments.Experiment
	for _, e := range experiments.Registry() {
		if e.Kind == experiments.ConfigTable {
			continue
		}
		e.Duration = sim.CyclesFromMS(0.1)
		out = append(out, e)
	}
	return out
}

// grid hand-builds experiments × schemes × seeds jobs (nil schemes =
// each experiment's own) for the scaled copies above, which no spec can
// name; registered experiments expand through FromSpec.
func grid(exps []experiments.Experiment, schemes []string, seeds []int64) []Job {
	var jobs []Job
	for i := range exps {
		ss := schemes
		if ss == nil {
			ss = exps[i].Schemes
		}
		for _, s := range ss {
			for _, seed := range seeds {
				jobs = append(jobs, Job{Scheme: s, Seed: seed, Exp: exps[i]})
			}
		}
	}
	return jobs
}

func encode(t *testing.T, r *experiments.Result) []byte {
	t.Helper()
	if r == nil {
		t.Fatal("nil result")
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func mustRun(t *testing.T, jobs []Job, opt Options) []JobResult {
	t.Helper()
	results, err := Run(context.Background(), jobs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Job, r.Err)
		}
	}
	return results
}

// TestParallelMatchesSerial is the core determinism guarantee: for
// every registered experiment, a parallel campaign (workers=4)
// produces byte-identical Result series to the serial one (workers=1)
// under the same seed, and warm cache hits return identical data.
func TestParallelMatchesSerial(t *testing.T) {
	jobs := grid(scaledRegistry(), nil, []int64{1})
	if len(jobs) == 0 {
		t.Fatal("empty grid")
	}
	serial := mustRun(t, jobs, Options{Workers: 1})

	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	parallel := mustRun(t, jobs, Options{Workers: 4, Cache: cache})
	for i := range jobs {
		if !bytes.Equal(encode(t, serial[i].Result), encode(t, parallel[i].Result)) {
			t.Fatalf("%s: parallel result differs from serial", jobs[i])
		}
	}

	// Second pass over a warm cache: every job is served from disk
	// with byte-identical data.
	warm := mustRun(t, jobs, Options{Workers: 4, Cache: cache})
	for i := range jobs {
		if !warm[i].Cached {
			t.Fatalf("%s: expected cache hit", jobs[i])
		}
		if !bytes.Equal(encode(t, serial[i].Result), encode(t, warm[i].Result)) {
			t.Fatalf("%s: cached result differs from serial", jobs[i])
		}
	}
}

func TestRunFailsFastOnInvalidJobs(t *testing.T) {
	for _, c := range []struct {
		job    Job
		reason string
	}{
		{Job{Exp: experiments.Experiment{ID: "nope"}, Scheme: "CCFIT", Seed: 1}, "nope is not a runnable experiment"},
		{Job{Exp: byID(t, "fig7a"), Scheme: "bogus", Seed: 1}, `unknown scheme "bogus"`},
		{Job{Exp: byID(t, "table1"), Scheme: "CCFIT", Seed: 1}, "table1 is not a runnable experiment"},
	} {
		results, err := Run(context.Background(), []Job{c.job}, Options{})
		if err == nil {
			t.Fatalf("job %v accepted", c.job)
		}
		if results != nil {
			t.Fatal("invalid campaign still produced results")
		}
		if !strings.Contains(err.Error(), c.reason) {
			t.Errorf("job %v: error %q does not give its reason %q", c.job, err, c.reason)
		}
	}
	// Bad params fail before anything runs too.
	p := core.PresetCCFIT()
	p.NumCFQs = 0
	_, err := Run(context.Background(), []Job{{Exp: byID(t, "fig7a"), Scheme: "CCFIT", Seed: 1, Params: &p}}, Options{})
	if err == nil {
		t.Fatal("invalid params accepted")
	}
}

// byID is a registered experiment.
func byID(t *testing.T, id string) experiments.Experiment {
	t.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// syntheticExp wraps a Build function as a runnable experiment.
func syntheticExp(id string, build func(core.Params, int64, sim.Cycle, sim.Cycle, experiments.BuildOpts) (*network.Network, error)) experiments.Experiment {
	return experiments.Experiment{
		ID:       id,
		Kind:     experiments.Throughput,
		Duration: sim.CyclesFromMS(0.05),
		Bin:      sim.CyclesFromNS(50_000),
		Build:    build,
	}
}

func TestPanicBecomesJobFailure(t *testing.T) {
	boom := syntheticExp("xpanic", func(core.Params, int64, sim.Cycle, sim.Cycle, experiments.BuildOpts) (*network.Network, error) {
		panic("synthetic crash")
	})
	good, err := experiments.ByID("fig7a")
	if err != nil {
		t.Fatal(err)
	}
	good.Duration = sim.CyclesFromMS(0.05)
	jobs := []Job{
		{Scheme: "CCFIT", Seed: 1, Exp: boom},
		{Scheme: "CCFIT", Seed: 1, Exp: good},
	}
	results, err := Run(context.Background(), jobs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "panicked") {
		t.Fatalf("panic not converted to failure: %v", results[0].Err)
	}
	// The crash must not take the campaign down with it.
	if results[1].Err != nil || results[1].Result == nil {
		t.Fatalf("healthy job damaged by neighbouring panic: %v", results[1].Err)
	}
}

// A panic raised mid-run, inside a node's tick — where the partitioned
// engine's shards used to raise it — must come out as one failed job like
// any other panic: not quarantined, with no engine line on its event,
// while the jobs around it complete and report theirs.
func TestShardPanicBecomesJobFailure(t *testing.T) {
	// Every sink panics on its first delivery.
	boom := syntheticExp("xpanicrun", func(p core.Params, seed int64, bin, end sim.Cycle, o experiments.BuildOpts) (*network.Network, error) {
		n, err := experiments.BuildConfig1(p, seed, bin, end, o)
		if err != nil {
			return nil, err
		}
		for _, node := range n.Nodes {
			node.SetDeliverHook(func(*pkt.Packet, sim.Cycle) { panic("synthetic crash mid-run") })
		}
		return n, nil
	})
	healthy := syntheticExp("xhealthy", experiments.BuildConfig1)
	jobs := []Job{
		{Scheme: "CCFIT", Seed: 1, Exp: healthy},
		{Scheme: "CCFIT", Seed: 1, Exp: boom},
		{Scheme: "CCFIT", Seed: 2, Exp: healthy},
	}
	var progress bytes.Buffer
	engine := map[int]string{}
	terminal := map[int]EventType{}
	print := NewProgress(&progress)
	results, err := Run(context.Background(), jobs, Options{Workers: 1, Progress: func(ev Event) {
		if ev.Type.Terminal() {
			engine[ev.Index], terminal[ev.Index] = ev.Engine, ev.Type
		}
		print(ev)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if e := results[1].Err; e == nil || !strings.Contains(e.Error(), "panicked") || !strings.Contains(e.Error(), "synthetic crash mid-run") {
		t.Fatalf("mid-run panic not converted to a job failure: %v", e)
	}
	if results[1].Quarantined {
		t.Fatal("a plain mid-run panic was quarantined as an invariant violation")
	}
	if engine[1] != "" {
		t.Fatalf("the failed job's event carries an engine line: %q", engine[1])
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Result == nil {
			t.Fatalf("job %d damaged by the neighbouring panic: %v", i, results[i].Err)
		}
	}
	if !strings.HasPrefix(engine[0], "elided: ") {
		t.Fatalf("job 0's JobDone describes its engine as %q", engine[0])
	}
	// The healthy cell never observes its seed, so its seed-2 job is job
	// 0's result served from the seed-free table: cached, no engine line.
	if terminal[2] != JobCached || engine[2] != "" || !results[2].Cached {
		t.Fatalf("job 2 ended with event %d, engine %q; want a seed-free cache hit", terminal[2], engine[2])
	}
	want := *results[0].Result
	want.Seed = 2
	if !bytes.Equal(encode(t, &want), encode(t, results[2].Result)) {
		t.Fatal("job 2's result is not job 0's with Seed 2")
	}
	if got := strings.Count(progress.String(), "\n        elided: "); got != 1 {
		t.Fatalf("-v output has %d engine lines, want one under the simulated healthy job:\n%s", got, progress.String())
	}
}

func TestJobTimeout(t *testing.T) {
	slow := syntheticExp("xslow", func(core.Params, int64, sim.Cycle, sim.Cycle, experiments.BuildOpts) (*network.Network, error) {
		time.Sleep(300 * time.Millisecond)
		return nil, errors.New("too late to matter")
	})
	results, err := Run(context.Background(),
		[]Job{{Scheme: "CCFIT", Seed: 1, Exp: slow}},
		Options{Workers: 1, Timeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "timeout") {
		t.Fatalf("timeout not reported: %v", results[0].Err)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := grid(scaledRegistry()[:1], nil, []int64{1})
	results, err := Run(ctx, jobs, Options{Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	for _, r := range results {
		if r.Err == nil {
			t.Fatalf("%s ran under a cancelled context", r.Job)
		}
	}
}

// TestGridShape pins FromSpec's expansion: experiment-major, static
// tables skipped, scheme override and seed defaults applied.
func TestGridShape(t *testing.T) {
	reg := experiments.Registry() // includes table1 (skipped by expansion)
	var ids []string
	want := 0
	for _, e := range reg {
		ids = append(ids, e.ID)
		if e.Kind != experiments.ConfigTable {
			want += len(e.Schemes) * 2
		}
	}
	jobs, err := FromSpec(experiments.Spec{Experiments: ids, Seeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != want {
		t.Fatalf("grid has %d jobs, want %d", len(jobs), want)
	}
	// Scheme override applies to every experiment; an unset seed
	// defaults to seed 1.
	jobs, err = FromSpec(experiments.Spec{Experiments: ids[:3], Schemes: []string{"CCFIT"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if j.Scheme != "CCFIT" || j.Seed != 1 {
			t.Fatalf("override broken: %+v", j)
		}
	}
}

func TestProgressTelemetry(t *testing.T) {
	exp := scaledRegistry()[0]
	exp.Duration = sim.CyclesFromMS(0.05)
	jobs := grid([]experiments.Experiment{exp}, nil, []int64{1})
	var events []Event
	_ = mustRun(t, jobs, Options{Workers: 3, Progress: func(ev Event) { events = append(events, ev) }})
	starts, finishes := 0, 0
	lastDone := 0
	for _, ev := range events {
		switch ev.Type {
		case JobStart:
			starts++
		default:
			finishes++
			if ev.Done != lastDone+1 {
				t.Fatalf("done counter skipped: %d after %d", ev.Done, lastDone)
			}
			lastDone = ev.Done
			if ev.Total != len(jobs) || ev.JobElapsed <= 0 {
				t.Fatalf("bad event: %+v", ev)
			}
		}
	}
	if starts != len(jobs) || finishes != len(jobs) {
		t.Fatalf("starts=%d finishes=%d, want %d each", starts, finishes, len(jobs))
	}

	// The stream renderer emits one [done/total] line per finish.
	var buf bytes.Buffer
	render := NewProgress(&buf)
	for _, ev := range events {
		render(ev)
	}
	// ... and under it, for a job that ran locally, its engine line.
	lines := strings.Count(buf.String(), "\n")
	if engine := strings.Count(buf.String(), "\n        elided: "); lines != 2*len(jobs) || engine != len(jobs) {
		t.Fatalf("progress rendered %d lines (%d engine lines), want %d jobs with one each:\n%s", lines, engine, len(jobs), buf.String())
	}
	if !strings.Contains(buf.String(), "[4/4]") {
		t.Fatalf("final progress line missing:\n%s", buf.String())
	}
}

func TestManifestRoundTrip(t *testing.T) {
	exp := scaledRegistry()[0]
	jobs := grid([]experiments.Experiment{exp}, []string{"CCFIT"}, []int64{1})
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Workers: 1, Cache: cache}
	start := time.Now()
	results := mustRun(t, jobs, opt)
	m := NewManifest("test", opt, start, results)
	if m.Jobs != 1 || m.Failed != 0 || m.Cached != 0 {
		t.Fatalf("manifest counters: %+v", m)
	}
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Runs) != 1 || back.Runs[0].Status != "ok" ||
		back.Runs[0].Experiment != exp.ID || back.Runs[0].CacheKey == "" {
		t.Fatalf("manifest round-trip: %+v", back.Runs)
	}
	if back.Runs[0].MeanNormalized <= 0 || back.Runs[0].DeliveredPkts <= 0 {
		t.Fatalf("manifest lost the headline metrics: %+v", back.Runs[0])
	}

	// A warm re-run records cached status.
	results = mustRun(t, jobs, opt)
	m = NewManifest("test", opt, start, results)
	if m.Cached != 1 || m.Runs[0].Status != "cached" {
		t.Fatalf("cached status not recorded: %+v", m.Runs[0])
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	exp, err := experiments.ByID("fig7a")
	if err != nil {
		t.Fatal(err)
	}
	p := core.PresetCCFIT()
	base := Key(exp, "CCFIT", 1, p)
	if k := Key(exp, "CCFIT", 1, p); k != base {
		t.Fatal("key not stable")
	}
	if k := Key(exp, "CCFIT", 2, p); k == base {
		t.Fatal("seed not in key")
	}
	if k := Key(exp, "ITh", 1, p); k == base {
		t.Fatal("scheme not in key")
	}
	p2 := p
	p2.NumCFQs = 4
	if k := Key(exp, "CCFIT", 1, p2); k == base {
		t.Fatal("params not in key")
	}
	exp2 := exp
	exp2.Duration = exp.Duration / 2
	if k := Key(exp2, "CCFIT", 1, p); k == base {
		t.Fatal("duration not in key")
	}
	exp3 := exp
	exp3.ID = "other"
	if k := Key(exp3, "CCFIT", 1, p); k == base {
		t.Fatal("experiment id not in key")
	}
	// A tracer is an observer, not an input: it must not change the key.
	p3 := p
	p3.Tracer = trace.NewRing(1)
	if k := Key(exp, "CCFIT", 1, p3); k != base {
		t.Fatal("tracer leaked into the key")
	}
}

func TestCacheMissOnCorruptEntry(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := experiments.ByID("fig7a")
	key := Key(exp, "CCFIT", 1, core.PresetCCFIT())
	if _, ok, gerr := cache.Get(key); ok || gerr != nil {
		t.Fatalf("empty cache: ok=%v err=%v, want clean miss", ok, gerr)
	}
	r := &experiments.Result{ExpID: "fig7a", Scheme: "CCFIT", Seed: 1, Normalized: []float64{0.5}}
	if err := cache.Put(key, r); err != nil {
		t.Fatal(err)
	}
	got, ok, gerr := cache.Get(key)
	if !ok || gerr != nil || got.Normalized[0] != 0.5 {
		t.Fatalf("round-trip failed: %+v ok=%v err=%v", got, ok, gerr)
	}
	// A corrupt entry is a miss, but — unlike a clean miss — carries
	// the decode error so the caller can log and Remove it.
	if err := os.WriteFile(cache.path(key), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, gerr := cache.Get(key); ok || gerr == nil {
		t.Fatalf("corrupt entry: ok=%v err=%v, want miss with error", ok, gerr)
	}
	if err := cache.Remove(key); err != nil {
		t.Fatal(err)
	}
	if _, ok, gerr := cache.Get(key); ok || gerr != nil {
		t.Fatalf("after Remove: ok=%v err=%v, want clean miss", ok, gerr)
	}
	if err := cache.Remove(key); err != nil {
		t.Fatalf("Remove of absent entry errored: %v", err)
	}
}

// TestCorruptCacheEntryRecovers is the end-to-end recovery contract:
// a cache file truncated mid-bytes must not fail the job — the runner
// logs it, recomputes, overwrites the slot, and the next campaign hits
// the repaired entry.
func TestCorruptCacheEntryRecovers(t *testing.T) {
	exp := scaledRegistry()[0]
	jobs := grid([]experiments.Experiment{exp}, []string{"CCFIT"}, []int64{1})
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := mustRun(t, jobs, Options{Workers: 1, Cache: cache})
	entry := cache.path(first[0].Key)
	data, err := os.ReadFile(entry)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entry, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	corrupt := 0
	second := mustRun(t, jobs, Options{Workers: 1, Cache: cache, Progress: func(ev Event) {
		if ev.Type == JobCacheCorrupt {
			corrupt++
			if ev.Err == nil {
				t.Error("JobCacheCorrupt event without the decode error")
			}
		}
	}})
	if corrupt != 1 {
		t.Fatalf("saw %d JobCacheCorrupt events, want 1", corrupt)
	}
	if second[0].Cached {
		t.Fatal("truncated entry served as a cache hit")
	}
	if !bytes.Equal(encode(t, first[0].Result), encode(t, second[0].Result)) {
		t.Fatal("recomputed result differs from the original")
	}
	// The recompute overwrote the corrupt slot.
	third := mustRun(t, jobs, Options{Workers: 1, Cache: cache})
	if !third[0].Cached {
		t.Fatal("repaired entry not served from cache")
	}
	if !bytes.Equal(encode(t, first[0].Result), encode(t, third[0].Result)) {
		t.Fatal("repaired entry differs from the original")
	}
}

// TestPanicRunsOnce: a job runs once — a Build that panics is built
// exactly once, with and without a timeout (a fixed-seed panic would
// repeat on every attempt), and reports one attempt.
func TestPanicRunsOnce(t *testing.T) {
	for _, timeout := range []time.Duration{0, time.Minute} {
		var builds atomic.Int32
		crash := syntheticExp("xcrash", func(core.Params, int64, sim.Cycle, sim.Cycle, experiments.BuildOpts) (*network.Network, error) {
			builds.Add(1)
			panic("synthetic crash")
		})
		results, err := Run(context.Background(), []Job{{Scheme: "CCFIT", Seed: 1, Exp: crash}}, Options{Workers: 1, Timeout: timeout})
		if err != nil {
			t.Fatal(err)
		}
		r := results[0]
		if r.Err == nil || !strings.Contains(r.Err.Error(), "synthetic crash") || r.Quarantined {
			t.Fatalf("timeout %v: want a contained panic, got err=%v quarantined=%v", timeout, r.Err, r.Quarantined)
		}
		if n := builds.Load(); n != 1 || r.Attempts != 1 {
			t.Fatalf("timeout %v: %d builds, Attempts=%d; want 1 and 1", timeout, n, r.Attempts)
		}
	}
}

// TestQuarantineOnInvariantViolation: a scripted switch wedge trips
// the forward-progress watchdog; the violation is deterministic, so
// the job is quarantined after its one attempt, with the diagnostic
// snapshot attached and a "quarantined" manifest row.
func TestQuarantineOnInvariantViolation(t *testing.T) {
	wedged := syntheticExp("xwedged", func(p core.Params, seed int64, bin, end sim.Cycle, _ experiments.BuildOpts) (*network.Network, error) {
		n, err := network.Build(topo.Config1(), p, network.Options{Seed: seed, BinCycles: bin})
		if err != nil {
			return nil, err
		}
		// A short burst that is still in flight when the wedge hits.
		return n, n.AddFlows([]traffic.Flow{{ID: 0, Src: 0, Dst: 3, Start: 0, End: 5_000, Rate: 1.0}})
	})
	wedged.Duration = 200_000
	swA := topo.Config1SwitchA
	script := &fault.Script{Name: "wedge-swA", Events: []fault.Event{
		{Kind: fault.SwitchStall, At: 1_000, Switch: &swA}, // Duration 0: wedged for good
	}}
	opt := Options{Workers: 1}
	start := time.Now()
	results, err := Run(context.Background(),
		[]Job{{Scheme: "CCFIT", Seed: 1, Exp: wedged, Faults: script, Watchdog: 10_000}}, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if !invariant.IsViolation(r.Err) {
		t.Fatalf("want an invariant violation, got %v", r.Err)
	}
	if !strings.Contains(r.Err.Error(), "watchdog") {
		t.Fatalf("want the watchdog to fire, got %v", r.Err)
	}
	if !r.Quarantined || r.Attempts != 1 {
		t.Fatalf("violation not quarantined: quarantined=%v attempts=%d", r.Quarantined, r.Attempts)
	}
	if !strings.Contains(r.Diagnostics, "swA") {
		t.Fatalf("diagnostics do not name the wedged switch:\n%s", r.Diagnostics)
	}
	m := NewManifest("test", opt, start, results)
	if m.Runs[0].Status != "quarantined" || m.Runs[0].Diagnostics == "" || m.Runs[0].Faults != "wedge-swA" {
		t.Fatalf("manifest row: %+v", m.Runs[0])
	}
	if m.Failed != 1 {
		t.Fatalf("manifest Failed=%d, want 1", m.Failed)
	}
}

// TestQuarantineIsCached: a quarantined outcome is stored at the job's
// quarantine key, and the next run of the job at the same watchdog
// window reports it — error text and snapshot — without building a
// network. Another window misses it, and a corrupt entry is dropped and
// recomputed.
func TestQuarantineIsCached(t *testing.T) {
	var builds atomic.Int32
	wedged := syntheticExp("xwedged-cached", func(p core.Params, seed int64, bin, end sim.Cycle, _ experiments.BuildOpts) (*network.Network, error) {
		builds.Add(1)
		n, err := network.Build(topo.Config1(), p, network.Options{Seed: seed, BinCycles: bin})
		if err != nil {
			return nil, err
		}
		return n, n.AddFlows([]traffic.Flow{{ID: 0, Src: 0, Dst: 3, Start: 0, End: 5_000, Rate: 1.0}})
	})
	wedged.Duration = 200_000
	swA := topo.Config1SwitchA
	job := Job{Scheme: "CCFIT", Seed: 1, Exp: wedged, Watchdog: 10_000, Faults: &fault.Script{
		Name: "wedge-swA", Events: []fault.Event{{Kind: fault.SwitchStall, At: 1_000, Switch: &swA}},
	}}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &LocalExecutor{Cache: cache}
	first := e.Execute(context.Background(), job, nil)
	if !first.Quarantined || first.Attempts != 1 || builds.Load() != 1 {
		t.Fatalf("first run: quarantined=%v attempts=%d builds=%d", first.Quarantined, first.Attempts, builds.Load())
	}
	if got := cache.Holds(job); got != OutcomeQuarantined {
		t.Fatalf("cache holds %q for the job, want quarantined", got)
	}
	var terminal []EventType
	hit := e.Execute(context.Background(), job, func(ev Event) {
		if ev.Type.Terminal() {
			terminal = append(terminal, ev.Type)
		}
	})
	if !hit.Quarantined || hit.Attempts != 0 || builds.Load() != 1 {
		t.Fatalf("second run: quarantined=%v attempts=%d builds=%d, want a cached quarantine", hit.Quarantined, hit.Attempts, builds.Load())
	}
	if hit.Err == nil || hit.Err.Error() != first.Err.Error() || hit.Diagnostics != first.Diagnostics || hit.Key != first.Key || first.Key == "" {
		t.Fatalf("cached quarantine reads %v / %q / key %q, want the first run's (key %q)", hit.Err, hit.Diagnostics, hit.Key, first.Key)
	}
	if len(terminal) != 1 || terminal[0] != JobFailed {
		t.Fatalf("terminal events %v, want one JobFailed", terminal)
	}
	if back, ok := cache.Recall(job); !ok || !back.Quarantined || back.Diagnostics != first.Diagnostics || back.Key != first.Key {
		t.Fatalf("Recall: ok=%v quarantined=%v key %q, want key %q", ok, back.Quarantined, back.Key, first.Key)
	}

	other := job
	other.Watchdog = 20_000
	if got := cache.Holds(other); got != "" {
		t.Fatalf("cache holds %q at another watchdog window", got)
	}
	if jr := e.Execute(context.Background(), other, nil); jr.Attempts != 1 || builds.Load() != 2 {
		t.Fatalf("another window: attempts=%d builds=%d, want a fresh run", jr.Attempts, builds.Load())
	}

	r, err := resolve(job)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.path(quarantineKey(r)), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	corrupt := 0
	jr := e.Execute(context.Background(), job, func(ev Event) {
		if ev.Type == JobCacheCorrupt {
			corrupt++
		}
	})
	if corrupt != 1 || !jr.Quarantined || jr.Attempts != 1 || builds.Load() != 3 {
		t.Fatalf("corrupt entry: %d corrupt events, quarantined=%v attempts=%d builds=%d", corrupt, jr.Quarantined, jr.Attempts, builds.Load())
	}

	// A quarantine an Offload returns is cached like a local one.
	remote := job
	remote.Seed = 2
	offload := func(_ context.Context, _ Job, key string, _ func(Event)) (JobResult, bool) {
		return JobResult{Err: errors.New("remote violation"), Quarantined: true, Diagnostics: "swA on a worker", Key: key, Attempts: 1}, true
	}
	e.ExecuteVia(context.Background(), remote, nil, offload)
	refuse := func(context.Context, Job, string, func(Event)) (JobResult, bool) {
		t.Fatal("a cached remote quarantine was offloaded again")
		return JobResult{}, false
	}
	if jr := e.ExecuteVia(context.Background(), remote, nil, refuse); !jr.Quarantined || jr.Diagnostics != "swA on a worker" || builds.Load() != 3 {
		t.Fatalf("remote quarantine reads quarantined=%v %q, builds=%d", jr.Quarantined, jr.Diagnostics, builds.Load())
	}
}

// TestLoadPointsKeyTheirExactLoad: two loads that read alike at three
// decimals are two cells — distinct cache keys, and through one cache
// the second load is simulated, not served the first one's result.
func TestLoadPointsKeyTheirExactLoad(t *testing.T) {
	jobs, err := FromSpec(experiments.Spec{Experiments: []string{"loadcurve-c2-load0.1234", "loadcurve-c2-load0.1226"},
		Schemes: []string{"1Q"}, MS: 1})
	if err != nil {
		t.Fatal(err)
	}
	k0, err := JobKey(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	k1, err := JobKey(jobs[1])
	if err != nil {
		t.Fatal(err)
	}
	if k0 == k1 {
		t.Fatalf("loads 0.1234 and 0.1226 share the cache key %s", k0)
	}
	var own [2]int64
	for i, job := range jobs {
		own[i] = mustRun(t, []Job{job}, Options{Workers: 1})[0].Result.Summary.DeliveredPkts
	}
	if own[0] == own[1] {
		t.Fatalf("both loads deliver %d packets: the case no longer tells them apart", own[0])
	}
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range mustRun(t, jobs, Options{Workers: 1, Cache: cache}) {
		if got := jr.Result.Summary.DeliveredPkts; jr.Cached || got != own[i] {
			t.Errorf("%s through the cache: cached=%v, %d packets, want a run delivering %d", jr.Job, jr.Cached, got, own[i])
		}
	}
}

// TestFaultScriptInCacheKey: a faulted run must never collide with the
// fault-free run of the same grid point.
func TestFaultScriptInCacheKey(t *testing.T) {
	exp, err := experiments.ByID("fig7a")
	if err != nil {
		t.Fatal(err)
	}
	p := core.PresetCCFIT()
	base := Key(exp, "CCFIT", 1, p)
	if k := Key(exp, "CCFIT", 1, p, "faults=x"); k == base {
		t.Fatal("fault facet not in key")
	}
	if k1, k2 := Key(exp, "CCFIT", 1, p, "faults=x"), Key(exp, "CCFIT", 1, p, "faults=y"); k1 == k2 {
		t.Fatal("distinct fault scripts share a key")
	}
}
