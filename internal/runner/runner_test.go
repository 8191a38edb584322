package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
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
				jobs = append(jobs, Job{ExpID: exps[i].ID, Scheme: s, Seed: seed, Exp: &exps[i]})
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
	for _, jobs := range [][]Job{
		{{ExpID: "nope", Scheme: "CCFIT", Seed: 1}},
		{{ExpID: "fig7a", Scheme: "bogus", Seed: 1}},
		{{ExpID: "table1", Scheme: "CCFIT", Seed: 1}},
	} {
		results, err := Run(context.Background(), jobs, Options{})
		if err == nil {
			t.Fatalf("jobs %v accepted", jobs)
		}
		if results != nil {
			t.Fatal("invalid campaign still produced results")
		}
		if !strings.Contains(err.Error(), "valid experiment ids") {
			t.Fatalf("error does not list valid ids: %v", err)
		}
	}
	// Bad params fail before anything runs too.
	p := core.PresetCCFIT()
	p.NumCFQs = 0
	_, err := Run(context.Background(), []Job{{ExpID: "fig7a", Scheme: "CCFIT", Seed: 1, Params: &p}}, Options{})
	if err == nil {
		t.Fatal("invalid params accepted")
	}
}

// syntheticExp wraps a Build function as a runnable experiment.
func syntheticExp(id string, build func(core.Params, int64, sim.Cycle, sim.Cycle, experiments.BuildOpts) (*network.Network, error)) *experiments.Experiment {
	return &experiments.Experiment{
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
		{ExpID: "fig7a", Scheme: "CCFIT", Seed: 1, Exp: &good},
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

// A panic inside a shard of the partitioned engine — raised on whatever
// goroutine was advancing that shard — must come out as one failed job
// like any other panic: the process survives and the jobs around it
// complete.
func TestShardPanicBecomesJobFailure(t *testing.T) {
	boom := syntheticExp("xshardpanic", func(p core.Params, seed int64, bin, end sim.Cycle, _ experiments.BuildOpts) (*network.Network, error) {
		// SimWorkers is set here, not taken from the job: the runner
		// caps a job's value on small hosts, and this test is about the
		// partitioned engine wherever it runs.
		n, err := experiments.BuildConfig3(p, seed, bin, end, 1, experiments.BuildOpts{SimWorkers: 2})
		if err != nil {
			return nil, err
		}
		part := n.PartitionInfo()
		if part == nil || part.N < 4 {
			t.Errorf("xshardpanic did not build partitioned: %+v", part)
			return n, nil
		}
		// Every sink outside shard 0 panics on its first delivery, inside
		// its shard's advance.
		for e, node := range n.Nodes {
			if shard := part.ShardOf[n.Topo.EndpointDevice(e)]; shard != 0 {
				node.SetDeliverHook(func(*pkt.Packet, sim.Cycle) {
					panic(fmt.Sprintf("synthetic crash in shard %d", shard))
				})
			}
		}
		return n, nil
	})
	// The healthy neighbours run partitioned too (again forced in Build),
	// and say so on their JobDone.
	sharded := syntheticExp("xsharded", func(p core.Params, seed int64, bin, end sim.Cycle, _ experiments.BuildOpts) (*network.Network, error) {
		return experiments.BuildConfig1(p, seed, bin, end, experiments.BuildOpts{SimWorkers: 2})
	})
	jobs := []Job{
		{Scheme: "CCFIT", Seed: 1, Exp: sharded},
		{Scheme: "CCFIT", Seed: 1, Exp: boom},
		{Scheme: "CCFIT", Seed: 2, Exp: sharded},
	}
	var progress bytes.Buffer
	engine := map[int]string{}
	print := NewProgress(&progress)
	results, err := Run(context.Background(), jobs, Options{Workers: 1, Progress: func(ev Event) {
		if ev.Type.Terminal() {
			engine[ev.Index] = ev.Engine
		}
		print(ev)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if e := results[1].Err; e == nil || !strings.Contains(e.Error(), "panicked") || !strings.Contains(e.Error(), "synthetic crash in shard") {
		t.Fatalf("shard panic not converted to a job failure: %v", e)
	}
	if results[1].Quarantined {
		t.Fatal("a plain shard panic was quarantined as an invariant violation")
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || results[i].Result == nil {
			t.Fatalf("job %d damaged by the neighbouring shard panic: %v", i, results[i].Err)
		}
		if !strings.HasPrefix(engine[i], "partition: 2 shards on 2 workers, 1 cut links") || !strings.Contains(engine[i], "; elided: ") {
			t.Fatalf("job %d's JobDone describes its engine as %q", i, engine[i])
		}
	}
	if engine[1] != "" {
		t.Fatalf("the failed job's event carries an engine line: %q", engine[1])
	}
	if got := strings.Count(progress.String(), "\n        partition: 2 shards on 2 workers"); got != 2 {
		t.Fatalf("-v output has %d partition lines, want one under each partitioned job:\n%s", got, progress.String())
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

// TestRetryTransientFailure: a job that crashes twice and then
// succeeds is healed by Retries without poisoning the campaign.
func TestRetryTransientFailure(t *testing.T) {
	var calls atomic.Int32
	flaky := syntheticExp("xflaky", func(p core.Params, seed int64, bin, end sim.Cycle, _ experiments.BuildOpts) (*network.Network, error) {
		if calls.Add(1) < 3 {
			panic("synthetic transient crash")
		}
		n, err := network.Build(topo.Config1(), p, network.Options{Seed: seed, BinCycles: bin})
		if err != nil {
			return nil, err
		}
		return n, n.AddFlows([]traffic.Flow{{ID: 0, Src: 0, Dst: 3, Start: 0, End: end, Rate: 0.5}})
	})
	retries := 0
	results, err := Run(context.Background(),
		[]Job{{Scheme: "CCFIT", Seed: 1, Exp: flaky}},
		Options{Workers: 1, Retries: 3, RetryBackoff: time.Millisecond, Progress: func(ev Event) {
			if ev.Type == JobRetry {
				retries++
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	r := results[0]
	if r.Err != nil {
		t.Fatalf("retries did not heal the job: %v", r.Err)
	}
	if r.Attempts != 3 || retries != 2 {
		t.Fatalf("Attempts=%d retry events=%d, want 3 and 2", r.Attempts, retries)
	}
	if r.Result == nil || r.Quarantined {
		t.Fatalf("healed job carries bad state: %+v", r)
	}
}

// TestQuarantineOnInvariantViolation: a scripted switch wedge trips
// the forward-progress watchdog; the violation is deterministic, so
// the job is quarantined on the first attempt — never retried — with
// the diagnostic snapshot attached and a "quarantined" manifest row.
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
	retries := 0
	opt := Options{Workers: 1, Retries: 3, Progress: func(ev Event) {
		if ev.Type == JobRetry {
			retries++
		}
	}}
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
	if !r.Quarantined || r.Attempts != 1 || retries != 0 {
		t.Fatalf("violation not quarantined: quarantined=%v attempts=%d retries=%d", r.Quarantined, r.Attempts, retries)
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
