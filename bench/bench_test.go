package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is ../BENCHMARK.json as the driver reads it.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestTablesMatchBenchmarkJSON holds the tables the program emits from
// equal to the file the driver reads.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n json %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n json %+v\n code %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, workloads.go %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: json %+v, code {%s %s}", i, b.Workloads[i], w.name, w.why)
		}
	}
	if want := []string{"bash", "bench/run.sh"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command = %v, want %v", b.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths = %v, want %v", b.Paths, want)
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4), exclusive method.
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 8.25},
		{[]float64{3, 1}, 0.5, 3.5}, // two values: Python extrapolates past the ends
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{7}, 7, 7}, // no spread to report (Python raises)
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestHiPercentile pins the reporting rule: the highest ladder
// percentile with at least ten samples beyond it.
func TestHiPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending input: the rule must sort
		}
		return xs
	}
	cases := []struct {
		n       int
		pct, at float64
	}{
		{5, 50, 3},
		{19, 50, 10},
		{20, 50, 10.5},
		{99, 50, 50},
		{100, 90, 90}, // exactly ten samples above the value
		{199, 90, 180},
		{200, 95, 190},
		{1000, 99, 990},
		{9999, 99, 9900},
		{10000, 99.9, 9990},
	}
	for _, c := range cases {
		pct, v, n := hiPercentile(seq(c.n))
		if pct != c.pct || v != c.at || n != c.n {
			t.Errorf("n=%d: got p%g=%g (n=%d), want p%g=%g", c.n, pct, v, n, c.pct, c.at)
		}
		if pct > 50 {
			beyond := 0
			for _, x := range seq(c.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%g", c.n, beyond, pct)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(n int64) int64 { return n * int64(time.Millisecond) }
	spans := []span{
		{ID: 0, Name: "cell", Parent: -1, StartNS: 0, EndNS: ms(100)},
		{ID: 1, Name: "build", Parent: 0, StartNS: ms(5), EndNS: ms(15)},
		{ID: 2, Name: "run", Parent: 0, StartNS: ms(15), EndNS: ms(95)},
		{ID: 3, Name: "window", Parent: 2, StartNS: ms(15), EndNS: ms(50)},
		{ID: 4, Name: "window", Parent: 2, StartNS: ms(52), EndNS: ms(95)},
		{ID: 5, Name: "late", Parent: 1, StartNS: ms(10), EndNS: ms(30)}, // overruns its parent: clipped
	}
	want := []time.Duration{10, 5, 2, 35, 43, 20}
	for i, d := range selfTimes(spans) {
		if d != want[i]*time.Millisecond {
			t.Errorf("span %d (%s): self %v, want %v", i, spans[i].Name, d, want[i]*time.Millisecond)
		}
	}
	if got := selfByName(spans)["window"]; got != 78*time.Millisecond {
		t.Errorf("window self total %v", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	a := tr.begin("a", "c1")
	b := tr.begin("b", "c1")
	tr.end(b)
	c := tr.begin("c", "c1")
	tr.end(a) // closes c too
	if tr.spans[b].Parent != a || tr.spans[c].Parent != a || tr.spans[a].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if tr.spans[c].EndNS == 0 || len(tr.open) != 0 {
		t.Errorf("end(a) left spans open: %+v open=%v", tr.spans, tr.open)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Better: "higher", Bound: 0.10}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want verdictKind
	}{
		{"within bound", lower, []float64{10, 10.1, 9.9}, []float64{10.5, 10.4, 10.6}, vSame},
		{"slower beyond bound", lower, []float64{10, 10.1, 9.9}, []float64{11.5, 11.4, 11.6}, vWorse},
		{"faster beyond bound", lower, []float64{10, 10.1, 9.9}, []float64{8.5, 8.4, 8.6}, vBetter},
		{"noisy and overlapping", lower, []float64{10, 12, 9}, []float64{11.5, 9.5, 13}, vUnresolved},
		{"noisy but disjoint", lower, []float64{10, 12, 9}, []float64{6, 7, 5.5}, vBetter},
		{"higher is better: drop", higher, []float64{100, 101, 99}, []float64{80, 81, 79}, vWorse},
		{"higher is better: gain", higher, []float64{100, 101, 99}, []float64{120, 121, 119}, vBetter},
		{"single runs", lower, []float64{10}, []float64{10.5}, vSame},
		{"zero base", lower, []float64{0}, []float64{1}, vUnresolved},
	}
	for _, c := range cases {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	mk := func(wall float64, cycles float64) *resultFile {
		f := &resultFile{}
		for i := 0; i < 3; i++ {
			f.Runs = append(f.Runs, &runResult{Workload: "paper_grid", Seed: 1, Correct: true, Attempted: 25,
				Metrics: map[string]measure{"wall_s": {Value: wall + float64(i)*0.01, Unit: "s"}}})
		}
		f.Runs = append(f.Runs, &runResult{Workload: "paper_grid", Seed: 1, Trace: 1, Correct: true, Attempted: 25,
			Metrics: map[string]measure{"model.sim_cycles": {Value: cycles}, "sim.ns_per_cycle": {Value: wall * 100}}})
		return f
	}
	var out bytes.Buffer
	if bad := compareFiles(&out, mk(10, 1000), mk(10.2, 1000)); bad != 0 {
		t.Errorf("same commit: %d findings\n%s", bad, out.String())
	}
	if !strings.Contains(out.String(), "x of 10.01 s") {
		t.Errorf("ratio printed without its base:\n%s", out.String())
	}
	out.Reset()
	if bad := compareFiles(&out, mk(10, 1000), mk(14, 1000)); bad != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("40%% slower: %d findings\n%s", bad, out.String())
	}
	if !strings.Contains(out.String(), "informational") {
		t.Errorf("per-layer move not flagged:\n%s", out.String())
	}
	out.Reset()
	if bad := compareFiles(&out, mk(10, 1000), mk(10, 1001)); bad != 1 || !strings.Contains(out.String(), "must repeat exactly") {
		t.Errorf("model.* drift: %d findings\n%s", bad, out.String())
	}
	out.Reset()
	broken := mk(10, 1000)
	broken.Runs[0].Failed, broken.Runs[0].Correct = 25, false
	if bad := compareFiles(&out, mk(10, 1000), broken); bad != 1 {
		t.Errorf("failed cells on the new side: %d findings\n%s", bad, out.String())
	}
}

func TestArgv(t *testing.T) {
	w, _ := workloadByName("dc_cells_local")
	got := strings.Join(w.full.argv(7, "-manifest", "m.json"), " ")
	if want := "-manifest m.json -workers 2 -seed 7 -seeds 30 xleafincast xleafshuffle"; got != want {
		t.Errorf("argv = %q, want %q", got, want)
	}
	h, _ := workloadByName("hotspot512_par")
	got = strings.Join(h.smoke.argv(1), " ")
	if want := "-workers 1 -sim-workers 2 -seed 1 -ms 0.1 x512hotspot"; got != want {
		t.Errorf("argv = %q, want %q", got, want)
	}
	svc, _ := workloadByName("dc_cells_service")
	if svc.full.key() != w.full.key() {
		t.Errorf("service and local campaigns must share a golden pin: %q vs %q", svc.full.key(), w.full.key())
	}
}

func TestFiguresReference(t *testing.T) {
	ref, err := figuresReference("..", paperIDs)
	if err != nil {
		t.Fatal(err)
	}
	s := string(ref)
	if !strings.HasPrefix(s, "Table I.") || !strings.Contains(s, "\nFig. 8b:") || !strings.Contains(s, "\nFig. 10:") {
		t.Error("reference lacks a requested block")
	}
	if strings.Contains(s, "Fig. 8a:") || strings.Contains(s, "Fig. 8c:") {
		t.Error("reference holds a block that was not requested")
	}
	whole, err := os.ReadFile(filepath.Join("..", "results", "figures.txt"))
	if err != nil {
		t.Fatal(err)
	}
	all, err := figuresReference("..", []string{"table1", "fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c", "fig9", "fig10"})
	if err != nil || !bytes.Equal(all, whole) {
		t.Errorf("every block together must be the whole file (err %v)", err)
	}
	if _, err := figuresReference("..", []string{"fig11"}); err == nil {
		t.Error("a missing block must be an error")
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g, err := loadGolden(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("dc_cells_local")
	if _, ok := g.lookup(w.full, 1); ok {
		t.Fatal("empty store has a pin")
	}
	if err := g.pin(w.full, 1, digest([]byte("a"))); err != nil {
		t.Fatal(err)
	}
	if err := g.pin(w.smoke, 2, digest([]byte("b"))); err != nil {
		t.Fatal(err)
	}
	again, err := loadGolden(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum, ok := again.lookup(w.full, 1); !ok || sum != digest([]byte("a")) {
		t.Errorf("pin lost: %q %v", sum, ok)
	}
	if _, ok := again.lookup(w.full, 2); ok {
		t.Error("seed 2 of the full campaign was never pinned")
	}
}

// TestSmoke drives every workload once untraced and once traced at
// smoke scale through the real front doors, so `go test` catches rot in
// the command lines, the manifest and /metrics shapes and the pinned
// layer surface. It asserts the contract: every metric of BENCHMARK.json
// exactly once per run with a finite value, digests match, children are
// reaped and temp dirs are gone.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLIs and runs them")
	}
	b := readBenchmarkJSON(t)
	work := t.TempDir()
	out := filepath.Join(work, "results.json")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var lastLines []string
	for _, trace := range []string{"0", "1"} {
		var stdout, stderr bytes.Buffer
		code := run(ctx, []string{"-smoke", "-work", work, "-trace", trace, "-out", out}, &stdout, &stderr)
		if code != 0 {
			t.Fatalf("trace=%s: exit %d\nstderr:\n%s\nstdout:\n%s", trace, code, stderr.String(), stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		lastLines = append(lastLines, lines[len(lines)-1])
	}

	f, err := loadResults(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 2*len(workloads) {
		t.Fatalf("%d runs recorded, want %d", len(f.Runs), 2*len(workloads))
	}
	for _, r := range f.Runs {
		defs := b.EndToEnd
		if r.Trace == 1 {
			defs = b.PerLayer
		}
		if len(r.Metrics) != len(defs) {
			t.Errorf("%s trace=%d: %d metrics, BENCHMARK.json lists %d", r.Workload, r.Trace, len(r.Metrics), len(defs))
		}
		for _, d := range defs {
			m, ok := r.Metrics[d.Name]
			switch {
			case !ok:
				t.Errorf("%s trace=%d: %s missing", r.Workload, r.Trace, d.Name)
			case m.Unit != d.Unit:
				t.Errorf("%s %s: unit %q, want %q", r.Workload, d.Name, m.Unit, d.Unit)
			case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
				t.Errorf("%s %s: value %v is not finite", r.Workload, d.Name, m.Value)
			case r.Trace == 0 && m.Value <= 0:
				t.Errorf("%s %s: end-to-end value %v must be positive", r.Workload, d.Name, m.Value)
			}
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d notes=%v", r.Workload, r.Trace, r.Correct, r.Failed, r.Attempted, r.Notes)
		}
		if r.Seed == 1 && r.Golden != "match" {
			t.Errorf("%s trace=%d: golden=%s, want match (smoke seed 1 is pinned)", r.Workload, r.Trace, r.Golden)
		}
		if r.Workload == "dc_cells_service" && r.Trace == 1 {
			if got := r.Metrics["dispatch.leases_granted"].Value; got != float64(r.Attempted) {
				t.Errorf("service granted %v leases for %d cells", got, r.Attempted)
			}
			if got := r.Metrics["dispatch.local_fallbacks"].Value; got != 0 {
				t.Errorf("service fell back to local execution %v times", got)
			}
		}
	}

	// The driver's line: exactly four keys, each metric exactly value+unit.
	for i, line := range lastLines {
		var obj map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &obj); err != nil {
			t.Fatalf("last line of trace=%d output is not JSON: %v\n%s", i, err, line)
		}
		if len(obj) != 4 || obj["correct"] == nil || obj["attempted"] == nil || obj["failed"] == nil || obj["metrics"] == nil {
			t.Errorf("result line keys: %v", sortedKeys(obj))
		}
		var ms map[string]map[string]json.RawMessage
		if err := json.Unmarshal(obj["metrics"], &ms); err != nil {
			t.Fatal(err)
		}
		for name, m := range ms {
			if len(m) != 2 || m["value"] == nil || m["unit"] == nil {
				t.Errorf("%s: result-line metric has keys %v", name, sortedKeys(m))
			}
		}
	}

	// Nothing left behind: temp dirs removed, no child still running.
	if left, _ := filepath.Glob(filepath.Join(work, "tmp", "*")); len(left) > 0 {
		t.Errorf("temp dirs not removed: %v", left)
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if data, err := os.ReadFile(p); err == nil && bytes.Contains(data, []byte(work)) {
			t.Errorf("child still running: %s", bytes.ReplaceAll(data, []byte{0}, []byte(" ")))
		}
	}
}

// TestFleetFailedHealthWait checks that a fleet that cannot come up is
// torn down: launching with a missing binary must return an error and
// leave no process behind.
func TestFleetFailedHealthWait(t *testing.T) {
	dir := t.TempDir()
	if _, err := launchFleet(context.Background(), filepath.Join(dir, "no-such-bin"), filepath.Join(dir, "fleet")); err == nil {
		t.Fatal("launchFleet with no binaries succeeded")
	}
	// A service that starts but never prints its handshake: `sleep`
	// stands in for ccfit-serve. The deadline is the fleet's own.
	if testing.Short() {
		return
	}
	bin := filepath.Join(dir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		t.Fatal(err)
	}
	script := "#!/bin/sh\nexec sleep 600\n"
	if err := os.WriteFile(filepath.Join(bin, "ccfit-serve"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := launchFleet(ctx, bin, filepath.Join(dir, "fleet2")); err == nil {
		t.Fatal("launchFleet with a mute service succeeded")
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if data, err := os.ReadFile(p); err == nil && bytes.Contains(data, []byte("sleep\x00600")) {
			t.Errorf("mute service not reaped: %s", p)
		}
	}
}
