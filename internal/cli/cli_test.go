package cli

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// tools drives each front door in-process at a tiny -ms. args is a
// campaign of a few cells; every case sets -workers so the sweep and
// load-curve headers do not depend on the host.
var tools = []struct {
	name string
	run  func(args []string, stdout, stderr io.Writer) int
	args []string
}{
	{"ccfit-run", func(a []string, o, e io.Writer) int { return Figures("ccfit-run", a, o, e) },
		[]string{"-workers", "2", "-ms", "0.05", "-schemes", "1Q,CCFIT", "table1", "fig7a", "fig9"}},
	{"ccfit-figures", func(a []string, o, e io.Writer) int { return Figures("ccfit-figures", a, o, e) },
		[]string{"-workers", "2", "-ms", "0.05", "-seeds", "2", "-schemes", "1Q,CCFIT", "fig7a", "xleafincast"}},
	{"ccfit-sweep", Sweep,
		[]string{"-workers", "2", "-ms", "0.05", "-seeds", "2", "-exp", "fig7a", "-param", "stopgo"}},
	{"ccfit-loadcurve", LoadCurve,
		[]string{"-workers", "2", "-ms", "0.05", "-schemes", "1Q,CCFIT", "-loads", "0.4,0.9"}},
}

// drive runs one tool and returns its exit status, stdout and stderr.
func drive(run func([]string, io.Writer, io.Writer) int, args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// serve starts an in-process campaign service and returns its URL.
func serve(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cache, err := runner.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := campaign.Open(campaign.Options{Dir: filepath.Join(dir, "journal"), Cache: cache, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(campaign.NewServer(sched))
	t.Cleanup(func() {
		ts.Close()
		if err := sched.Close(); err != nil {
			t.Errorf("scheduler close: %v", err)
		}
	})
	return ts.URL
}

// TestServerRendersLikeLocal: every tool prints byte-identical stdout
// whether its campaign runs in-process or on a ccfit-serve instance.
func TestServerRendersLikeLocal(t *testing.T) {
	url := serve(t)
	for _, tool := range tools {
		t.Run(tool.name, func(t *testing.T) {
			code, local, stderr := drive(tool.run, tool.args...)
			if code != 0 || local == "" {
				t.Fatalf("local run: exit %d, stdout %q, stderr:\n%s", code, local, stderr)
			}
			code, remote, stderr := drive(tool.run, append([]string{"-server", url}, tool.args...)...)
			if code != 0 {
				t.Fatalf("-server run: exit %d, stderr:\n%s", code, stderr)
			}
			if remote != local {
				t.Errorf("-server stdout differs from local\n--- local\n%s--- remote\n%s", local, remote)
			}
			if !strings.Contains(stderr, "submitted to "+url) {
				t.Errorf("-server run did not announce its campaign id:\n%s", stderr)
			}
		})
	}
}

// TestManifestLikeLocal: a -server campaign's manifest records the same
// job outcomes as the local one — status, a real elapsed time for every
// fresh run (the results endpoint used to drop it), and the invariant
// checker's snapshot of a quarantined job.
func TestManifestLikeLocal(t *testing.T) {
	stall := filepath.Join(t.TempDir(), "stall.json")
	if err := os.WriteFile(stall, []byte(`{"name":"wedge","events":[{"kind":"switch-stall","at":1000,"switch":8}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	type run struct {
		Status      string  `json:"status"`
		ElapsedMS   float64 `json:"elapsed_ms"`
		Diagnostics string  `json:"diagnostics"`
	}
	manifest := func(args ...string) []run {
		t.Helper()
		path := filepath.Join(t.TempDir(), "m.json")
		_, _, stderr := drive(tools[0].run, append(args, "-manifest", path, "-ms", "0.5", "-schemes", "1Q,CCFIT", "fig7a")...)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("no manifest: %v; stderr:\n%s", err, stderr)
		}
		var m struct {
			Runs []run `json:"runs"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		return m.Runs
	}
	cache, server := []string{"-cache", t.TempDir()}, []string{"-server", serve(t)}
	for _, c := range []struct {
		name   string
		args   []string
		status string
	}{
		{"fresh", nil, "ok"},
		{"repeated", nil, "cached"},
		{"wedged", []string{"-faults", stall, "-watchdog", "5000"}, "quarantined"},
	} {
		local, remote := manifest(append(cache, c.args...)...), manifest(append(server, c.args...)...)
		if len(local) != 2 || len(remote) != 2 {
			t.Fatalf("%s: %d local and %d remote runs, want 2 each", c.name, len(local), len(remote))
		}
		for i := range local {
			for side, r := range map[string]run{"local": local[i], "-server": remote[i]} {
				if r.Status != c.status {
					t.Errorf("%s run %d %s: status %q, want %q", c.name, i, side, r.Status, c.status)
				}
				if c.status != "cached" && r.ElapsedMS <= 0 {
					t.Errorf("%s run %d %s: elapsed_ms %v, want the job's wall-clock", c.name, i, side, r.ElapsedMS)
				}
				if (c.status == "quarantined") != strings.Contains(r.Diagnostics, "sw") {
					t.Errorf("%s run %d %s: diagnostics %q", c.name, i, side, r.Diagnostics)
				}
			}
		}
	}
}

// TestFiguresIsRunUnderItsOwnName: same arguments, same bytes; only the
// manifest's tool field tells the two apart.
func TestFiguresIsRunUnderItsOwnName(t *testing.T) {
	outputs := map[string]string{}
	for _, tool := range tools[:2] {
		dir := t.TempDir()
		code, stdout, stderr := drive(tool.run, "-workers", "2", "-ms", "0.05", "-csv", dir, "table1", "fig7a", "xleafincast")
		if code != 0 {
			t.Fatalf("%s: exit %d, stderr:\n%s", tool.name, code, stderr)
		}
		outputs[tool.name] = stdout
		data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatalf("%s -csv wrote no manifest: %v", tool.name, err)
		}
		var m struct {
			Tool string `json:"tool"`
			Runs []struct {
				Status    string   `json:"status"`
				ElapsedMS *float64 `json:"elapsed_ms"`
			} `json:"runs"`
		}
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		if m.Tool != tool.name || len(m.Runs) == 0 {
			t.Errorf("%s manifest: tool %q, %d runs", tool.name, m.Tool, len(m.Runs))
		}
		for _, r := range m.Runs {
			if r.Status != "ok" || r.ElapsedMS == nil {
				t.Errorf("%s manifest run: %+v", tool.name, r)
			}
		}
		for _, f := range []string{"fig7a.csv", "xleafincast.csv"} {
			if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
				t.Errorf("%s: %v", tool.name, err)
			}
		}
	}
	if outputs["ccfit-run"] != outputs["ccfit-figures"] {
		t.Error("ccfit-figures stdout differs from ccfit-run's for the same arguments")
	}
	if !strings.Contains(outputs["ccfit-figures"], "FCT slowdown") {
		t.Error("finite-flow extra rendered no FCT table")
	}
}

// TestStaticTablesOnly: a request that expands to zero cells still
// renders, and still writes a (zero-job) manifest.
func TestStaticTablesOnly(t *testing.T) {
	manifest := filepath.Join(t.TempDir(), "m.json")
	code, stdout, stderr := drive(tools[0].run, "-manifest", manifest, "table1")
	if code != 0 || !strings.Contains(stdout, "Table I") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if _, err := os.Stat(manifest); err != nil {
		t.Error(err)
	}
}

func TestList(t *testing.T) {
	_, run, _ := drive(tools[0].run, "-list")
	code, figures, _ := drive(tools[1].run, "-list")
	if code != 0 || run != figures {
		t.Fatalf("exit %d; -list differs between ccfit-run and ccfit-figures", code)
	}
	for _, id := range []string{"table1", "fig7a", "xleafincast"} {
		if !strings.Contains(run, id) {
			t.Errorf("-list lacks %s:\n%s", id, run)
		}
	}
}

// TestRejectedBeforeSimulating: bad input fails at validation — nothing
// on stdout, nothing stored in the cache, the reason on stderr.
func TestRejectedBeforeSimulating(t *testing.T) {
	cases := []struct {
		tool int
		args []string
		want string // substring of stderr
		code int
	}{
		{0, []string{"bogus"}, "unknown experiment id", 1},
		{1, []string{"fig7a", "nope"}, "unknown experiment id", 1},
		{0, []string{"-schemes", "BOGUS", "fig7a"}, "unknown scheme", 1},
		{3, []string{"-schemes", "BOGUS"}, "unknown scheme", 1},
		{2, []string{"-scheme", "BOGUS"}, "unknown scheme", 1},
		{2, []string{"-param", "bogus"}, "unknown parameter", 1},
		{2, []string{"-exp", "bogus"}, "unknown experiment", 1},
		{3, []string{"-config", "4"}, "config 2 or 3", 1},
		{3, []string{"-loads", "0.5x,0.9junk"}, `bad load "0.5x"`, 1},
		{3, []string{"-loads", "0.5,1.5"}, `bad load "1.5"`, 1},
		{3, []string{"-loads", "NaN"}, `bad load "NaN"`, 1},
		{0, []string{"-no-such-flag"}, "flag provided but not defined", 2},
		// -seeds N <= 0 used to panic after running the grid (ccfit-run,
		// ccfit-figures) or print every point as failed (ccfit-sweep).
		{0, []string{"-seeds", "0", "fig7a"}, "-seeds must be at least 1", 1},
		{1, []string{"-seeds", "0", "fig7a"}, "-seeds must be at least 1", 1},
		{2, []string{"-seeds", "-3"}, "-seeds must be at least 1", 1},
	}
	for _, c := range cases {
		tool := tools[c.tool]
		t.Run(tool.name+" "+strings.Join(c.args, " "), func(t *testing.T) {
			cache := filepath.Join(t.TempDir(), "cache")
			code, stdout, stderr := drive(tool.run, append([]string{"-cache", cache, "-ms", "0.05"}, c.args...)...)
			if code != c.code || stdout != "" || !strings.Contains(stderr, c.want) {
				t.Errorf("exit %d (want %d), stdout %q, stderr %q (want %q)", code, c.code, stdout, stderr, c.want)
			}
			if entries, _ := filepath.Glob(filepath.Join(cache, "*", "*.gob")); len(entries) > 0 {
				t.Errorf("rejected request still simulated: %v", entries)
			}
		})
	}
}

// engineLine is the shape of the -v line under a simulated cell.
var engineLine = regexp.MustCompile(`(?m)^        elided: \{CoolPortCycles:\d+ SwitchCyclesSlept:\d+ NodeCyclesSkipped:\d+ FlowVisits:\d+ FlowCyclesSkipped:\d+ WheelEvents:\d+ HeapEvents:\d+ Ticks:\d+\}$`)

// TestCacheSettledByEveryTool: a -cache run leaves the access-time
// index on disk (it used to be flushed by ccfit-run alone), and a
// second run is served from the cache with identical output.
func TestCacheSettledByEveryTool(t *testing.T) {
	for _, tool := range tools {
		t.Run(tool.name, func(t *testing.T) {
			cache := t.TempDir()
			args := append([]string{"-v", "-cache", cache}, tool.args...)
			code, cold, stderr := drive(tool.run, args...)
			if code != 0 {
				t.Fatalf("exit %d, stderr:\n%s", code, stderr)
			}
			if _, err := os.Stat(filepath.Join(cache, "atime-index.json")); err != nil {
				t.Errorf("cache index not flushed: %v", err)
			}
			// -v says, under every cell it simulated, what the engine skipped
			// and what it ran instead.
			if n := len(engineLine.FindAllString(stderr, -1)); n == 0 || n != strings.Count(stderr, "elided:") {
				t.Errorf("%d well-formed engine lines of %d:\n%s", n, strings.Count(stderr, "elided:"), stderr)
			}
			_, warm, stderr := drive(tool.run, args...)
			if warm != cold {
				t.Error("warm-cache output differs from the cold run")
			}
			for _, line := range strings.Split(stderr, "\n") {
				if strings.HasPrefix(line, "[") && !strings.Contains(line, " cached ") {
					t.Errorf("second run recomputed a cell: %s", line)
				}
			}
		})
	}
}

// TestReadmeFlagTable keeps README's one flag table equal to the one
// declaration of the shared flags; on a mismatch the failure message is
// the table to paste.
func TestReadmeFlagTable(t *testing.T) {
	accepts := map[string][]string{}
	for _, tool := range []struct {
		name string
		body func(*app, []string) error
	}{{"run", (*app).figures}, {"figures", (*app).figures}, {"sweep", (*app).sweep}, {"loadcurve", (*app).loadCurve}} {
		a := newApp(tool.name, io.Discard, io.Discard)
		_ = tool.body(a, []string{"-h"}) // registers the tool's flags, then stops at the usage text
		a.fs.VisitAll(func(f *flag.Flag) { accepts[f.Name] = append(accepts[f.Name], tool.name) })
	}
	def, all := Defaults(), flag.NewFlagSet("", flag.ContinueOnError)
	def.Register(all)
	var b strings.Builder
	b.WriteString("| flag | default | tools | meaning |\n|---|---|---|---|\n")
	all.VisitAll(func(f *flag.Flag) {
		dv := f.DefValue
		if f.Name == "workers" {
			dv = "all cores"
		}
		if dv == "" {
			dv = `""`
		}
		fmt.Fprintf(&b, "| `-%s` | %s | %s | %s |\n", f.Name, dv, strings.Join(accepts[f.Name], ", "), f.Usage)
	})
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), b.String()) {
		t.Errorf("README.md's shared-flag table is out of date; it should read:\n%s", b.String())
	}
}

// TestNextRejectsMisalignedResults: results that do not line up with
// the cells a renderer walks are a diagnostic, not an index panic.
func TestNextRejectsMisalignedResults(t *testing.T) {
	jobs, err := campaign.Submission{Spec: experiments.Spec{Experiments: []string{"fig7a"}, Schemes: []string{"1Q"}, Seeds: 2, MS: 0.05}}.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	cursor := []runner.JobResult{{Job: jobs[0]}, {Job: jobs[1]}}
	if exp, _, _, err := next(&cursor, 2); err != nil || exp.ID != "fig7a" || len(cursor) != 0 {
		t.Fatalf("aligned cells: exp %q, %d left, err %v", exp.ID, len(cursor), err)
	}
	for name, cursor := range map[string][]runner.JobResult{
		"short":      {{Job: jobs[0]}},
		"hand-built": {{Job: runner.Job{ExpID: "fig7a"}}, {Job: jobs[1]}},
	} {
		if _, _, ok, err := next(&cursor, 2); err == nil || ok {
			t.Errorf("%s results: ok %v, err %v; want an error", name, ok, err)
		}
	}
}
