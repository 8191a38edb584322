package runner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/metrics"
)

// sourceTrip sends a job's Source through JSON and OneCell, as a lease
// carries it to a worker.
func sourceTrip(t *testing.T, job Job) Job {
	t.Helper()
	if job.Source == nil {
		t.Fatalf("%s carries no source spec", job)
	}
	data, err := json.Marshal(job.Source)
	if err != nil {
		t.Fatal(err)
	}
	var decoded experiments.Spec
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.OneCell()
	if err != nil {
		t.Fatalf("OneCell(%s): %v", data, err)
	}
	return back
}

// TestSourceRoundTrip proves the serialization contract remote
// execution rests on: for every cell of a registered-experiment spec
// AND a spec of load points, Source → JSON → OneCell recovers a job
// with the identical cache key, and running both sides produces
// byte-identical results. A load point's key is also that of a job
// hand-built on LoadPoint's experiment: naming a point by id moves no
// cache key.
func TestSourceRoundTrip(t *testing.T) {
	specs := map[string]experiments.Spec{
		"registered": {Experiments: []string{"fig7a"}, MS: 0.1, Seeds: 2},
		"loadcurve":  {Experiments: []string{"loadcurve-c2-load0.4", "loadcurve-c2-load0.9"}, Schemes: []string{"CCFIT"}, MS: 0.1},
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			jobs, err := FromSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(jobs) < 2 {
				t.Fatalf("spec expanded to %d jobs, want >= 2", len(jobs))
			}
			for _, job := range jobs {
				back := sourceTrip(t, job)
				k1, err := JobKey(job)
				if err != nil {
					t.Fatal(err)
				}
				k2, err := JobKey(back)
				if err != nil {
					t.Fatal(err)
				}
				if k1 != k2 {
					t.Fatalf("%s: cache key changed across the wire:\n  local  %s\n  remote %s", job, k1, k2)
				}
				r1 := mustRun(t, []Job{job}, Options{Workers: 1})[0]
				r2 := mustRun(t, []Job{back}, Options{Workers: 1})[0]
				if !bytes.Equal(encode(t, r1.Result), encode(t, r2.Result)) {
					t.Fatalf("%s: result bytes differ across the wire round trip", job)
				}
			}
		})
	}
	exp, err := experiments.LoadPoint(2, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Duration, err = experiments.MSCycles("ms", 0.1); err != nil {
		t.Fatal(err)
	}
	exp.Bin = min(exp.Bin, exp.Duration)
	byID, err := FromSpec(experiments.Spec{Experiments: []string{exp.ID}, Schemes: []string{"CCFIT"}, MS: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	k1, err := JobKey(byID[0])
	if err != nil {
		t.Fatal(err)
	}
	k2, err := JobKey(Job{Exp: exp, Scheme: "CCFIT", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("%s keys %s by id, %s built from LoadPoint", exp.ID, k1, k2)
	}
}

// TestSourceCarriesFaultsAndWatchdog checks that a spec's fault script
// and watchdog window reach every job and its Source, survive the
// round trip, and keep the cache keys of faulted vs clean runs
// distinct.
func TestSourceCarriesFaultsAndWatchdog(t *testing.T) {
	spec := experiments.Spec{Experiments: []string{"fig7a"}, MS: 0.1}
	clean, err := FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	sw := 0
	spec.Faults = &fault.Script{Name: "stall-sw0", Events: []fault.Event{
		{Kind: fault.SwitchStall, At: 1_000, Duration: 100, Switch: &sw},
	}}
	spec.Watchdog = -1
	faulted, err := FromSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	job := faulted[0]
	back := sourceTrip(t, job)
	if back.Faults == nil || back.Faults.Fingerprint() != spec.Faults.Fingerprint() {
		t.Fatalf("fault script lost or changed across the wire: %+v", back.Faults)
	}
	if back.Watchdog != spec.Watchdog {
		t.Fatalf("watchdog lost across the wire: got %d want %d", back.Watchdog, spec.Watchdog)
	}
	kClean, err := JobKey(sourceTrip(t, clean[0]))
	if err != nil {
		t.Fatal(err)
	}
	kFaulted, err := JobKey(back)
	if err != nil {
		t.Fatal(err)
	}
	if kClean == kFaulted {
		t.Fatal("faulted and clean runs share a cache key after the wire round trip")
	}
}

// TestOneCellRejectsManyCells: a hand-built job carries no source spec
// (it runs only in-process), and a worker refuses a claimed spec that
// is not exactly one cell instead of running a guess.
func TestOneCellRejectsManyCells(t *testing.T) {
	reg := scaledRegistry()
	if job := grid(reg[:1], nil, []int64{1})[0]; job.Source != nil {
		t.Fatalf("hand-built job %s carries a source spec", job)
	}
	for name, s := range map[string]experiments.Spec{
		"two seeds":   {Experiments: []string{"fig7a"}, Schemes: []string{"CCFIT"}, Seeds: 2},
		"all schemes": {Experiments: []string{"fig7a"}},
		"a table":     {Experiments: []string{"table1"}},
		"invalid":     {Experiments: []string{"fig7a"}, Schemes: []string{"bogus"}},
	} {
		if c, err := s.OneCell(); err == nil {
			t.Errorf("%s: OneCell accepted %+v as the one cell %s", name, s, c)
		}
	}
}

// TestWireResultRoundTrip covers the result direction, including the
// error, cache-error and quarantine channels.
func TestWireResultRoundTrip(t *testing.T) {
	jr := JobResult{
		Err:         errors.New("boom"),
		CacheErr:    errors.New("disk full"),
		Cached:      true,
		Elapsed:     1500 * time.Millisecond,
		Key:         "k123",
		Attempts:    3,
		Quarantined: true,
		Diagnostics: "snapshot",
	}
	data, err := json.Marshal(WireFromResult(jr))
	if err != nil {
		t.Fatal(err)
	}
	var w WireResult
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	back := w.JobResult(Job{})
	if back.Err == nil || back.Err.Error() != "boom" {
		t.Fatalf("Err lost: %v", back.Err)
	}
	if back.CacheErr == nil || back.CacheErr.Error() != "disk full" {
		t.Fatalf("CacheErr lost: %v", back.CacheErr)
	}
	if !back.Cached || back.Key != "k123" || back.Attempts != 3 || !back.Quarantined ||
		back.Diagnostics != "snapshot" || back.Elapsed != 1500*time.Millisecond {
		t.Fatalf("fields lost across the wire: %+v", back)
	}
}

// TestBackoff pins the capped exponential schedule, including the
// overflow regime that used to shift the base into garbage.
func TestBackoff(t *testing.T) {
	base, max := 100*time.Millisecond, 30*time.Second
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond,
	}
	for i, w := range want {
		if got := Backoff(base, i+1, max); got != w {
			t.Fatalf("Backoff(attempt %d) = %v, want %v", i+1, got, w)
		}
	}
	for _, attempt := range []int{10, 63, 64, 100, 1 << 20} {
		if got := Backoff(base, attempt, max); got != max {
			t.Fatalf("Backoff(attempt %d) = %v, want cap %v", attempt, got, max)
		}
	}
	if got := Backoff(0, 5, max); got != 0 {
		t.Fatalf("Backoff(base 0) = %v, want 0", got)
	}
	if got := Backoff(time.Minute, 1, max); got != max {
		t.Fatalf("Backoff(base > max) = %v, want %v", got, max)
	}
}

// TestCacheErrKeepsResultUsable: a failed cache store must not fail the
// job — the result stays valid, Err stays nil, and the failure is
// reported on its own channel (and in the manifest's cache_error).
func TestCacheErrKeepsResultUsable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := grid(scaledRegistry()[:1], nil, []int64{1})
	// Sabotage the cache root after open: a regular file where the
	// directory was makes Put's MkdirAll fail deterministically (works
	// even as root, unlike chmod), while Get still sees a clean miss.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	results := mustRun(t, jobs, Options{Workers: 1, Cache: cache})
	r := results[0]
	if r.CacheErr == nil {
		t.Fatal("expected a CacheErr from the read-only cache dir")
	}
	if r.Result == nil || r.Cached {
		t.Fatalf("result unusable after cache store failure: %+v", r)
	}
	m := NewManifest("test", Options{}, time.Now(), results)
	if m.Failed != 0 {
		t.Fatalf("manifest counts a cache store failure as a job failure: %+v", m)
	}
	if m.Runs[0].Status != "ok" || m.Runs[0].CacheError == "" {
		t.Fatalf("manifest run should be ok with cache_error set: %+v", m.Runs[0])
	}
	if !strings.Contains(m.Runs[0].CacheError, "caching failed") {
		t.Fatalf("cache_error lost its context: %q", m.Runs[0].CacheError)
	}
}

// FuzzWireJob decodes arbitrary JSON into the one-cell Spec a lease
// carries, as a worker reads it from a claim (seed corpus: a plain, a
// load-point and a faulted one-cell spec): OneCell never panics, and a
// job it accepts keys the cache and keeps that key over a second trip
// of its Source. FuzzSpec checks the cell itself; the key is the
// runner's.
func FuzzWireJob(f *testing.F) {
	sw := 0
	for _, s := range []experiments.Spec{
		{Experiments: []string{"fig7a"}, Schemes: []string{"CCFIT"}, Seed: 2, MS: 0.1},
		{Experiments: []string{"loadcurve-c2-load0.4"}, Schemes: []string{"CCFIT"}, Seed: 1, MS: 0.1},
		{Experiments: []string{"fig7a"}, Schemes: []string{"1Q"}, MS: 0.1, Watchdog: -1,
			Faults: &fault.Script{Name: "stall-sw0", Events: []fault.Event{{Kind: fault.SwitchStall, At: 1_000, Duration: 100, Switch: &sw}}}},
	} {
		data, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var s experiments.Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		job, err := s.OneCell()
		if err != nil {
			return
		}
		key, err := JobKey(job)
		if err != nil {
			return
		}
		again, err := json.Marshal(job.Source)
		if err != nil {
			t.Fatal(err)
		}
		var back experiments.Spec
		if err := json.Unmarshal(again, &back); err != nil {
			t.Fatal(err)
		}
		job2, err := back.OneCell()
		if err != nil {
			t.Fatalf("%s: the second trip of its Source fails: %v", job, err)
		}
		if key2, err := JobKey(job2); err != nil || key2 != key {
			t.Fatalf("%s: cache key %s after a second trip, %s before (%v)", job, key2, key, err)
		}
	})
}

// FuzzWireResult decodes arbitrary JSON into a WireResult, what the
// service reads from a worker's report (seed corpus: the result of
// TestWireResultRoundTrip, with and without a Result): JobResult never
// panics, and the decoded value re-encodes to bytes that decode and
// encode to themselves.
func FuzzWireResult(f *testing.F) {
	for _, w := range []WireResult{
		WireFromResult(JobResult{Err: errors.New("boom"), CacheErr: errors.New("disk full"), Cached: true,
			Elapsed: 1500 * time.Millisecond, Key: "k123", Attempts: 3, Quarantined: true, Diagnostics: "snapshot"}),
		{Key: "k1", ElapsedMS: 12.5, Attempts: 1, Result: &experiments.Result{
			ExpID: "xleafincast", Scheme: "CCFIT", Seed: 1, BinMS: 0.05,
			TimeMS: []float64{0, 0.05}, Normalized: []float64{0.1, 0.2}, TotalGBs: []float64{1, 2},
			Flows: []experiments.FlowSeries{{ID: 3, GBs: []float64{0.5, 0}}},
			FCT: &metrics.FCTStats{Registered: 2, Completed: 1, Incomplete: 1,
				Overall: metrics.FCTBucket{Label: "all", MaxBytes: math.MaxInt64, Completed: 1, MeanSlowdown: 1.5}},
			Summary: experiments.Summary{DeliveredPkts: 10, FCTCompleted: 1, FCTSlowdownP99: 1.5},
		}},
		WireFromResult(JobResult{Err: fmt.Errorf("campaign: job x is cancelled: %w", context.Canceled)}),
	} {
		data, err := json.Marshal(w)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireResult
		if json.Unmarshal(data, &w) != nil {
			return
		}
		jr := w.JobResult(Job{})
		if w.Err != "" && w.Outcome == OutcomeCancelled && !w.Quarantined && jr.Outcome() != OutcomeCancelled {
			t.Fatalf("a cancelled result decodes as %s", jr.Outcome())
		}
		first, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		var back WireResult
		if err := json.Unmarshal(first, &back); err != nil {
			t.Fatalf("re-encoded result does not decode: %v\n%s", err, first)
		}
		if second, err := json.Marshal(back); err != nil || !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not stable (%v):\n%s\n%s", err, first, second)
		}
	})
}
