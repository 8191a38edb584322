package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
)

// TestWireJobRoundTrip proves the serialization contract remote
// execution rests on: for every cell of a registered-experiment spec
// AND a load-curve spec, WireFromJob → JSON → WireJob.Job() recovers a
// job with the identical cache key, and running both sides produces
// byte-identical results.
func TestWireJobRoundTrip(t *testing.T) {
	specs := map[string]experiments.Spec{
		"registered": {Experiments: []string{"fig7a"}, MS: 0.1, Seeds: 2},
		"loadcurve": {Schemes: []string{"CCFIT"},
			LoadCurve: &experiments.LoadCurveSpec{Config: 2, Loads: []float64{0.4, 0.9}, MS: 0.1}},
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
				w, err := WireFromJob(job)
				if err != nil {
					t.Fatalf("WireFromJob(%s): %v", job, err)
				}
				data, err := json.Marshal(w)
				if err != nil {
					t.Fatal(err)
				}
				var decoded WireJob
				if err := json.Unmarshal(data, &decoded); err != nil {
					t.Fatal(err)
				}
				back, err := decoded.Job()
				if err != nil {
					t.Fatalf("WireJob.Job(%s): %v", job, err)
				}
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
}

// TestWireJobCarriesServiceOptions checks the fields that ride along
// with the spec (fault script, watchdog) survive the round trip and
// keep the cache keys of faulted vs clean runs distinct.
func TestWireJobCarriesServiceOptions(t *testing.T) {
	jobs, err := FromSpec(experiments.Spec{Experiments: []string{"fig7a"}, MS: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	sw := 0
	job.Faults = &fault.Script{Name: "stall-sw0", Events: []fault.Event{
		{Kind: fault.SwitchStall, At: 1_000, Duration: 100, Switch: &sw},
	}}
	job.Watchdog = -1

	w, err := WireFromJob(job)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var decoded WireJob
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Job()
	if err != nil {
		t.Fatal(err)
	}
	if back.Faults == nil || back.Faults.Fingerprint() != job.Faults.Fingerprint() {
		t.Fatalf("fault script lost or changed across the wire: %+v", back.Faults)
	}
	if back.Watchdog != job.Watchdog {
		t.Fatalf("watchdog lost across the wire: got %d want %d", back.Watchdog, job.Watchdog)
	}
	clean, _ := WireFromJob(jobs[0])
	cj, _ := clean.Job()
	kClean, err := JobKey(cj)
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

// TestWireJobRejectsHandBuilt: jobs without a source spec must refuse
// serialization instead of shipping a guess.
func TestWireJobRejectsHandBuilt(t *testing.T) {
	reg := scaledRegistry()
	job := grid(reg[:1], nil, []int64{1})[0]
	if _, err := WireFromJob(job); err == nil {
		t.Fatal("WireFromJob accepted a job with no source spec")
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
