package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// TestLostLeaseFallsBackInProcess: a leased job whose worker dies is
// requeued at the sweep that expires its lease, and with the fleet gone
// the in-process slot runs it. The first envelope ends at the requeue
// with no terminal event; the second simulates once and emits the one
// terminal event.
func TestLostLeaseFallsBackInProcess(t *testing.T) {
	b, clock := testBoard(t, Options{LeaseTTL: time.Minute})
	b.liveness = 2 * time.Minute
	cache, err := runner.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := runner.FromSpec(experiments.Spec{Experiments: []string{"fig7a"}, Schemes: []string{"CCFIT"}, MS: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	job := jobs[0]
	key, err := runner.JobKey(job)
	if err != nil {
		t.Fatal(err)
	}

	exec := &RemoteExecutor{Board: b, Local: &runner.LocalExecutor{Cache: cache}}
	w := mustRegister(t, b, "fleeting") // before the slot exists: the job is the fleet's
	log := &eventLog{}
	done := make(chan runner.JobResult, 1)
	b.Queue().Push(&runner.Task{Job: job, Ctx: context.Background(), Run: func(ctx context.Context) {
		if jr := exec.Execute(ctx, job, log.emit); !errors.Is(jr.Err, runner.ErrRequeued) {
			done <- jr
		}
	}})
	b.Queue().Serve(1)
	t.Cleanup(b.Queue().Close)
	claim := claimSoon(t, b, w)
	if claim.Job.Experiments[0] != "fig7a" {
		t.Fatalf("leased %+v", claim.Job)
	}
	clock.Advance(3 * time.Minute) // past the TTL and liveness: the worker is dead
	b.sweep(clock.Now())

	jr := <-done
	if jr.Err != nil || jr.Cached || jr.Attempts != 1 || jr.Key != key {
		t.Fatalf("fallback result: err=%v cached=%v attempts=%d key=%q", jr.Err, jr.Cached, jr.Attempts, jr.Key)
	}
	for typ, want := range map[runner.EventType]int{
		runner.JobStart: 2, runner.JobLeased: 1, runner.JobLeaseExpired: 1, runner.JobReassigned: 1,
		runner.JobDone: 1, runner.JobCached: 0, runner.JobFailed: 0,
	} {
		if n := log.count(typ); n != want {
			t.Errorf("%d events of type %d, want %d: %v", n, typ, want, log.types())
		}
	}
	if n := b.Snapshot()["local_fallbacks"].(int64); n != 1 {
		t.Errorf("local_fallbacks = %d, want 1", n)
	}
}

// foreignKeyExec stands in for a worker of another build: it answers
// every job with an empty Result under a key this build never computes.
type foreignKeyExec struct{}

func (foreignKeyExec) Execute(_ context.Context, job runner.Job, _ func(runner.Event)) runner.JobResult {
	return runner.JobResult{Job: job, Result: &experiments.Result{}, Key: "0000foreign"}
}

// runOnWorker runs job through a RemoteExecutor whose only taker is one
// dispatch.Worker executing with exec over HTTP. It returns the
// service's result, the results the worker posted, and the board.
func runOnWorker(t *testing.T, cache *runner.Cache, job runner.Job, exec runner.Executor) (runner.JobResult, []runner.WireResult, *Board) {
	t.Helper()
	b, _ := testBoard(t, Options{})
	var (
		mu     sync.Mutex
		posted []runner.WireResult
	)
	h := b.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/dispatch/result" {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				t.Error(err)
			}
			var req ResultRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Error(err)
			}
			mu.Lock()
			posted = append(posted, req.Result)
			mu.Unlock()
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		h.ServeHTTP(w, r)
	}))
	defer srv.Close()

	remote := &RemoteExecutor{Board: b, Local: &runner.LocalExecutor{Cache: cache}}
	done := make(chan runner.JobResult, 1)
	b.Queue().Push(&runner.Task{Job: job, Ctx: context.Background(), Run: func(ctx context.Context) {
		done <- remote.Execute(ctx, job, nil)
	}})
	w := &Worker{Client: &Client{Base: srv.URL}, Opt: WorkerOptions{Name: "w", Exec: exec, PollMax: 50 * time.Millisecond}}
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan error, 1)
	go func() { ran <- w.Run(ctx) }()
	var jr runner.JobResult
	select {
	case jr = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("the worker never finished the job")
	}
	cancel()
	if err := <-ran; err != nil {
		t.Fatalf("Run: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	return jr, posted, b
}

func skewJob(t *testing.T) (runner.Job, string) {
	t.Helper()
	jobs, err := runner.FromSpec(experiments.Spec{Experiments: []string{"fig7a"}, Schemes: []string{"CCFIT"}, MS: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	key, err := runner.JobKey(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	return jobs[0], key
}

// TestVersionSkewRefused: a worker whose result carries a key other than
// the service's fails the job, counts a mismatch, and leaves the
// service cache without an entry for it.
func TestVersionSkewRefused(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	cache, err := runner.OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	job, key := skewJob(t)
	jr, _, b := runOnWorker(t, cache, job, foreignKeyExec{})
	if jr.Err == nil || !strings.Contains(jr.Err.Error(), "version skew") {
		t.Fatalf("result err = %v, want the version-skew refusal", jr.Err)
	}
	if n := b.Snapshot()["result_key_mismatches"].(int64); n != 1 {
		t.Errorf("result_key_mismatches = %d, want 1", n)
	}
	if _, ok, err := cache.Get(key); ok || err != nil {
		t.Errorf("service cache holds the refused result (ok=%v err=%v)", ok, err)
	}
	if err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			t.Errorf("service cache holds %s", p)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestCachelessWorkerReportsKey: a worker without a cache still posts
// the key its build computes, so the version-skew guard checks it too.
func TestCachelessWorkerReportsKey(t *testing.T) {
	cache, err := runner.OpenCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	job, key := skewJob(t)
	jr, posted, b := runOnWorker(t, cache, job, &runner.LocalExecutor{})
	if jr.Err != nil {
		t.Fatalf("result err = %v", jr.Err)
	}
	if len(posted) != 1 || posted[0].Key != key {
		t.Fatalf("worker posted %+v, want one result with key %s", posted, key)
	}
	if n := b.Snapshot()["result_key_mismatches"].(int64); n != 0 {
		t.Errorf("result_key_mismatches = %d, want 0", n)
	}
}
