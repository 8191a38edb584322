package dispatch

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// TestFallbackStaysInsideOneEnvelope: a job the board withdraws
// mid-wait falls back to in-process simulation inside the same
// envelope it started in — one JobStart, one terminal event, and the
// one cache probe made before dispatch. The second claim is checked by
// planting the job's entry while it sits in the queue: a second probe
// on fallback would serve it as a hit.
func TestFallbackStaysInsideOneEnvelope(t *testing.T) {
	b, clock := testBoard(t, Options{LeaseTTL: time.Minute, Liveness: 2 * time.Minute})
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
	ref := (&runner.LocalExecutor{}).Execute(context.Background(), job, nil)
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}

	exec := &RemoteExecutor{Board: b, Local: &runner.LocalExecutor{Cache: cache}}
	mustRegister(t, b, "fleeting")
	log := &eventLog{}
	done := make(chan runner.JobResult, 1)
	go func() { done <- exec.Execute(context.Background(), job, log.emit) }()
	deadline := time.Now().Add(5 * time.Second)
	for b.Snapshot()["dispatch_queued"].(int) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("job never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if err := cache.Put(key, ref.Result); err != nil {
		t.Fatal(err)
	}
	clock.Advance(3 * time.Minute) // past liveness: the fleet is dead
	b.sweep(clock.Now())

	jr := <-done
	if jr.Err != nil || jr.Cached || jr.Attempts != 1 || jr.Key != key {
		t.Fatalf("fallback result: err=%v cached=%v attempts=%d key=%q", jr.Err, jr.Cached, jr.Attempts, jr.Key)
	}
	if n := log.count(runner.JobStart); n != 1 {
		t.Errorf("%d JobStart events, want exactly 1: %v", n, log.types())
	}
	if done, cached := log.count(runner.JobDone), log.count(runner.JobCached); done != 1 || cached != 0 {
		t.Errorf("terminal events: %d done, %d cached, want 1 and 0 (a second cache probe?): %v", done, cached, log.types())
	}
	if n := b.Snapshot()["local_fallbacks"].(int64); n != 1 {
		t.Errorf("local_fallbacks = %d, want 1", n)
	}
}
