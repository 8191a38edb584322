package dispatch

import (
	"context"
	"errors"
	"path/filepath"
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
	if claim.Job.Spec.Experiments[0] != "fig7a" {
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
