package dispatch

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// slowStopExec signals when it picks up a job, then runs until its
// context ends and takes a while longer to stop, as a simulation does
// between two cancellation checks.
type slowStopExec struct {
	started chan struct{}
	once    sync.Once
}

func (e *slowStopExec) Execute(ctx context.Context, job runner.Job, _ func(runner.Event)) runner.JobResult {
	e.once.Do(func() { close(e.started) })
	<-ctx.Done()
	time.Sleep(50 * time.Millisecond)
	return runner.JobResult{Job: job, Err: ctx.Err()}
}

// TestRunWaitsForAbandonReport: a drained worker's Run returns only after
// its slots have handed their jobs back. ccfit-worker prints "drained"
// when Run returns, so a Run that returned before its slots would claim
// a drain while a job is still in flight and its abandon report unsent.
func TestRunWaitsForAbandonReport(t *testing.T) {
	b, _ := testBoard(t, Options{LeaseTTL: time.Hour})
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()
	jobs, err := runner.FromSpec(experiments.Spec{Experiments: []string{"fig7a"}, MS: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	wire, err := runner.WireFromJob(jobs[0])
	if err != nil {
		t.Fatal(err)
	}
	push(context.Background(), b, jobs[0], wire, (&eventLog{}).emit)

	exec := &slowStopExec{started: make(chan struct{})}
	w := &Worker{Client: &Client{Base: srv.URL}, Opt: WorkerOptions{Name: "w", Exec: exec, PollMax: 50 * time.Millisecond}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- w.Run(ctx) }()

	select {
	case <-exec.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the worker never started the queued job")
	}
	cancel()
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after its context ended")
	}
	if got := b.Snapshot()["jobs_abandoned"].(int64); got != 1 {
		t.Fatalf("jobs_abandoned = %d when Run returned, want 1: Run returned before its slot reported", got)
	}
}
