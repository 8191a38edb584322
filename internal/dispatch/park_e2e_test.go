package dispatch_test

// End-to-end park/wake tests over real HTTP: a fleet that parks instead
// of polling, a new worker against a board that predates wait_ms, and a
// parked request released by each side going away.

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/runner"
)

// instantExec finishes every job at once, so a worker's next claim
// comes before the service has stored its last result — the race a
// polling worker loses into a nap, once per job.
type instantExec struct{}

func (instantExec) Execute(_ context.Context, job runner.Job, _ func(runner.Event)) runner.JobResult {
	return runner.JobResult{Job: job, Result: &experiments.Result{}}
}

// slowStore stands in for what a real result costs the service after a
// delivery (cache write, event fan-out): a few milliseconds.
type slowStore struct{ runner.Executor }

func (e slowStore) Execute(ctx context.Context, job runner.Job, emit func(runner.Event)) runner.JobResult {
	jr := e.Executor.Execute(ctx, job, emit)
	time.Sleep(5 * time.Millisecond)
	return jr
}

// TestParkedFleetDoesNotPoll: the fleet claims every job from the
// service's queue, and the workers run at the default PollMax. Claims
// answered 204 must stay a small constant, not grow with the campaign
// (a polling fleet reads one per job here).
func TestParkedFleetDoesNotPoll(t *testing.T) {
	dir := t.TempDir()
	cache, err := runner.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	board := dispatch.NewBoard(dispatch.Options{Log: t.Logf})
	sched, err := campaign.Open(campaign.Options{
		Dir: filepath.Join(dir, "campaigns"), Cache: cache, Workers: 2, Dispatch: board, Log: t.Logf,
		Executor: slowStore{&dispatch.RemoteExecutor{Board: board, Local: &runner.LocalExecutor{Cache: cache}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(campaign.NewServer(sched))
	defer srv.Close()
	for _, name := range []string{"a", "b"} {
		// 2 s is WorkerOptions' default, spelled out because startWorker
		// replaces a zero PollMax with its own 50 ms.
		stop := startWorker(t, srv, dispatch.WorkerOptions{Name: name, Exec: instantExec{}, PollMax: 2 * time.Second, Log: t.Logf}, nil)
		defer stop()
	}
	waitRegistered(t, board, 2)

	v, err := sched.Submit(campaign.Submission{Spec: experiments.Spec{Experiments: []string{"fig7a"}, MS: 0.2, Seeds: 8}})
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, sched, v.ID)
	if final.Status != campaign.StatusDone || final.Total < 20 {
		t.Fatalf("campaign: %+v", final)
	}
	snap := board.Snapshot()
	if got := snap["leases_granted"].(int64); got != int64(final.Total) {
		t.Fatalf("leases_granted = %d, want %d (fleet bypassed?)", got, final.Total)
	}
	if empty := snap["claims_empty"].(int64); empty > 4 {
		t.Fatalf("claims_empty = %d over %d jobs: the fleet is polling, not parked", empty, final.Total)
	}
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
	board.Close()
}

// TestWorkerPacesAgainstOldBoard: a board that ignores wait_ms answers
// 204 at once; the worker must fall back to its pollMin backoff (claims
// at 0, 100 and 300 ms), not loop on the immediate answer.
func TestWorkerPacesAgainstOldBoard(t *testing.T) {
	var claims atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /dispatch/register", func(w http.ResponseWriter, _ *http.Request) {
		_ = json.NewEncoder(w).Encode(dispatch.RegisterResponse{WorkerID: "w0000", LeaseTTLMS: 15000})
	})
	mux.HandleFunc("POST /dispatch/claim", func(w http.ResponseWriter, _ *http.Request) {
		claims.Add(1)
		w.WriteHeader(http.StatusNoContent)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	stop := startWorker(t, srv, dispatch.WorkerOptions{Name: "new", Exec: instantExec{}, PollMax: 2 * time.Second}, nil)
	time.Sleep(300 * time.Millisecond)
	stop()
	if n := claims.Load(); n < 1 || n > 4 {
		t.Fatalf("%d claims in 300 ms against a board without wait_ms, want 1..4", n)
	}
}

// TestParkedRequestReleased: over HTTP a parked claim is let go by the
// client's context (worker SIGTERM: no error beyond its own ctx) and by
// the server's base context (ccfit-serve's drain), in both cases long
// before the hold.
func TestParkedRequestReleased(t *testing.T) {
	board := dispatch.NewBoard(dispatch.Options{})
	defer board.Close()
	base, drain := context.WithCancel(context.Background())
	defer drain()
	srv := httptest.NewUnstartedServer(board.Handler())
	srv.Config.BaseContext = func(net.Listener) context.Context { return base }
	srv.Start()
	defer srv.Close()

	client := &dispatch.Client{Base: srv.URL}
	reg, err := client.Register(context.Background(), dispatch.RegisterRequest{Name: "p", Protocol: dispatch.Protocol})
	if err != nil {
		t.Fatal(err)
	}
	parked := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for board.Snapshot()["claims_parked"].(int) != want {
			if time.Now().After(deadline) {
				t.Fatalf("claims_parked never reached %d", want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	type outcome struct {
		ok  bool
		err error
	}
	claim := func(ctx context.Context) <-chan outcome {
		ch := make(chan outcome, 1)
		go func() {
			_, ok, err := client.ClaimWait(ctx, reg.WorkerID, 5*time.Second)
			ch <- outcome{ok, err}
		}()
		return ch
	}

	ctx, cancel := context.WithCancel(context.Background())
	ch := claim(ctx)
	parked(1)
	cancel()
	if o := <-ch; o.ok || ctx.Err() == nil || o.err == nil {
		t.Fatalf("client cancel: %+v", o)
	}
	parked(0) // the handler noticed the client go and let the claim out

	t0 := time.Now()
	ch = claim(context.Background())
	parked(1)
	drain()
	if o := <-ch; o.ok || o.err != nil {
		t.Fatalf("server drain: want a plain 204, got %+v", o)
	}
	if d := time.Since(t0); d > 2*time.Second {
		t.Fatalf("drain waited out the hold (%v)", d)
	}
}
