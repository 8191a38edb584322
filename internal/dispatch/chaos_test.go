package dispatch_test

// Chaos tests: a real campaign service with a real worker fleet over
// HTTP, with one worker killed mid-job (transport severed — the
// in-process equivalent of SIGKILL, deterministic and race-detector
// friendly) or a flaky network injecting drops, torn responses and
// duplicated deliveries. The acceptance bar is the repo's core
// guarantee: the campaign completes and its results are byte-identical
// to a local serial run, with the reclaim path proven by the campaign's
// lease events rather than assumed.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/testutil"
)

// chaosSpec is a small multi-cell campaign (the 0.2 ms truncation is
// part of the cache fingerprint, so cells never collide with full
// runs).
func chaosSpec() experiments.Spec {
	return experiments.Spec{Experiments: []string{"fig7a"}, MS: 0.2, Seeds: 2}
}

// localDigest runs the submission in-process with no cache — the
// golden bytes every distributed execution must reproduce.
func localDigest(t *testing.T, sub campaign.Submission) string {
	t.Helper()
	jobs, err := sub.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	results, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return digest(t, results)
}

func digest(t *testing.T, results []runner.JobResult) string {
	t.Helper()
	var payload []*experiments.Result
	for _, jr := range results {
		if jr.Err != nil {
			t.Fatalf("job %s failed: %v", jr.Job, jr.Err)
		}
		payload = append(payload, jr.Result)
	}
	return testutil.MustJSONDigest(t, payload)
}

// waitDone polls until the campaign reaches a terminal status.
func waitDone(t *testing.T, sched *campaign.Scheduler, id string) campaign.View {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		v, err := sched.View(id, false)
		if err != nil {
			t.Fatal(err)
		}
		if v.Status.Terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("campaign %s did not finish", id)
	return campaign.View{}
}

// waitRegistered blocks until n workers have registered with the
// board. The chaos cells are milliseconds each — submitting before the
// fleet is visible would race registration and silently fall back to
// local execution, proving nothing.
func waitRegistered(t *testing.T, board *dispatch.Board, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if len(board.Workers()) >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("fleet never reached %d registered worker(s)", n)
}

// blockingExec signals when it picks up its first job, then blocks
// until the context dies — the deterministic stand-in for "the worker
// was busy simulating when it got SIGKILLed".
type blockingExec struct {
	started chan struct{}
	once    sync.Once
}

func (e *blockingExec) Execute(ctx context.Context, job runner.Job, emit func(runner.Event)) runner.JobResult {
	e.once.Do(func() { close(e.started) })
	<-ctx.Done()
	return runner.JobResult{Job: job, Err: ctx.Err()}
}

// heldExec starts no job before hold is closed.
type heldExec struct {
	inner runner.Executor
	hold  <-chan struct{}
}

func (e *heldExec) Execute(ctx context.Context, job runner.Job, emit func(runner.Event)) runner.JobResult {
	<-e.hold
	return e.inner.Execute(ctx, job, emit)
}

// startService boots a campaign scheduler with a dispatch board behind
// an httptest server; with a non-nil hold, no job reaches the board
// before hold is closed. Shutdown order matters and is the caller's job.
func startService(t *testing.T, dir string, ttl time.Duration, hold <-chan struct{}) (*campaign.Scheduler, *dispatch.Board, *httptest.Server) {
	t.Helper()
	cache, err := runner.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	board := dispatch.NewBoard(dispatch.Options{
		LeaseTTL: ttl,
		Log:      t.Logf,
	})
	opt := campaign.Options{
		Dir:      filepath.Join(dir, "campaigns"),
		Cache:    cache,
		Workers:  4,
		Dispatch: board,
		Log:      t.Logf,
	}
	if hold != nil {
		opt.Executor = &heldExec{
			inner: &dispatch.RemoteExecutor{Board: board, Local: &runner.LocalExecutor{Cache: cache}, Log: t.Logf},
			hold:  hold,
		}
	}
	sched, err := campaign.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(campaign.NewServer(sched))
	return sched, board, srv
}

// startWorker launches a dispatch.Worker against the service and
// returns a stop function that drains it.
func startWorker(t *testing.T, srv *httptest.Server, opt dispatch.WorkerOptions, transport http.RoundTripper) (stop func()) {
	t.Helper()
	if opt.PollMax == 0 {
		opt.PollMax = 50 * time.Millisecond
	}
	w := &dispatch.Worker{
		Client: &dispatch.Client{
			Base: srv.URL,
			HTTP: &http.Client{Transport: transport, Timeout: 30 * time.Second},
		},
		Opt: opt,
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := w.Run(ctx); err != nil && ctx.Err() == nil {
			t.Errorf("worker %s: %v", opt.Name, err)
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// TestWorkerKilledMidJob is the headline chaos scenario: a 2-worker
// fleet, one worker SIGKILL-equivalent-killed while holding a job. The
// lease expires, the board reclaims and requeues, the surviving worker
// finishes everything, and the campaign's bytes match a local serial
// run exactly. The reclaim is proven twice over: board metrics and the
// campaign's lease events.
func TestWorkerKilledMidJob(t *testing.T) {
	dir := t.TempDir()
	hold := make(chan struct{})
	sched, board, srv := startService(t, dir, 500*time.Millisecond, hold)
	defer srv.Close()

	// The victim first: it must win the first claim so the kill
	// provably lands mid-job.
	victim := &blockingExec{started: make(chan struct{})}
	cut := &CutTransport{}
	stopVictim := startWorker(t, srv, dispatch.WorkerOptions{Name: "victim", Exec: victim, Log: t.Logf}, cut)
	defer stopVictim()
	waitRegistered(t, board, 1)

	sub := campaign.Submission{Spec: chaosSpec()}
	want := localDigest(t, sub)
	v, err := sched.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if v.Total < 2 {
		t.Fatalf("chaos spec expands to %d jobs, want >= 2 so the survivor has work too", v.Total)
	}
	// Attached before any job reaches the board: the stream holds the
	// campaign's whole lease history.
	_, events, unsubscribe, err := sched.Subscribe(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsubscribe()
	close(hold)

	select {
	case <-victim.started:
	case <-time.After(30 * time.Second):
		t.Fatal("victim never claimed a job")
	}
	// Kill: from here the victim's heartbeats, results and claims all
	// fail at the transport. Its lease must expire and be reclaimed.
	cut.Kill()

	// The survivor joins after the kill — it must pick up both the
	// remaining queue and the reclaimed job.
	survivorCache, err := runner.OpenCache(filepath.Join(dir, "worker-cache"))
	if err != nil {
		t.Fatal(err)
	}
	stopSurvivor := startWorker(t, srv, dispatch.WorkerOptions{
		Name: "survivor",
		Exec: &runner.LocalExecutor{Cache: survivorCache},
		Log:  t.Logf,
	}, nil)
	defer stopSurvivor()

	final := waitDone(t, sched, v.ID)
	if final.Status != campaign.StatusDone {
		t.Fatalf("campaign finished %s, want done: %+v", final.Status, final)
	}
	results, err := sched.Results(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(t, results); got != want {
		t.Fatalf("distributed campaign diverged from local run:\n  local  %s\n  remote %s", want, got)
	}

	snap := board.Snapshot()
	if snap["jobs_reclaimed"].(int64) < 1 {
		t.Fatalf("no reclaim recorded despite the kill: %v", snap)
	}
	if snap["remote_jobs_done"].(int64) < int64(final.Done) {
		t.Fatalf("fewer remote completions (%v) than campaign done count (%d)", snap["remote_jobs_done"], final.Done)
	}

	if snap["leases_expired"].(int64) < 1 {
		t.Fatalf("no lease expiry recorded despite the kill: %v", snap)
	}
	// The event stream carries the audit trail: a lease granted to the
	// victim, its expiry, and the reclaim, each naming the victim.
	seen := map[string]bool{}
	for ev := range events { // closed by the complete event
		if ev.Worker == "victim" {
			seen[ev.Type] = true
		}
	}
	for _, want := range []string{"lease", "lease-expired", "requeued"} {
		if !seen[want] {
			t.Fatalf("no %q event names the victim (saw %v)", want, seen)
		}
	}

	stopSurvivor()
	stopVictim()
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
	board.Close()
}

// TestFlakyTransportStillByteIdentical: drops, torn responses and
// duplicated deliveries on the worker's network must cost retries at
// most — never correctness. The duplicated result exercises the
// board's idempotent delivery path end to end.
func TestFlakyTransportStillByteIdentical(t *testing.T) {
	dir := t.TempDir()
	sched, board, srv := startService(t, dir, 500*time.Millisecond, nil)
	defer srv.Close()

	flaky := &FlakyTransport{
		Drop:      []int{1, 4, 9},   // includes the first register attempt
		Truncate:  []int{6, 13},     // torn mid-body responses
		Duplicate: []int{7, 11, 15}, // at-least-once delivery
	}
	stop := startWorker(t, srv, dispatch.WorkerOptions{
		Name: "flaky",
		Exec: &runner.LocalExecutor{},
		Log:  t.Logf,
	}, flaky)
	defer stop()
	// The very first register attempt is one of the dropped ordinals, so
	// this also proves registration retry works.
	waitRegistered(t, board, 1)

	sub := campaign.Submission{Spec: chaosSpec()}
	want := localDigest(t, sub)
	v, err := sched.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	final := waitDone(t, sched, v.ID)
	if final.Status != campaign.StatusDone {
		t.Fatalf("campaign finished %s under flaky transport: %+v", final.Status, final)
	}
	results, err := sched.Results(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(t, results); got != want {
		t.Fatalf("flaky transport changed result bytes:\n  local  %s\n  remote %s", want, got)
	}
	if n := flaky.Requests(); n < 15 {
		t.Fatalf("only %d requests seen; the injected faults (up to ordinal 15) never fired", n)
	}

	stop()
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
	board.Close()
}

// gatedExec reports each job it starts, then holds it until release
// closes (or its lease dies).
type gatedExec struct {
	started chan<- string
	release <-chan struct{}
}

func (e *gatedExec) Execute(ctx context.Context, job runner.Job, _ func(runner.Event)) runner.JobResult {
	e.started <- job.String()
	select {
	case <-e.release:
	case <-ctx.Done():
	}
	return runner.JobResult{Job: job, Result: &experiments.Result{}}
}

// TestWorkersDoNotCapFleet: a service with one in-process slot still
// keeps both of a two-worker fleet busy — the workers claim from the
// service's queue directly, not through its slots.
func TestWorkersDoNotCapFleet(t *testing.T) {
	dir := t.TempDir()
	cache, err := runner.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	board := dispatch.NewBoard(dispatch.Options{Log: t.Logf})
	sched, err := campaign.Open(campaign.Options{
		Dir: filepath.Join(dir, "campaigns"), Cache: cache, Workers: 1, Dispatch: board, Log: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(campaign.NewServer(sched))
	defer srv.Close()
	started, release := make(chan string, 16), make(chan struct{})
	var stops []func()
	for _, name := range []string{"a", "b"} {
		exec := &gatedExec{started: started, release: release}
		stops = append(stops, startWorker(t, srv, dispatch.WorkerOptions{Name: name, Slots: 1, Exec: exec, Log: t.Logf}, nil))
	}
	waitRegistered(t, board, 2)

	v, err := sched.Submit(campaign.Submission{Spec: chaosSpec()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(30 * time.Second):
			t.Fatalf("only %d of 2 workers got a job from a service with one slot", i)
		}
	}
	busy := 0
	for _, w := range board.Workers() {
		if len(w.Active) == 1 {
			busy++
		}
	}
	if busy != 2 {
		t.Fatalf("%d workers hold a lease, want both: %+v", busy, board.Workers())
	}
	close(release)
	if final := waitDone(t, sched, v.ID); final.Status != campaign.StatusDone {
		t.Fatalf("campaign: %+v", final)
	}
	if n := board.Snapshot()["local_fallbacks"].(int64); n != 0 {
		t.Errorf("local_fallbacks = %d with the fleet live", n)
	}
	for _, stop := range stops {
		stop()
	}
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
	board.Close()
}
