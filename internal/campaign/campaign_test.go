package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dispatch"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/testutil"
	"repro/internal/topo"
)

// quickSpec is the suite's standard small campaign: fig7a truncated to
// 0.2 simulated milliseconds (the truncation is part of the cache
// fingerprint, so these cells never collide with full runs).
func quickSpec() experiments.Spec {
	return experiments.Spec{Experiments: []string{"fig7a"}, MS: 0.2}
}

func openScheduler(t *testing.T, dir string, opt Options) *Scheduler {
	t.Helper()
	if opt.Dir == "" {
		opt.Dir = filepath.Join(dir, "campaigns")
	}
	if opt.Cache == nil {
		cache, err := runner.OpenCache(filepath.Join(dir, "cache"))
		if err != nil {
			t.Fatal(err)
		}
		opt.Cache = cache
	}
	s, err := Open(opt)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

// waitTerminal subscribes and blocks until the campaign completes,
// returning the events observed (snapshot excluded).
func waitTerminal(t *testing.T, s *Scheduler, id string) []Event {
	t.Helper()
	_, events := watch(t, s, id)
	return events
}

// watch is waitTerminal that also returns the subscription's snapshot:
// what had already happened when the stream attached, and so is not in
// the events.
func watch(t *testing.T, s *Scheduler, id string) (View, []Event) {
	t.Helper()
	snap, ch, cancel, err := s.Subscribe(id)
	if err != nil {
		t.Fatalf("Subscribe(%s): %v", id, err)
	}
	defer cancel()
	if snap.Status.Terminal() {
		return snap, nil
	}
	var events []Event
	deadline := time.After(120 * time.Second)
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				t.Fatalf("event stream for %s closed before complete", id)
			}
			events = append(events, ev)
			if ev.Type == "complete" {
				return snap, events
			}
		case <-deadline:
			t.Fatalf("campaign %s did not complete in time", id)
		}
	}
}

// localDigest computes the golden digest of a submission by running it
// in-process through runner.Run with an independent cache — the
// reference every service-side execution must match byte for byte.
func localDigest(t *testing.T, sub Submission) string {
	t.Helper()
	jobs, err := sub.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	results, err := runner.Run(context.Background(), jobs, runner.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return resultsDigest(t, results)
}

func resultsDigest(t *testing.T, results []runner.JobResult) string {
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

// TestLifecycle covers submit -> progress events -> complete: counters,
// event shape, results in cell order, and byte-identical output to a
// local serial run of the same spec.
func TestLifecycle(t *testing.T) {
	dir := t.TempDir()
	s := openScheduler(t, dir, Options{Workers: 4})
	defer s.Close()

	sub := Submission{Spec: quickSpec()}
	v, err := s.Submit(sub)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if v.Total == 0 || v.Status.Terminal() {
		t.Fatalf("fresh campaign view looks terminal: %+v", v)
	}
	snap, events := watch(t, s, v.ID)

	final, err := s.View(v.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("status = %s, want done", final.Status)
	}
	if final.Done != final.Total || final.Failed != 0 || final.Cancelled != 0 {
		t.Fatalf("counters %+v, want all %d done", final, final.Total)
	}
	starts, terminals := 0, 0
	for _, ev := range events {
		switch ev.Type {
		case "start":
			starts++
		case string(JobDone), string(JobCached):
			terminals++
		}
	}
	// The pool starts on the jobs as soon as Submit returns: what it got
	// done before the stream attached is in the snapshot, and a job then
	// already running shows no start event.
	before := snap.Done + snap.Cached
	if starts > final.Total-before || terminals != final.Total-before {
		t.Errorf("saw %d start and %d terminal events for %d jobs, %d finished before the stream attached",
			starts, terminals, final.Total, before)
	}
	if !snap.Status.Terminal() {
		last := events[len(events)-1]
		if last.Type != "complete" || last.Status != StatusDone || last.Done != final.Total {
			t.Errorf("final event = %+v, want complete/done/%d", last, final.Total)
		}
	}

	results, err := s.Results(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultsDigest(t, results), localDigest(t, sub); got != want {
		t.Errorf("4-worker service digest %s != local serial digest %s", got, want)
	}
}

// TestDuplicateSubmissionIsAllCacheHits: resubmitting a finished spec
// must touch zero simulations — the shared cache serves every cell.
func TestDuplicateSubmissionIsAllCacheHits(t *testing.T) {
	dir := t.TempDir()
	s := openScheduler(t, dir, Options{Workers: 2})
	defer s.Close()

	sub := Submission{Spec: quickSpec()}
	v1, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, v1.ID)

	v2, err := s.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s, v2.ID)
	final, err := s.View(v2.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if final.Cached != final.Total {
		t.Fatalf("duplicate submission: %d/%d cached, want 100%%", final.Cached, final.Total)
	}

	r1, err := s.Results(v1.ID)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Results(v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if resultsDigest(t, r1) != resultsDigest(t, r2) {
		t.Error("cached resubmission produced different results")
	}
}

// blockingExecutor parks every Execute call until its job's context is
// cancelled — the tool for pinning cancellation semantics.
type blockingExecutor struct {
	started chan string
}

func (e *blockingExecutor) Execute(ctx context.Context, job runner.Job, emit func(runner.Event)) runner.JobResult {
	select {
	case e.started <- job.String():
	default:
	}
	<-ctx.Done()
	return runner.JobResult{Job: job, Err: ctx.Err()}
}

// relayExecutor waits for release, then reports every mid-job event a
// remote dispatcher can raise, each naming worker w1 and its reason,
// before it fails the job.
type relayExecutor struct {
	release chan struct{}
}

var relayed = []runner.EventType{runner.JobStart, runner.JobCacheCorrupt, runner.JobLeased, runner.JobLeaseExpired, runner.JobReassigned}

func (e *relayExecutor) Execute(ctx context.Context, job runner.Job, emit func(runner.Event)) runner.JobResult {
	select {
	case <-e.release:
	case <-ctx.Done():
		return runner.JobResult{Job: job, Err: ctx.Err()}
	}
	for i, typ := range relayed {
		emit(runner.Event{Type: typ, Job: job, Worker: "w1", Err: fmt.Errorf("reason %d", i)})
	}
	return runner.JobResult{Job: job, Err: errors.New("stub executor")}
}

// TestForwardRelaysLeaseEvents: a subscriber sees the executor's
// cache-corrupt and lease-lifecycle events in the order they happened,
// each with the worker's name and the error text, and nothing for the
// start event the scheduler emits itself at dispatch.
func TestForwardRelaysLeaseEvents(t *testing.T) {
	exec := &relayExecutor{release: make(chan struct{})}
	s := openScheduler(t, t.TempDir(), Options{Workers: 1, Executor: exec})
	defer s.Close()
	spec := quickSpec()
	spec.Schemes = []string{"CCFIT"}
	v, err := s.Submit(Submission{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	_, ch, cancel, err := s.Subscribe(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	close(exec.release)
	var got []string
	for ev := range ch {
		if ev.Type == "failed" || ev.Type == "complete" || ev.Type == "start" && ev.Worker == "" {
			continue // the scheduler's own dispatch and terminal events
		}
		if ev.Index != 0 || ev.Job != v.Jobs[0].Job {
			t.Errorf("%s event for job %d %q, want job 0 %q", ev.Type, ev.Index, ev.Job, v.Jobs[0].Job)
		}
		got = append(got, ev.Type+" "+ev.Worker+" "+ev.Error)
	}
	want := []string{"cache-corrupt w1 reason 1", "lease w1 reason 2", "lease-expired w1 reason 3", "requeued w1 reason 4"}
	if !slices.Equal(got, want) {
		t.Errorf("relayed events %q, want %q", got, want)
	}
}

// TestCancelMidRun: cancelling a running campaign drops its queued
// jobs, drains the in-flight one as cancelled, and finalizes the
// campaign as cancelled — all observable through events and the view.
// Closing the schedulers leaves no goroutine running.
func TestCancelMidRun(t *testing.T) {
	check := testutil.GoroutineBaseline(t)
	dir := t.TempDir()
	exec := &blockingExecutor{started: make(chan string, 1)}
	s := openScheduler(t, dir, Options{Workers: 1, Executor: exec})
	defer s.Close()

	v, err := s.Submit(Submission{Spec: quickSpec()})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-exec.started:
	case <-time.After(30 * time.Second):
		t.Fatal("no job started")
	}
	if _, err := s.Cancel(v.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	waitTerminal(t, s, v.ID)
	final, err := s.View(v.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusCancelled {
		t.Fatalf("status = %s, want cancelled", final.Status)
	}
	if final.Cancelled != final.Total {
		t.Fatalf("%d/%d jobs cancelled, want all", final.Cancelled, final.Total)
	}
	// Cancelling again is a stable no-op.
	again, err := s.Cancel(v.ID)
	if err != nil || again.Status != StatusCancelled {
		t.Fatalf("re-cancel: %+v, %v", again, err)
	}
	// A cancelled campaign's cancel mark must keep the jobs from
	// resurrecting.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openScheduler(t, dir, Options{Workers: 1, Executor: exec})
	defer s2.Close()
	resumed, err := s2.View(v.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Status != StatusCancelled || resumed.Cancelled != resumed.Total {
		t.Fatalf("after restart: %+v, want fully cancelled", resumed)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	check()
}

// gateExecutor runs the first `after` jobs normally, then parks every
// later Execute at a gate (closing hit on the first arrival) until
// release is closed, so a test can drain the scheduler at a
// deterministic point with work still queued.
type gateExecutor struct {
	inner   runner.Executor
	n       atomic.Int32
	after   int32
	hit     chan struct{}
	release chan struct{}
	once    atomic.Bool
}

func (e *gateExecutor) Execute(ctx context.Context, job runner.Job, emit func(runner.Event)) runner.JobResult {
	if e.n.Add(1) > e.after {
		if e.once.CompareAndSwap(false, true) {
			close(e.hit)
		}
		<-e.release
	}
	return e.inner.Execute(ctx, job, emit)
}

// TestRestartResumesFromSpec is the crash-consistency proof: a
// scheduler drained halfway through a campaign is reopened over the
// same spec files and cache, resumes the unfinished jobs, and the final
// results are byte-identical to an uninterrupted local run.
func TestRestartResumesFromSpec(t *testing.T) {
	dir := t.TempDir()
	cache, err := runner.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	exec := &gateExecutor{
		inner: &runner.LocalExecutor{Cache: cache}, after: 2,
		hit: make(chan struct{}), release: make(chan struct{}),
	}
	s1 := openScheduler(t, dir, Options{Workers: 1, Cache: cache, Executor: exec})

	sub := Submission{Spec: experiments.Spec{Experiments: []string{"fig7a"}, MS: 0.2, Seeds: 2}}
	v, err := s1.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	if v.Total < 4 {
		t.Fatalf("want a campaign big enough to halve, got %d jobs", v.Total)
	}
	select {
	case <-exec.hit: // the third job is parked at the gate
	case <-time.After(120 * time.Second):
		t.Fatal("campaign never reached the halfway mark")
	}
	// Graceful drain with the third job in flight: Close flips the
	// scheduler to draining first, then the gate release lets the
	// in-flight job finish and be cached; everything behind it is
	// left for the next process.
	closeErr := make(chan error, 1)
	go func() { closeErr <- s1.Close() }()
	for !s1.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(exec.release)
	if err := <-closeErr; err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A crash mid-Submit leaves a temp file, which Open ignores; a spec
	// that does not decode reads as a failed campaign and never makes
	// Open fail.
	sdir := filepath.Join(dir, "campaigns")
	if err := os.WriteFile(filepath.Join(sdir, "c000008.spec.json.tmp-1"), []byte(`{"id":"c0000`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sdir, "c000007.spec.json"), []byte("\x00garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openScheduler(t, dir, Options{Workers: 4, Cache: cache})
	defer s2.Close()
	if got := s2.Metrics().CampaignsResumed.Load(); got != 1 {
		t.Errorf("CampaignsResumed = %d, want 1", got)
	}
	if got := len(s2.List()); got != 2 {
		t.Errorf("reopened with %d campaigns, want the resumed one and the garbage one", got)
	}
	bad, err := s2.View("c000007", true)
	if err != nil {
		t.Fatal(err)
	}
	if bad.Status != StatusFailed || bad.Failed != 1 {
		t.Errorf("garbage spec reads %+v, want a failed campaign", bad)
	}
	s2.mu.Lock()
	why := s2.campaigns["c000007"].states[0].Error
	s2.mu.Unlock()
	if !strings.Contains(why, "c000007.spec.json") {
		t.Errorf("garbage spec's failure %q does not carry the decode error", why)
	}
	waitTerminal(t, s2, v.ID)
	final, err := s2.View(v.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != StatusDone {
		t.Fatalf("resumed campaign status = %s, want done", final.Status)
	}
	results, err := s2.Results(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultsDigest(t, results), localDigest(t, sub); got != want {
		t.Errorf("resumed campaign digest %s != uninterrupted local digest %s", got, want)
	}

	// A second restart with nothing pending replays to a terminal
	// campaign without touching the queue.
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := openScheduler(t, dir, Options{Workers: 1, Cache: cache})
	defer s3.Close()
	v3, err := s3.View(v.ID, false)
	if err != nil {
		t.Fatal(err)
	}
	if !v3.Status.Terminal() {
		t.Errorf("fully-finished campaign resumed as %s", v3.Status)
	}
	r3, err := s3.Results(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resultsDigest(t, r3), localDigest(t, sub); got != want {
		t.Errorf("cache-only results digest %s != local digest %s", got, want)
	}
	if next, err := s3.Submit(sub); err != nil || next.ID != "c000008" {
		t.Errorf("next submission is %q (%v), want c000008 after the garbage c000007", next.ID, err)
	}
}

// TestSpecWithSimWorkersResumes: a spec file whose submission carries
// "sim_workers" — a spec field of the deleted partitioned engine — still
// resumes (spec decoding ignores unknown fields), and its campaign
// renders the bytes of one stored without it.
func TestSpecWithSimWorkersResumes(t *testing.T) {
	dir := t.TempDir()
	sdir := filepath.Join(dir, "campaigns")
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	ids := []string{"c000000", "c000001"}
	for i, sub := range []string{
		`{"experiments":["fig7a"],"ms":0.2,"sim_workers":2}`,
		`{"experiments":["fig7a"],"ms":0.2}`,
	} {
		spec := `{"id":"` + ids[i] + `","at":"2026-01-01T00:00:00Z","sub":` + sub + "}"
		if err := os.WriteFile(filepath.Join(sdir, ids[i]+".spec.json"), []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openScheduler(t, dir, Options{Workers: 2})
	defer s.Close()
	if got := s.Metrics().CampaignsResumed.Load(); got != 2 {
		t.Fatalf("CampaignsResumed = %d, want 2", got)
	}
	want := localDigest(t, Submission{Spec: quickSpec()})
	for _, id := range ids {
		waitTerminal(t, s, id)
		results, err := s.Results(id)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultsDigest(t, results); got != want {
			t.Errorf("%s: resumed digest %s != local digest %s", id, got, want)
		}
	}
}

// TestLoadCurveSpecResumesFailed: a spec file an older build wrote with
// a "load_curve" (load points now are experiment ids) decodes to a spec
// that names no experiments, so it resumes as a failed campaign and
// Open still succeeds.
func TestLoadCurveSpecResumesFailed(t *testing.T) {
	dir := t.TempDir()
	sdir := filepath.Join(dir, "campaigns")
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := `{"id":"c000000","at":"2026-01-01T00:00:00Z","sub":{"schemes":["1Q"],"ms":0.2,"load_curve":{"config":2,"loads":[0.4]}}}`
	if err := os.WriteFile(filepath.Join(sdir, "c000000.spec.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openScheduler(t, dir, Options{Workers: 1})
	defer s.Close()
	if got := s.Metrics().CampaignsResumed.Load(); got != 0 {
		t.Errorf("CampaignsResumed = %d, want 0", got)
	}
	v, err := s.View("c000000", true)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != StatusFailed || v.Failed != 1 {
		t.Errorf("load_curve spec reads %+v, want a failed campaign", v)
	}
}

// TestResumeRacesParkedClaim: a board handed to Open may already hold a
// parked claim, which takes the first resumed task as resume queues it
// and runs it while resume is still adding campaigns. Under -race the
// task's status write and resume's fail unless both hold the
// scheduler's lock (matrix row scheduler-resume-unlocked). Campaigns of
// 32 cells keep resume busy long enough for the claim to run beside it
// even on a loaded machine.
func TestResumeRacesParkedClaim(t *testing.T) {
	check := testutil.GoroutineBaseline(t)
	dir := t.TempDir()
	sdir := filepath.Join(dir, "campaigns")
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		t.Fatal(err)
	}
	ids := []string{"c000000", "c000001", "c000002", "c000003"}
	for _, id := range ids {
		spec := `{"id":"` + id + `","at":"2026-01-01T00:00:00Z","sub":{"experiments":["fig7a"],"ms":0.2,"seeds":8}}`
		if err := os.WriteFile(filepath.Join(sdir, id+".spec.json"), []byte(spec), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	board := dispatch.NewBoard(dispatch.Options{})
	defer board.Close()
	w, err := board.Register("idle", "test-build")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	claimDone := make(chan struct{})
	go func() {
		defer close(claimDone)
		// noopExecutor settles each task on the service, so the claim
		// takes the next one and parks again once the queue is empty.
		_, _, _ = board.ClaimWait(ctx, w, time.Minute)
	}()
	for deadline := time.Now().Add(5 * time.Second); board.Snapshot()["claims_parked"].(int) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the claim never parked")
		}
	}

	s := openScheduler(t, dir, Options{Dispatch: board, Executor: noopExecutor{}})
	defer s.Close()
	for _, id := range ids {
		waitTerminal(t, s, id)
		if final, err := s.View(id, false); err != nil || final.Status != StatusDone {
			t.Errorf("%s: %+v, %v; want done", id, final, err)
		}
	}
	cancel()
	<-claimDone
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	board.Close()
	check()
}

// TestSubmitValidation: a bad spec is rejected up front, before any
// job is enqueued or stored.
func TestSubmitValidation(t *testing.T) {
	dir := t.TempDir()
	s := openScheduler(t, dir, Options{Workers: 1})
	defer s.Close()
	cases := []Submission{
		{Spec: experiments.Spec{Experiments: []string{"no-such-experiment"}}},
		{Spec: experiments.Spec{Experiments: []string{"fig7a"}, Schemes: []string{"bogus"}}},
		{Spec: experiments.Spec{}},
	}
	for _, sub := range cases {
		if _, err := s.Submit(sub); err == nil {
			t.Errorf("Submit(%+v) accepted an invalid spec", sub.Spec)
		}
	}
	if got := len(s.List()); got != 0 {
		t.Fatalf("invalid submissions left %d campaigns behind", got)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "campaigns"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("invalid submissions left %d files in the spec directory", len(entries))
	}
}

// TestSubmitNeverOverwritesSpec: a spec file that appeared under the
// next id after Open (another process on the same directory) fails the
// submission and survives it; the one after takes a fresh id.
func TestSubmitNeverOverwritesSpec(t *testing.T) {
	dir := t.TempDir()
	s := openScheduler(t, dir, Options{Workers: 1, Executor: &blockingExecutor{started: make(chan string, 1)}})
	defer s.Close()
	path := filepath.Join(dir, "campaigns", "c000000.spec.json")
	if err := os.WriteFile(path, []byte("theirs"), 0o644); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Submit(Submission{Spec: quickSpec()}); err == nil {
		t.Fatalf("Submit overwrote an existing spec as %s", v.ID)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "theirs" {
		t.Fatalf("existing spec reads %q (%v) after the refused submission", data, err)
	}
	v, err := s.Submit(Submission{Spec: quickSpec()})
	if err != nil || v.ID != "c000001" {
		t.Fatalf("next submission: %q, %v; want c000001", v.ID, err)
	}
	if _, err := s.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownCampaign: every accessor agrees on ErrNotFound.
func TestUnknownCampaign(t *testing.T) {
	dir := t.TempDir()
	s := openScheduler(t, dir, Options{Workers: 1})
	defer s.Close()
	if _, err := s.View("c999999", true); err != ErrNotFound {
		t.Errorf("View: %v, want ErrNotFound", err)
	}
	if _, err := s.Results("c999999"); err != ErrNotFound {
		t.Errorf("Results: %v, want ErrNotFound", err)
	}
	if _, err := s.Cancel("c999999"); err != ErrNotFound {
		t.Errorf("Cancel: %v, want ErrNotFound", err)
	}
	if _, _, _, err := s.Subscribe("c999999"); err != ErrNotFound {
		t.Errorf("Subscribe: %v, want ErrNotFound", err)
	}
}

// countingExecutor counts the jobs handed to it.
type countingExecutor struct {
	inner runner.Executor
	n     atomic.Int32
}

func (e *countingExecutor) Execute(ctx context.Context, job runner.Job, emit func(runner.Event)) runner.JobResult {
	e.n.Add(1)
	return e.inner.Execute(ctx, job, emit)
}

// TestQuarantineSurvivesRestart: a campaign whose cells all quarantine
// (switch A wedged for good under a short watchdog) reads the same after
// a restart — every cell quarantined, the checker's snapshot included —
// with no job run, because the quarantines are cache entries. They are
// keyed by the watchdog window: the same cells at the default window
// are not answered from them.
func TestQuarantineSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cache, err := runner.OpenCache(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	swA := topo.Config1SwitchA
	sub := Submission{experiments.Spec{
		Experiments: []string{"fig7a"}, MS: 0.5,
		Faults:   &fault.Script{Name: "wedge-swA", Events: []fault.Event{{Kind: fault.SwitchStall, At: 1_000, Switch: &swA}}},
		Watchdog: 5_000,
	}}
	s1 := openScheduler(t, dir, Options{Workers: 2, Cache: cache})
	v, err := s1.Submit(sub)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s1, v.ID)
	first, err := s1.Results(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range first {
		if !jr.Quarantined || jr.Attempts != 1 || !strings.Contains(jr.Diagnostics, "swA") {
			t.Fatalf("%s: quarantined=%v attempts=%d, diagnostics:\n%s", jr.Job, jr.Quarantined, jr.Attempts, jr.Diagnostics)
		}
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	exec := &countingExecutor{inner: &runner.LocalExecutor{Cache: cache}}
	s2 := openScheduler(t, dir, Options{Workers: 2, Cache: cache, Executor: exec})
	defer s2.Close()
	view, err := s2.View(v.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if view.Status != StatusFailed || view.Failed != view.Total {
		t.Errorf("after restart: %+v, want every cell failed", view)
	}
	for _, jv := range view.Jobs {
		if jv.Status != JobQuarantined {
			t.Errorf("%s reads %s after restart, want quarantined", jv.Job, jv.Status)
		}
	}
	again, err := s2.Results(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range again {
		if !jr.Quarantined || jr.Diagnostics != first[i].Diagnostics || jr.Err == nil || jr.Err.Error() != first[i].Err.Error() {
			t.Errorf("%s after restart: quarantined=%v err=%v, diagnostics:\n%s", jr.Job, jr.Quarantined, jr.Err, jr.Diagnostics)
		}
	}
	if n := exec.n.Load(); n != 0 {
		t.Errorf("the restart ran %d jobs, want 0", n)
	}

	def := sub
	def.Watchdog = 0
	v2, err := s2.Submit(def)
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, s2, v2.ID)
	ran, err := s2.Results(v2.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range ran {
		if jr.Attempts == 0 {
			t.Errorf("%s at the default watchdog was answered from the cache (quarantined=%v)", jr.Job, jr.Quarantined)
		}
	}
}

// noopExecutor finishes every job at once without simulating.
type noopExecutor struct{}

func (noopExecutor) Execute(_ context.Context, job runner.Job, _ func(runner.Event)) runner.JobResult {
	return runner.JobResult{Job: job, Result: &experiments.Result{}}
}

// TestMaxCellsDrains: a campaign of experiments.MaxCells cells through
// an executor that does nothing drains in seconds — an event costs the
// scheduler O(1), not a rescan of every job state — and the stream's
// Done never falls and ends at Total on the complete event.
func TestMaxCellsDrains(t *testing.T) {
	s := openScheduler(t, t.TempDir(), Options{Workers: 2, Executor: noopExecutor{}})
	defer s.Close()
	spec := quickSpec() // fig7a: four schemes
	spec.Seeds = experiments.MaxCells / 4
	t0 := time.Now()
	v, err := s.Submit(Submission{Spec: spec})
	if err != nil {
		t.Fatal(err)
	}
	if v.Total != experiments.MaxCells {
		t.Fatalf("%d cells, want %d", v.Total, experiments.MaxCells)
	}
	snap, events := watch(t, s, v.ID)
	if took := time.Since(t0); took > 10*time.Second {
		t.Errorf("%d cells took %v to drain, want under 10 s", v.Total, took)
	}
	last := snap.Done
	for _, ev := range events {
		if ev.Done < last {
			t.Fatalf("%s event reads done %d after %d", ev.Type, ev.Done, last)
		}
		last = ev.Done
	}
	if n := len(events); n > 0 && (events[n-1].Type != "complete" || last != v.Total) {
		t.Fatalf("stream ended on %+v, want complete at %d", events[n-1], v.Total)
	}
}
