package campaign

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/testutil"
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
		opt.Dir = filepath.Join(dir, "journal")
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

// TestCancelMidRun: cancelling a running campaign drops its queued
// jobs, drains the in-flight one as cancelled, and finalizes the
// campaign as cancelled — all observable through events and the view.
func TestCancelMidRun(t *testing.T) {
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
	// A canceled campaign's journal must not resurrect the jobs.
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

// TestRestartResumesFromJournal is the crash-consistency proof: a
// scheduler drained halfway through a campaign is reopened over the
// same journal and cache, resumes the unfinished jobs, and the final
// results are byte-identical to an uninterrupted local run.
func TestRestartResumesFromJournal(t *testing.T) {
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
	// in-flight job finish and be journaled; everything behind it
	// stays queued on disk.
	closeErr := make(chan error, 1)
	go func() { closeErr <- s1.Close() }()
	for !s1.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(exec.release)
	if err := <-closeErr; err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Simulate a torn final write: journal replay must tolerate a
	// partial trailing line.
	jpath := journalPath(filepath.Join(dir, "journal"), v.ID)
	f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"t":"job","i":9`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openScheduler(t, dir, Options{Workers: 4, Cache: cache})
	defer s2.Close()
	if got := s2.Metrics().CampaignsResumed.Load(); got != 1 {
		t.Errorf("CampaignsResumed = %d, want 1", got)
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
		t.Errorf("journal-only results digest %s != local digest %s", got, want)
	}
}

// TestJournalWithSimWorkersResumes: a journal whose submit record
// carries "sim_workers" — a spec field of the deleted partitioned engine
// — still replays (journal decoding ignores unknown fields), and its
// campaign renders the bytes of one journaled without it.
func TestJournalWithSimWorkersResumes(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	ids := []string{"c000000", "c000001"}
	for i, sub := range []string{
		`{"experiments":["fig7a"],"ms":0.2,"sim_workers":2}`,
		`{"experiments":["fig7a"],"ms":0.2}`,
	} {
		rec := `{"t":"submit","at":"2026-01-01T00:00:00Z","id":"` + ids[i] + `","sub":` + sub + "}\n"
		if err := os.WriteFile(journalPath(jdir, ids[i]), []byte(rec), 0o644); err != nil {
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

// TestSubmitValidation: a bad spec is rejected up front, before any
// job is enqueued or journaled.
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
	entries, err := os.ReadDir(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("invalid submissions left %d journal files behind", len(entries))
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
