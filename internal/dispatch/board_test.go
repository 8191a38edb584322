package dispatch

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/runner"
	"repro/internal/testutil"
)

// fakeClock is a manually advanced clock: with it and manual sweep()
// calls, the whole lease lifecycle runs without one wall-clock sleep.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	return c.t
}

// eventLog collects runner events thread-safely.
type eventLog struct {
	mu  sync.Mutex
	evs []runner.Event
}

func (l *eventLog) emit(ev runner.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.evs = append(l.evs, ev)
}

func (l *eventLog) types() []runner.EventType {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]runner.EventType, len(l.evs))
	for i, ev := range l.evs {
		out[i] = ev.Type
	}
	return out
}

func (l *eventLog) count(t runner.EventType) int {
	n := 0
	for _, typ := range l.types() {
		if typ == t {
			n++
		}
	}
	return n
}

// testBoard builds a board on a fake clock, with a liveness window of
// 30 minutes unless the test sets b.liveness. Its lease TTL is a minute
// or more, so the background sweeper (every TTL/4 of real time) never
// fires inside a test; tests drive sweep by hand.
func testBoard(t *testing.T, opt Options) (*Board, *fakeClock) {
	t.Helper()
	if opt.LeaseTTL == 0 {
		opt.LeaseTTL = time.Minute
	}
	clock := newFakeClock()
	b := NewBoard(opt)
	b.now = clock.Now
	b.liveness = 30 * time.Minute
	t.Cleanup(b.Close)
	return b, clock
}

type enqueued struct {
	jr       runner.JobResult
	executed bool
}

// enqueue pushes a job onto the board's queue whose run offers it to
// the claiming worker, as RemoteExecutor's envelope does (a lost lease
// ends the run and the next claim runs it again), and returns the
// channel its outcome lands on.
func enqueue(ctx context.Context, b *Board, log *eventLog) (runner.Job, <-chan enqueued) {
	job := leasable(1)
	return job, push(ctx, b, job, log.emit)
}

// leasable is a fig7a/CCFIT job at seed as far as a lease needs it: its
// one-cell Source is what the claim carries.
func leasable(seed int64) runner.Job {
	return runner.Job{
		Exp: experiments.Experiment{ID: "fig7a"}, Scheme: "CCFIT", Seed: seed,
		Source: &experiments.Spec{Experiments: []string{"fig7a"}, Schemes: []string{"CCFIT"}, Seed: seed, Seeds: 1},
	}
}

func push(ctx context.Context, b *Board, job runner.Job, emit func(runner.Event)) <-chan enqueued {
	ch := make(chan enqueued, 1)
	b.Queue().Push(&runner.Task{Job: job, Ctx: ctx, Run: func(ctx context.Context) {
		jr, executed := b.offer(ctx, job, emit)
		if !errors.Is(jr.Err, runner.ErrRequeued) {
			ch <- enqueued{jr, executed}
		}
	}})
	return ch
}

// claimSoon claims the queued job for a worker, failing when there is none.
func claimSoon(t *testing.T, b *Board, workerID string) ClaimResponse {
	t.Helper()
	resp, ok, err := b.ClaimWait(context.Background(), workerID, 0)
	if err != nil || !ok {
		t.Fatalf("Claim: ok=%v err=%v", ok, err)
	}
	return resp
}

// claimNone asserts a worker's claim finds no job.
func claimNone(t *testing.T, b *Board, workerID string) {
	t.Helper()
	if resp, ok, err := b.ClaimWait(context.Background(), workerID, 0); ok || err != nil {
		t.Fatalf("claim: ok=%v err=%v lease %q", ok, err, resp.LeaseID)
	}
}

func mustRegister(t *testing.T, b *Board, name string) string {
	t.Helper()
	id, err := b.Register(name, "test-build")
	if err != nil {
		t.Fatalf("Register(%s): %v", name, err)
	}
	return id
}

// TestLeaseExpiryReclaimRequeue is the core fault-tolerance path: a
// claimed job whose worker stops heartbeating is reclaimed at TTL,
// requeued at the front, re-claimed by a healthy worker and completed
// — and the enqueuer gets exactly one result.
func TestLeaseExpiryReclaimRequeue(t *testing.T) {
	b, clock := testBoard(t, Options{LeaseTTL: time.Minute})
	crashy := mustRegister(t, b, "crashy")
	healthy := mustRegister(t, b, "healthy")
	log := &eventLog{}
	_, ch := enqueue(context.Background(), b, log)

	first := claimSoon(t, b, crashy)
	// crashy goes silent. One TTL later the sweeper reclaims; healthy
	// must stay within liveness, so heartbeat its registration by
	// claiming (a no-work claim refreshes lastSeen).
	clock.Advance(61 * time.Second)
	claimNone(t, b, healthy)
	b.sweep(clock.Now())

	second := claimSoon(t, b, healthy)
	if second.LeaseID == first.LeaseID {
		t.Fatal("reclaimed job kept its old lease id")
	}
	res := runner.WireResult{Key: "k", ElapsedMS: 5}
	if err := b.Complete(healthy, second.LeaseID, res, false); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	got := <-ch
	if !got.executed || got.jr.Err != nil {
		t.Fatalf("enqueue outcome: executed=%v err=%v", got.executed, got.jr.Err)
	}
	if got.jr.Key != "k" {
		t.Fatalf("result did not flow back: %+v", got.jr)
	}
	if n := log.count(runner.JobLeaseExpired); n != 1 {
		t.Fatalf("JobLeaseExpired events = %d, want 1 (types: %v)", n, log.types())
	}
	if n := log.count(runner.JobReassigned); n != 1 {
		t.Fatalf("JobReassigned events = %d, want 1", n)
	}
	if n := log.count(runner.JobLeased); n != 2 {
		t.Fatalf("JobLeased events = %d, want 2", n)
	}
	snap := b.Snapshot()
	if snap["jobs_reclaimed"].(int64) != 1 || snap["leases_expired"].(int64) != 1 {
		t.Fatalf("metrics missed the reclaim: %v", snap)
	}
}

// TestDuplicateResultDropped: a worker that finishes after its lease
// was reclaimed delivers into a dead lease; the board must drop the
// late result (counting it) and keep the one true result intact.
func TestDuplicateResultDropped(t *testing.T) {
	b, clock := testBoard(t, Options{LeaseTTL: time.Minute})
	slow := mustRegister(t, b, "slow")
	fast := mustRegister(t, b, "fast")
	log := &eventLog{}
	_, ch := enqueue(context.Background(), b, log)

	stale := claimSoon(t, b, slow)
	clock.Advance(61 * time.Second)
	claimNone(t, b, fast)
	b.sweep(clock.Now())
	fresh := claimSoon(t, b, fast)
	if err := b.Complete(fast, fresh.LeaseID, runner.WireResult{Key: "good"}, false); err != nil {
		t.Fatalf("Complete(fresh): %v", err)
	}
	// The partitioned worker finishes anyway and delivers late.
	if err := b.Complete(slow, stale.LeaseID, runner.WireResult{Key: "late"}, false); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("late delivery: got %v, want ErrLeaseGone", err)
	}
	got := <-ch
	if got.jr.Key != "good" {
		t.Fatalf("late result overwrote the real one: %+v", got.jr)
	}
	snap := b.Snapshot()
	if snap["results_duplicate"].(int64) != 1 {
		t.Fatalf("duplicate not counted: %v", snap)
	}
	if snap["remote_jobs_done"].(int64) != 1 {
		t.Fatalf("remote_jobs_done double-counted: %v", snap)
	}
}

// TestCompleteRacesWorkers: a delivery takes its lease off the worker's
// record while GET /workers lists that record's leases, so under -race
// either one touching workerRec.active without Board.mu fails (matrix
// row board-drop-lease-unlocks). A race shows only on a schedule that
// overlaps the two, hence Workers in a loop for as long as Complete
// runs, and the rounds.
func TestCompleteRacesWorkers(t *testing.T) {
	check := testutil.GoroutineBaseline(t)
	b, _ := testBoard(t, Options{})
	w := mustRegister(t, b, "w")
	for range 500 {
		_, done := enqueue(context.Background(), b, &eventLog{})
		c := claimSoon(t, b, w)
		var delivered atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer delivered.Store(true)
			if err := b.Complete(w, c.LeaseID, runner.WireResult{Key: "k"}, false); err != nil {
				t.Errorf("Complete: %v", err)
			}
		}()
		go func() {
			defer wg.Done()
			for !delivered.Load() {
				b.Workers()
			}
		}()
		wg.Wait()
		if got := <-done; got.jr.Key != "k" {
			t.Fatalf("result lost: %+v", got.jr)
		}
	}
	b.Close()
	check()
}

// TestMaxReassignExhaustion: a job that outlives maxReassign leases
// fails instead of looping through the fleet forever.
func TestMaxReassignExhaustion(t *testing.T) {
	b, clock := testBoard(t, Options{LeaseTTL: time.Minute})
	b.liveness = 24 * time.Hour
	w := mustRegister(t, b, "doomed")
	log := &eventLog{}
	_, ch := enqueue(context.Background(), b, log)

	for round := 0; round <= maxReassign; round++ {
		claimSoon(t, b, w)
		clock.Advance(61 * time.Second)
		b.sweep(clock.Now())
	}
	got := <-ch
	if !got.executed {
		t.Fatal("exhausted job should report executed (with an error), not fall back")
	}
	if got.jr.Err == nil || !strings.Contains(got.jr.Err.Error(), "lease lost") {
		t.Fatalf("want a lease-lost failure, got %v", got.jr.Err)
	}
	snap := b.Snapshot()
	if snap["jobs_reassign_exhausted"].(int64) != 1 || snap["jobs_reclaimed"].(int64) != maxReassign {
		t.Fatalf("exhaustion not counted: %v", snap)
	}
	// The failure is the envelope's to report: the board emits no
	// terminal event of its own.
	if n := log.count(runner.JobFailed); n != 0 {
		t.Fatalf("JobFailed events = %d from the board, want 0", n)
	}
	claimNone(t, b, w)
}

// TestNoWorkersFallsBack covers both degradation paths: with an empty
// fleet the in-process slot takes a job at once, and a queued job whose
// last worker dies goes to the slot at the sweep that prunes it.
func TestNoWorkersFallsBack(t *testing.T) {
	b, clock := testBoard(t, Options{LeaseTTL: time.Minute})
	b.liveness = 2 * time.Minute
	b.Queue().Serve(1)
	t.Cleanup(b.Queue().Close)
	log := &eventLog{}

	// Empty fleet: the slot runs it.
	if got := <-push(context.Background(), b, leasable(1), log.emit); got.executed {
		t.Fatalf("a job with no workers went remote: %+v", got.jr)
	}

	// Fleet dies while the job is queued: the sweep hands it to the slot.
	mustRegister(t, b, "fleeting")
	_, ch := enqueue(context.Background(), b, log)
	time.Sleep(10 * time.Millisecond)
	if q := b.Snapshot()["dispatch_queued"].(int); q != 1 {
		t.Fatalf("dispatch_queued %d with a worker live, want the job left to it", q)
	}
	clock.Advance(3 * time.Minute) // past liveness: worker is dead
	b.sweep(clock.Now())
	if got := <-ch; got.executed {
		t.Fatal("job ran remotely with the fleet gone")
	}
	if snap := b.Snapshot(); snap["workers_pruned"].(int64) != 1 || snap["leases_granted"].(int64) != 0 {
		t.Fatalf("fallback not visible in metrics: %v", snap)
	}
}

// TestHeartbeatExtendsLease: renewals move the expiry forward, so a
// slow-but-alive worker keeps its job past the original TTL.
func TestHeartbeatExtendsLease(t *testing.T) {
	b, clock := testBoard(t, Options{LeaseTTL: time.Minute})
	b.liveness = 24 * time.Hour
	w := mustRegister(t, b, "steady")
	log := &eventLog{}
	_, ch := enqueue(context.Background(), b, log)
	claim := claimSoon(t, b, w)

	// Renew at 40s intervals for 4 TTLs of simulated time: without the
	// heartbeats the lease would expire at +60s.
	for i := 0; i < 6; i++ {
		clock.Advance(40 * time.Second)
		b.sweep(clock.Now())
		if err := b.Heartbeat(w, claim.LeaseID); err != nil {
			t.Fatalf("Heartbeat after %d renewals: %v", i, err)
		}
	}
	if err := b.Complete(w, claim.LeaseID, runner.WireResult{Key: "done"}, false); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	got := <-ch
	if got.jr.Key != "done" || got.jr.Err != nil {
		t.Fatalf("slow worker's result lost: %+v", got.jr)
	}
	if n := log.count(runner.JobLeaseExpired); n != 0 {
		t.Fatalf("heartbeated lease expired %d times", n)
	}
}

// TestAbandonRequeuesImmediately: a draining worker hands its job back
// without waiting out the TTL.
func TestAbandonRequeuesImmediately(t *testing.T) {
	b, _ := testBoard(t, Options{LeaseTTL: time.Hour})
	quitter := mustRegister(t, b, "quitter")
	stayer := mustRegister(t, b, "stayer")
	log := &eventLog{}
	_, ch := enqueue(context.Background(), b, log)

	claim := claimSoon(t, b, quitter)
	if err := b.Complete(quitter, claim.LeaseID, runner.WireResult{}, true); err != nil {
		t.Fatalf("abandon: %v", err)
	}
	// No clock advance, no sweep: the job must already be claimable.
	again := claimSoon(t, b, stayer)
	if err := b.Complete(stayer, again.LeaseID, runner.WireResult{Key: "ok"}, false); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	if got := <-ch; got.jr.Key != "ok" {
		t.Fatalf("abandoned job's final result lost: %+v", got.jr)
	}
	snap := b.Snapshot()
	if snap["jobs_abandoned"].(int64) != 1 || snap["jobs_reclaimed"].(int64) != 1 {
		t.Fatalf("abandon not visible in metrics: %v", snap)
	}
}

// TestEnqueueCancellation: a cancelled enqueue returns promptly with
// the context error and a later delivery under its lease is dropped.
func TestEnqueueCancellation(t *testing.T) {
	b, _ := testBoard(t, Options{LeaseTTL: time.Hour})
	w := mustRegister(t, b, "w")
	log := &eventLog{}
	ctx, cancel := context.WithCancel(context.Background())
	_, ch := enqueue(ctx, b, log)
	claim := claimSoon(t, b, w)
	cancel()
	got := <-ch
	if !got.executed || !errors.Is(got.jr.Err, context.Canceled) {
		t.Fatalf("cancelled enqueue: executed=%v err=%v", got.executed, got.jr.Err)
	}
	if err := b.Complete(w, claim.LeaseID, runner.WireResult{Key: "late"}, false); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("post-cancel delivery: got %v, want ErrLeaseGone", err)
	}
}

// TestEnqueueCancelledWhileQueued: a job whose context ends before any
// worker claims it is never leased — the claim runs it, and its run
// sees the cancellation — so a worker registered all along gets nothing
// to run.
func TestEnqueueCancelledWhileQueued(t *testing.T) {
	b, _ := testBoard(t, Options{LeaseTTL: time.Hour})
	w := mustRegister(t, b, "late")
	ctx, cancel := context.WithCancel(context.Background())
	job := leasable(1)
	ch := make(chan error, 1)
	b.Queue().Push(&runner.Task{Job: job, Ctx: ctx, Run: func(ctx context.Context) {
		if err := ctx.Err(); err != nil {
			ch <- err // what a campaign's task does with a cancelled job
			return
		}
		b.offer(ctx, job, nil)
	}})
	cancel()
	claimNone(t, b, w)
	if err := <-ch; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled queued job: %v", err)
	}
	if n := b.Snapshot()["leases_granted"].(int64); n != 0 {
		t.Fatalf("leases_granted = %d for a cancelled job", n)
	}
}

// TestCloseWithdrawsQueued: closing the board hands its queued and its
// leased jobs to the in-process slots — none is stranded — a late
// delivery on a lease it dropped is refused, and under a closed queue
// (a draining service) the handed-back job stays queued.
func TestCloseWithdrawsQueued(t *testing.T) {
	b, _ := testBoard(t, Options{LeaseTTL: time.Hour})
	w := mustRegister(t, b, "idle")
	_, leased := enqueue(context.Background(), b, &eventLog{})
	claim := claimSoon(t, b, w)
	_, queued := enqueue(context.Background(), b, &eventLog{})
	b.Queue().Serve(1)
	t.Cleanup(b.Queue().Close)
	time.Sleep(10 * time.Millisecond)
	if q := b.Snapshot()["dispatch_queued"].(int); q != 1 {
		t.Fatalf("dispatch_queued %d before Close, want 1", q)
	}
	b.Close()
	for _, ch := range []<-chan enqueued{leased, queued} {
		if got := <-ch; got.executed {
			t.Fatal("a job went remote after Close")
		}
	}
	if err := b.Complete(w, claim.LeaseID, runner.WireResult{Key: "late"}, false); !errors.Is(err, ErrLeaseGone) {
		t.Fatalf("delivery after Close: %v, want ErrLeaseGone", err)
	}

	// A draining service closes its queue first: the leased job the
	// board hands back stays queued for the next process, unrun.
	d, _ := testBoard(t, Options{LeaseTTL: time.Hour})
	_, leased = enqueue(context.Background(), d, &eventLog{})
	claimSoon(t, d, mustRegister(t, d, "busy"))
	drained := make(chan struct{})
	go func() {
		d.Queue().Close() // waits for the leased run
		close(drained)
	}()
	d.Close()
	<-drained
	if n := d.Queue().Len(); n != 1 {
		t.Fatalf("%d jobs queued after the drain, want the leased one", n)
	}
	select {
	case got := <-leased:
		t.Fatalf("the handed-back job reported %+v", got)
	default:
	}
}
