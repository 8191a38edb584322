package dispatch

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/runner"
	"repro/internal/testutil"
)

// Park/wake tests: a claim that finds the board empty is held and must
// be answered by every transition that queues work, released by
// everything that ends the wait, and never answered twice. They run on
// the fake clock; the only real time is the hold itself, which the
// tests either never reach (20 s) or keep to a few milliseconds.

type claimed struct {
	resp ClaimResponse
	ok   bool
	err  error
}

// park issues ClaimWait on a background goroutine and returns the
// channel its answer lands on.
func park(ctx context.Context, b *Board, workerID string, wait time.Duration) <-chan claimed {
	ch := make(chan claimed, 1)
	go func() {
		resp, ok, err := b.ClaimWait(ctx, workerID, wait)
		ch <- claimed{resp, ok, err}
	}()
	return ch
}

// waitGauge blocks until a /metrics gauge reads want: how a test knows
// a claim is parked (or a job queued) before it triggers the next step.
func waitGauge(t *testing.T, b *Board, key string, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for b.Snapshot()[key].(int) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reached %d (now %v)", key, want, b.Snapshot()[key])
		}
		time.Sleep(time.Millisecond)
	}
}

// answer receives a parked claim's outcome, failing if it stays parked.
func answer(t *testing.T, ch <-chan claimed) claimed {
	t.Helper()
	select {
	case c := <-ch:
		if c.err != nil {
			t.Fatalf("parked claim: %v", c.err)
		}
		return c
	case <-time.After(5 * time.Second):
		t.Fatal("parked claim was never answered")
		return claimed{}
	}
}

func TestParkGrantedOnEnqueue(t *testing.T) {
	b, _ := testBoard(t, Options{})
	w := mustRegister(t, b, "idle")
	ch := park(context.Background(), b, w, time.Hour) // clamped to TTL/3
	waitGauge(t, b, "claims_parked", 1)

	log := &eventLog{}
	_, done := enqueue(context.Background(), b, log)
	c := answer(t, ch)
	if !c.ok {
		t.Fatal("parked claim released empty-handed although a job was queued")
	}
	if err := b.Complete(w, c.resp.LeaseID, runner.WireResult{Key: "k"}, false); err != nil {
		t.Fatal(err)
	}
	if got := <-done; !got.executed || got.jr.Key != "k" {
		t.Fatalf("enqueue outcome: %+v", got)
	}
	snap := b.Snapshot()
	if snap["claims_parked"].(int) != 0 || snap["claims_empty"].(int64) != 0 {
		t.Fatalf("park accounting off after a grant: %v", snap)
	}
}

func TestParkGrantedOnAbandonRequeue(t *testing.T) {
	b, _ := testBoard(t, Options{})
	quitter := mustRegister(t, b, "quitter")
	stayer := mustRegister(t, b, "stayer")
	_, done := enqueue(context.Background(), b, &eventLog{})
	first := claimSoon(t, b, quitter)

	ch := park(context.Background(), b, stayer, time.Hour)
	waitGauge(t, b, "claims_parked", 1)
	if err := b.Complete(quitter, first.LeaseID, runner.WireResult{}, true); err != nil {
		t.Fatalf("abandon: %v", err)
	}
	c := answer(t, ch)
	if !c.ok || c.resp.LeaseID == first.LeaseID {
		t.Fatalf("abandoned job did not reach the parked claim: %+v", c)
	}
	if err := b.Complete(stayer, c.resp.LeaseID, runner.WireResult{Key: "ok"}, false); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got.jr.Key != "ok" {
		t.Fatalf("result lost: %+v", got)
	}
}

func TestParkGrantedOnSweepExpiry(t *testing.T) {
	b, clock := testBoard(t, Options{})
	crashy := mustRegister(t, b, "crashy")
	healthy := mustRegister(t, b, "healthy")
	_, done := enqueue(context.Background(), b, &eventLog{})
	claimSoon(t, b, crashy)

	ch := park(context.Background(), b, healthy, time.Hour)
	waitGauge(t, b, "claims_parked", 1)
	b.sweep(clock.Advance(61 * time.Second)) // crashy's lease expires
	c := answer(t, ch)
	if !c.ok {
		t.Fatal("reclaimed job did not reach the parked claim at the sweep")
	}
	if err := b.Complete(healthy, c.resp.LeaseID, runner.WireResult{Key: "ok"}, false); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got.jr.Key != "ok" {
		t.Fatalf("result lost: %+v", got)
	}
}

func TestParkHoldElapses(t *testing.T) {
	b, _ := testBoard(t, Options{})
	w := mustRegister(t, b, "idle")
	const hold = 20 * time.Millisecond
	t0 := time.Now()
	_, ok, err := b.ClaimWait(context.Background(), w, hold)
	if ok || err != nil {
		t.Fatalf("empty board: ok=%v err=%v", ok, err)
	}
	if d := time.Since(t0); d < hold {
		t.Fatalf("204 after %v, before the %v hold elapsed", d, hold)
	}
	if n := b.Snapshot()["claims_empty"].(int64); n != 1 {
		t.Fatalf("claims_empty = %d, want 1", n)
	}
}

// TestParkWaitZeroImmediate: the pre-wait_ms contract. A blocking call
// here would hang the test, so no goroutine and no timeout.
func TestParkWaitZeroImmediate(t *testing.T) {
	b, _ := testBoard(t, Options{})
	w := mustRegister(t, b, "old")
	for _, wait := range []time.Duration{0, -time.Second} {
		if _, ok, err := b.ClaimWait(context.Background(), w, wait); ok || err != nil {
			t.Fatalf("wait %v: ok=%v err=%v", wait, ok, err)
		}
	}
	if _, _, err := b.ClaimWait(context.Background(), "w9999", time.Hour); err != ErrUnknownWorker {
		t.Fatalf("unknown worker: %v", err)
	}
}

// TestParkReleasedByCancel: a client that went away is released without
// a lease, both while parked and when the wake and the cancel race; the
// job it did not take goes to the next claimant.
func TestParkReleasedByCancel(t *testing.T) {
	b, _ := testBoard(t, Options{})
	gone := mustRegister(t, b, "gone")
	next := mustRegister(t, b, "next")
	ctx, cancel := context.WithCancel(context.Background())
	ch := park(ctx, b, gone, time.Hour)
	waitGauge(t, b, "claims_parked", 1)
	cancel()
	if c := answer(t, ch); c.ok {
		t.Fatal("cancelled claim was handed a lease")
	}

	_, done := enqueue(context.Background(), b, &eventLog{})
	waitGauge(t, b, "dispatch_queued", 1)
	// Already cancelled with work queued: the post-wake re-check.
	if _, ok, err := b.ClaimWait(ctx, gone, time.Hour); ok || err != nil {
		t.Fatalf("dead request took a job: ok=%v err=%v", ok, err)
	}
	c := claimSoon(t, b, next)
	if err := b.Complete(next, c.LeaseID, runner.WireResult{Key: "ok"}, false); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got.jr.Key != "ok" {
		t.Fatalf("result lost: %+v", got)
	}
	if n := b.Snapshot()["leases_granted"].(int64); n != 1 {
		t.Fatalf("leases_granted = %d, want 1", n)
	}
}

func TestParkReleasedByClose(t *testing.T) {
	check := testutil.GoroutineBaseline(t)
	b, _ := testBoard(t, Options{})
	w := mustRegister(t, b, "idle")
	ch := park(context.Background(), b, w, time.Hour)
	waitGauge(t, b, "claims_parked", 1)
	b.Close()
	if c := answer(t, ch); c.ok {
		t.Fatal("claim granted by a closing board with nothing queued")
	}
	// A closed board does not park the next one either.
	if _, ok, err := b.ClaimWait(context.Background(), w, time.Hour); ok || err != nil {
		t.Fatalf("claim after Close: ok=%v err=%v", ok, err)
	}
	check() // the sweeper and the released claim have ended
}

// TestParkKeepsWorkerLive: a worker whose only sign of life is an open
// claim is capacity — the sweep must not prune it, and the job queued
// next goes to it — and leaving the park counts as having been seen.
func TestParkKeepsWorkerLive(t *testing.T) {
	b, clock := testBoard(t, Options{})
	b.liveness = 2 * time.Minute
	w := mustRegister(t, b, "patient")
	ch := park(context.Background(), b, w, time.Hour)
	waitGauge(t, b, "claims_parked", 1)

	b.sweep(clock.Advance(10 * time.Minute)) // far past liveness
	if snap := b.Snapshot(); snap["workers_pruned"].(int64) != 0 || snap["workers_connected"].(int) != 1 {
		t.Fatalf("parked worker read as dead: %v", snap)
	}
	_, done := enqueue(context.Background(), b, &eventLog{})
	c := answer(t, ch)
	if !c.ok {
		t.Fatal("the queued job never woke the parked worker")
	}
	if age := b.Workers()[0].LastSeenMS; age != 0 {
		t.Fatalf("last seen %v ms ago right after leaving the park", age)
	}
	if err := b.Complete(w, c.resp.LeaseID, runner.WireResult{Key: "ok"}, false); err != nil {
		t.Fatal(err)
	}
	if got := <-done; !got.executed {
		t.Fatal("job fell back to local execution with a parked worker attached")
	}
}

// TestParkExactlyOnce is the stress: N parked claimants, M < N jobs.
// Every job must be leased exactly once, the surplus claimants must stay
// parked (not spin, not steal), and a cancel must release them.
func TestParkExactlyOnce(t *testing.T) {
	const claimants, jobs = 8, 5
	b, _ := testBoard(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	answers := make(chan claimed, claimants)
	var wg sync.WaitGroup
	for i := 0; i < claimants; i++ {
		id := mustRegister(t, b, fmt.Sprintf("w%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, ok, err := b.ClaimWait(ctx, id, time.Hour)
			answers <- claimed{resp, ok, err}
		}()
	}
	waitGauge(t, b, "claims_parked", claimants)

	var outcomes []<-chan enqueued
	for i := 0; i < jobs; i++ {
		outcomes = append(outcomes, push(ctx, b, leasable(int64(i)), nil))
	}
	seen := map[string]bool{}
	for i := 0; i < jobs; i++ {
		c := answer(t, answers)
		if !c.ok {
			t.Fatalf("claimant released empty-handed with %d job(s) still to place", jobs-i)
		}
		job := fmt.Sprint("job ", c.resp.Job.Seed)
		if seen[c.resp.LeaseID] || seen[job] {
			t.Fatalf("lease %s / %s handed out twice", c.resp.LeaseID, job)
		}
		seen[c.resp.LeaseID], seen[job] = true, true
	}
	waitGauge(t, b, "claims_parked", claimants-jobs)
	if n := b.Snapshot()["leases_granted"].(int64); n != jobs {
		t.Fatalf("leases_granted = %d, want %d", n, jobs)
	}
	cancel() // releases the surplus claimants and the leased jobs
	wg.Wait()
	for i, ch := range outcomes {
		if got := <-ch; !got.executed {
			t.Errorf("job %d was declined", i)
		}
	}
	for i := jobs; i < claimants; i++ {
		if c := <-answers; c.ok {
			t.Fatalf("surplus claimant got lease %s", c.resp.LeaseID)
		}
	}
}
