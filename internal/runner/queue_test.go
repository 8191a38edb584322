package runner

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// pushN queues n tasks whose run calls fn with the task's index.
func pushN(q *Queue, n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		q.Push(&Task{Job: Job{Seed: int64(i)}, Ctx: context.Background(), Run: func(context.Context) { fn(i) }})
	}
}

// waitFor polls cond for up to five seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("%s never happened", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueRunsEveryTaskOnce: every task runs exactly once across the
// slots, and one slot runs them in push order.
func TestQueueRunsEveryTaskOnce(t *testing.T) {
	var hits [100]atomic.Int32
	q := NewQueue()
	pushN(q, len(hits), func(i int) { hits[i].Add(1) })
	q.Serve(4)
	waitFor(t, "the queue draining", func() bool { return q.Len() == 0 })
	q.Close()
	for i := range hits {
		if n := hits[i].Load(); n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}

	var order []int
	q = NewQueue()
	pushN(q, 10, func(i int) { order = append(order, i) })
	q.Serve(1)
	waitFor(t, "one slot draining the queue", func() bool { return q.Len() == 0 })
	q.Close()
	for i, got := range order {
		if got != i {
			t.Fatalf("one slot ran %v, want push order", order)
		}
	}
}

// TestForEachDefaultWorkers: Serve(0) sizes the slots by the core
// count, and they run every queued task.
func TestForEachDefaultWorkers(t *testing.T) {
	var n atomic.Int32
	q := NewQueue()
	pushN(q, 10, func(int) { n.Add(1) })
	q.Serve(0)
	waitFor(t, "ten runs", func() bool { return n.Load() == 10 })
	q.Close()
}

// TestForEachZeroItems: a served queue with nothing in it runs nothing
// and closes at once.
func TestForEachZeroItems(t *testing.T) {
	q := NewQueue()
	pushN(q, 0, func(int) { t.Error("a task ran with none queued") })
	q.Serve(4)
	q.Close()
	if n := q.Len(); n != 0 {
		t.Fatalf("%d tasks queued after an empty run", n)
	}
}

// TestQueueCloseStopsDispatch: once Close begins no further task is
// claimed (the run already claimed completes), and what was never
// claimed is still queued, so ran + queued accounts for every task.
// Close leaves no slot running.
func TestQueueCloseStopsDispatch(t *testing.T) {
	check := testutil.GoroutineBaseline(t)
	const total = 1000
	q := NewQueue()
	third, release := make(chan struct{}), make(chan struct{})
	var ran atomic.Int32
	pushN(q, total, func(int) {
		if ran.Add(1) == 3 {
			close(third)
			<-release
		}
	})
	q.Serve(1)
	<-third
	closed := make(chan struct{})
	go func() {
		q.Close()
		close(closed)
	}()
	waitFor(t, "Close beginning", func() bool {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.closed
	})
	close(release)
	<-closed
	if n := int(ran.Load()); n != 3 || n+q.Len() != total {
		t.Fatalf("%d ran and %d still queued of %d", n, q.Len(), total)
	}
	pushN(q, 1, func(int) { t.Error("a closed queue ran a task") })
	q.Serve(1)
	q.Close()
	check()
}

// TestRunCancelledMidCampaign: after ctx ends Run dispatches nothing
// more; a job claimed since is reported cancelled without running, and
// Run returns the context's error, leaving no goroutine behind.
func TestRunCancelledMidCampaign(t *testing.T) {
	check := testutil.GoroutineBaseline(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	exec := &countExec{after: 3, cancel: cancel}
	jobs := grid(scaledRegistry()[:1], nil, []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	results, err := Run(ctx, jobs, Options{Workers: 2, Executor: exec})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
	ran := 0
	for _, r := range results {
		if r.Err == nil {
			ran++
		} else if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("unstarted job reports %v", r.Err)
		}
	}
	if n := int(exec.n.Load()); ran != n || n < 3 || n >= len(jobs) {
		t.Fatalf("%d jobs ran, %d executed, of %d", ran, n, len(jobs))
	}
	check()
}

// countExec succeeds every job and cancels the campaign at the after-th.
type countExec struct {
	n      atomic.Int32
	after  int32
	cancel func()
}

func (e *countExec) Execute(_ context.Context, job Job, _ func(Event)) JobResult {
	if e.n.Add(1) == e.after {
		e.cancel()
	}
	return JobResult{Job: job}
}

// TestQueueRemoteFirst: while a remote claimant is live the in-process
// slots leave the queue alone; a remote claim takes the first task,
// and the fleet emptying wakes the slots.
func TestQueueRemoteFirst(t *testing.T) {
	q := NewQueue()
	q.SetRemote(1)
	var local atomic.Int32
	pushN(q, 3, func(int) { local.Add(1) })
	q.Serve(2)
	time.Sleep(20 * time.Millisecond)
	if n := local.Load(); n != 0 || q.Len() != 3 {
		t.Fatalf("slots ran %d tasks with a remote claimant live (%d queued)", n, q.Len())
	}
	task := q.Claim(context.Background(), 0)
	if task == nil || task.Job.Seed != 0 {
		t.Fatalf("remote claim took %+v, want the first task", task)
	}
	<-q.Start(task.Ctx, task)
	q.SetRemote(0)
	waitFor(t, "the slots taking over", func() bool { return local.Load() == 3 })
	q.Close()
}

// TestQueueClaimParks: a remote claim on an empty queue parks, is
// answered by a Push and by a Requeue (which goes to the front, within
// its limit), gives up after its wait, and is released by its context
// and by Close.
func TestQueueClaimParks(t *testing.T) {
	q := NewQueue()
	// take is one remote claim; like dispatch.Board it runs what it got.
	take := func(ctx context.Context, wait time.Duration) *Task {
		task := q.Claim(ctx, wait)
		if task != nil {
			<-q.Start(task.Ctx, task)
		}
		return task
	}
	parked := func(ctx context.Context) <-chan *Task {
		ch := make(chan *Task, 1)
		go func() { ch <- take(ctx, time.Hour) }()
		time.Sleep(5 * time.Millisecond)
		return ch
	}
	ch := parked(context.Background())
	pushN(q, 1, func(int) {})
	first := <-ch
	if first == nil || first.Job.Seed != 0 {
		t.Fatalf("parked claim got %+v, want task 0", first)
	}
	ch = parked(context.Background())
	if !q.Requeue(first, 1) {
		t.Fatal("first requeue refused")
	}
	if again := <-ch; again != first {
		t.Fatalf("requeued task not at the front: got %+v", again)
	}
	if q.Requeue(first, 1) {
		t.Fatal("a limit of one requeue was not enforced")
	}
	t0 := time.Now()
	if got := take(context.Background(), 10*time.Millisecond); got != nil || time.Since(t0) < 10*time.Millisecond {
		t.Fatalf("empty queue: %+v after %v", got, time.Since(t0))
	}

	ctx, cancel := context.WithCancel(context.Background())
	ch = parked(ctx)
	cancel()
	if got := <-ch; got != nil {
		t.Fatal("a cancelled claim took a task")
	}
	pushN(q, 1, func(int) {})
	if got := take(ctx, time.Hour); got != nil {
		t.Fatal("a claim whose context had ended took a queued task")
	}
	take(context.Background(), 0)

	ch = parked(context.Background())
	q.Close()
	if got := <-ch; got != nil {
		t.Fatal("Close handed out a task")
	}
}
