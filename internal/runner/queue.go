package runner

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// ErrRequeued is an Executor's answer for a job whose remote lease was
// lost and which waits at the front of the queue again: no terminal
// event, and its next claim runs it afresh.
var ErrRequeued = errors.New("runner: job requeued")

// Task is one queued job and what running it does. Run gets Ctx, the
// job's cancellation scope, or a context a remote claim derived from it
// to carry its lease.
type Task struct {
	Job       Job
	Ctx       context.Context
	Run       func(ctx context.Context)
	reassigns int // guarded by Queue.mu
}

// Queue is the one FIFO a process's jobs wait in: tasks start in push
// order, a requeued one goes to the front, and every claimant — an
// in-process slot or a remote worker's claim — takes the first. A
// claim is a lease: a slot's lasts until its run returns, a remote
// one's can be lost (dispatch.Board expires it) and the task requeued.
// Slots take work only while no remote claimant is live (SetRemote):
// a fleet gets every job it can take however few slots there are.
// Parked claimants wake when work is queued, the fleet empties or the
// queue closes.
type Queue struct {
	mu     sync.Mutex
	tasks  []*Task        // guarded by mu
	wake   chan struct{}  // guarded by mu; closed and replaced on every wake-up
	remote int            // guarded by mu; live remote claimants
	closed bool           // guarded by mu
	runs   sync.WaitGroup // slots and claimed tasks still running
}

// NewQueue returns an empty queue with no slots.
func NewQueue() *Queue { return &Queue{wake: make(chan struct{})} }

// wakeLocked releases every parked claimant. Callers hold q.mu.
func (q *Queue) wakeLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
}

// Push appends tasks in order.
func (q *Queue) Push(tasks ...*Task) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.tasks = append(q.tasks, tasks...)
	q.wakeLocked()
}

// Requeue puts a task whose lease was lost back at the front: it has
// waited its turn. Every requeue counts against the task's budget; with
// limit > 0 one is refused (false) once limit are spent.
func (q *Queue) Requeue(t *Task, limit int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if limit > 0 && t.reassigns >= limit {
		return false
	}
	t.reassigns++
	q.tasks = append([]*Task{t}, q.tasks...)
	q.wakeLocked()
	return true
}

// Len is the number of queued tasks.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.tasks)
}

// SetRemote records how many remote claimants are live.
func (q *Queue) SetRemote(n int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.remote > 0 && n == 0 {
		q.wakeLocked()
	}
	q.remote = n
}

// claim takes the first task, parking until there is one or hold fires
// (a nil hold does not park); nil once ctx ends (checked at every
// wake-up) or the queue closes. The task runs until its Run returns.
func (q *Queue) claim(ctx context.Context, hold <-chan time.Time, remote bool) *Task {
	q.mu.Lock()
	defer q.mu.Unlock()
	for !q.closed && ctx.Err() == nil {
		if len(q.tasks) > 0 && (remote || q.remote == 0) {
			t := q.tasks[0]
			q.tasks[0] = nil
			q.tasks = q.tasks[1:]
			q.runs.Add(1)
			return t
		}
		if hold == nil {
			return nil
		}
		wake := q.wake
		q.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
		case <-hold:
			hold = nil // one last look
		}
		q.mu.Lock()
	}
	return nil
}

// Claim is a remote claimant's: the first task, waiting up to wait for
// one, or nil. The caller runs it with Start.
func (q *Queue) Claim(ctx context.Context, wait time.Duration) *Task {
	var hold <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		hold = t.C
	}
	return q.claim(ctx, hold, true)
}

// Start runs a claimed task on a goroutine of its own under ctx, which
// derives from t.Ctx; the channel closes when Run returns.
func (q *Queue) Start(ctx context.Context, t *Task) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer q.runs.Done()
		defer close(done)
		t.Run(ctx)
	}()
	return done
}

// Serve starts n in-process slots (n <= 0: one per core), each claiming
// and running one task at a time until Close.
func (q *Queue) Serve(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	forever := make(chan time.Time)
	for range n {
		q.runs.Add(1)
		go func() {
			defer q.runs.Done()
			for {
				t := q.claim(context.Background(), forever, false)
				if t == nil {
					return
				}
				t.Run(t.Ctx)
				q.runs.Done()
			}
		}()
	}
}

// Close stops every claim (queued tasks stay queued) and waits for the
// slots and the runs already claimed. Safe to call more than once.
func (q *Queue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.wakeLocked()
	}
	q.mu.Unlock()
	q.runs.Wait()
}
