package dispatch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/runner"
)

// Options configure a Board.
type Options struct {
	// LeaseTTL is how long a claimed job may go without a heartbeat
	// before it is reclaimed. Default 15s.
	LeaseTTL time.Duration
	// MaxReassign bounds how many times one job is reclaimed and
	// requeued before the board fails it instead of looping forever.
	// Default 3.
	MaxReassign int
	// Liveness is how long a worker may go without any request before
	// it is pruned and stops counting as available capacity. Default
	// 2×LeaseTTL (comfortably above both the claim hold and the
	// heartbeat interval).
	Liveness time.Duration
	// Log, when non-nil, receives operational notices.
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 15 * time.Second
	}
	if o.MaxReassign <= 0 {
		o.MaxReassign = 3
	}
	if o.Liveness <= 0 {
		o.Liveness = 2 * o.LeaseTTL
	}
	return o
}

// taskState is one dispatched job's lifecycle on the board.
type taskState uint8

const (
	taskQueued taskState = iota
	taskLeased
	taskDone      // terminal: result (success or failure) is set
	taskWithdrawn // terminal: no live workers; caller runs it locally
	taskCancelled // terminal: the enqueueing context was cancelled
)

// task is one job waiting on, or moving through, the worker fleet.
// Identity fields (id, job, wire, emit, done) are immutable after
// Enqueue; the lifecycle fields are guarded by the owning board's
// mutex.
type task struct {
	id        uint64
	job       runner.Job
	wire      runner.WireJob
	emit      func(runner.Event)
	state     taskState        // guarded by Board.mu
	lease     *lease           // guarded by Board.mu
	reassigns int              // guarded by Board.mu
	result    runner.JobResult // guarded by Board.mu
	done      chan struct{}    // closed on taskDone and taskWithdrawn
}

// lease is one grant of one task to one worker. id/task/worker are
// fixed at grant time; only the expiry moves (heartbeat extensions),
// under the board's mutex.
type lease struct {
	id      string
	task    *task
	worker  *workerRec
	expires time.Time // guarded by Board.mu
}

// workerRec is the board's view of one registered worker.
type workerRec struct {
	id       string
	name     string
	module   string
	lastSeen time.Time         // guarded by Board.mu
	active   map[string]*lease // guarded by Board.mu; lease id -> lease
	done     int64             // guarded by Board.mu
	parked   int               // guarded by Board.mu; claims held open on an empty board
}

// live: seen within the liveness window, or holding a claim open now.
func (w *workerRec) live(now time.Time, liveness time.Duration) bool {
	return w.parked > 0 || now.Sub(w.lastSeen) <= liveness
}

// WorkerView is the API shape of one worker row in GET /workers.
type WorkerView struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// LastSeenMS is how long ago the worker last made any request.
	LastSeenMS float64 `json:"last_seen_ms"`
	// Active lists the jobs the worker currently holds leases on.
	Active []string `json:"active,omitempty"`
	// Done counts results this worker delivered and the board accepted.
	Done int64 `json:"jobs_done"`
}

// Board is the service-side lease table: jobs enqueued by the
// RemoteExecutor, workers pulling them under TTL leases, and a sweeper
// that reclaims whatever stops heartbeating. All exported methods are
// safe for concurrent use.
type Board struct {
	opt Options

	mu        sync.Mutex
	queue     []*task               // guarded by mu
	leases    map[string]*lease     // guarded by mu
	workers   map[string]*workerRec // guarded by mu
	taskSeq   uint64                // guarded by mu
	leaseSeq  uint64                // guarded by mu
	workerSeq int                   // guarded by mu
	closed    bool                  // guarded by mu
	// wake is closed and replaced whenever work is queued or the board
	// closes; a parked claim waits on the channel it read under mu.
	wake chan struct{} // guarded by mu

	sweepStop chan struct{}
	sweepDone chan struct{}

	// now is the board's clock, time.Now outside tests. Expiry and
	// liveness decisions all flow through it so the lease lifecycle is
	// testable without wall-clock sleeps.
	now func() time.Time

	// Counters (see Snapshot for the /metrics keys).
	cRegistered atomic.Int64
	cGranted    atomic.Int64
	cExpired    atomic.Int64
	cReclaimed  atomic.Int64
	cExhausted  atomic.Int64
	cDuplicate  atomic.Int64
	cAbandoned  atomic.Int64
	cRemoteDone atomic.Int64
	cRemoteFail atomic.Int64
	cWithdrawn  atomic.Int64
	cFallback   atomic.Int64
	cPruned     atomic.Int64
	cMismatch   atomic.Int64
	cEmpty      atomic.Int64
}

// NewBoard starts a board and its reclaim sweeper.
func NewBoard(opt Options) *Board {
	b := &Board{
		opt:       opt.withDefaults(),
		leases:    map[string]*lease{},
		workers:   map[string]*workerRec{},
		wake:      make(chan struct{}),
		sweepStop: make(chan struct{}),
		sweepDone: make(chan struct{}),
		now:       time.Now,
	}
	go b.sweeper()
	return b
}

func (b *Board) logf(format string, args ...any) {
	if b.opt.Log != nil {
		b.opt.Log(format, args...)
	}
}

// LeaseTTL returns the configured lease TTL.
func (b *Board) LeaseTTL() time.Duration { return b.opt.LeaseTTL }

// Register adds a worker and returns its assigned id.
func (b *Board) Register(name, module string) (string, error) {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return "", ErrClosed
	}
	id := fmt.Sprintf("w%04d", b.workerSeq)
	b.workerSeq++
	if name == "" {
		name = id
	}
	b.workers[id] = &workerRec{
		id: id, name: name, module: module,
		lastSeen: b.now(), active: map[string]*lease{},
	}
	b.mu.Unlock()
	b.cRegistered.Add(1)
	b.logf("dispatch: worker %s (%s) registered", name, id)
	return id, nil
}

func (b *Board) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range b.workers {
		if w.live(now, b.opt.Liveness) {
			n++
		}
	}
	return n
}

// wakeLocked sends every parked claim back to the queue. Callers hold b.mu.
func (b *Board) wakeLocked() {
	close(b.wake)
	b.wake = make(chan struct{})
}

// Enqueue offers one job to the fleet and blocks until it completes,
// the context is cancelled, or the board withdraws it because no live
// workers remain. executed=false means the job never ran remotely and
// the caller should execute it locally.
func (b *Board) Enqueue(ctx context.Context, job runner.Job, wire runner.WireJob, emit func(runner.Event)) (runner.JobResult, bool) {
	if emit == nil {
		emit = func(runner.Event) {}
	}
	b.mu.Lock()
	now := b.now()
	if b.closed || b.liveWorkersLocked(now) == 0 {
		b.mu.Unlock()
		return runner.JobResult{}, false
	}
	b.taskSeq++
	t := &task{id: b.taskSeq, job: job, wire: wire, emit: emit, done: make(chan struct{})}
	b.queue = append(b.queue, t)
	b.wakeLocked()
	b.mu.Unlock()

	select {
	case <-t.done:
		b.mu.Lock()
		defer b.mu.Unlock()
		if t.state == taskWithdrawn {
			return runner.JobResult{}, false
		}
		return t.result, true
	case <-ctx.Done():
		b.mu.Lock()
		defer b.mu.Unlock()
		switch t.state {
		case taskDone:
			return t.result, true // finished concurrently: keep the real result
		case taskWithdrawn:
			return runner.JobResult{}, false
		case taskQueued:
			b.removeQueuedLocked(t)
		case taskLeased:
			// Drop the lease: the worker's eventual delivery lands on a
			// spent lease and is dropped as a duplicate.
			b.dropLeaseLocked(t.lease)
		}
		t.state = taskCancelled
		return runner.JobResult{Job: job, Err: ctx.Err()}, true
	}
}

// removeQueuedLocked deletes a task from the FIFO. Callers hold b.mu.
func (b *Board) removeQueuedLocked(t *task) {
	for i, q := range b.queue {
		if q == t {
			b.queue = append(b.queue[:i], b.queue[i+1:]...)
			return
		}
	}
}

// dropLeaseLocked forgets a lease without touching its task. Callers
// hold b.mu.
func (b *Board) dropLeaseLocked(l *lease) {
	if l == nil {
		return
	}
	delete(b.leases, l.id)
	delete(l.worker.active, l.id)
	if l.task.lease == l {
		l.task.lease = nil
	}
}

// maxClaimHold caps how long one claim parks: safely under the worker
// client's 30 s HTTP timeout, whatever the lease TTL.
const maxClaimHold = 20 * time.Second

// Claim is ClaimWait with no hold: an empty board answers at once.
func (b *Board) Claim(workerID string) (ClaimResponse, bool, error) {
	return b.ClaimWait(context.Background(), workerID, 0)
}

// ClaimWait hands the first queued job to a worker under a fresh lease.
// On an empty board the claim parks for up to min(wait, LeaseTTL/3,
// maxClaimHold) and is answered the moment work is queued; ctx ending
// (client gone) or Close releases it. ok=false, nil error: no work.
func (b *Board) ClaimWait(ctx context.Context, workerID string, wait time.Duration) (ClaimResponse, bool, error) {
	b.mu.Lock()
	w := b.workers[workerID]
	if w == nil {
		b.mu.Unlock()
		return ClaimResponse{}, false, ErrUnknownWorker
	}
	now := b.now()
	w.lastSeen = now
	if wait = min(wait, b.opt.LeaseTTL/3, maxClaimHold); wait > 0 && len(b.queue) == 0 {
		hold, cancel := context.WithTimeout(ctx, wait)
		defer cancel()
		w.parked++
		for len(b.queue) == 0 && !b.closed && hold.Err() == nil {
			wake := b.wake
			b.mu.Unlock()
			select {
			case <-wake:
			case <-hold.Done():
			}
			b.mu.Lock()
		}
		w.parked--
		now = b.now()
		w.lastSeen = now
	}
	if len(b.queue) == 0 || ctx.Err() != nil { // a vanished client gets no lease
		b.mu.Unlock()
		b.cEmpty.Add(1)
		return ClaimResponse{}, false, nil
	}
	t := b.queue[0]
	b.queue = b.queue[1:]
	b.leaseSeq++
	l := &lease{
		id:      fmt.Sprintf("l%08d", b.leaseSeq),
		task:    t,
		worker:  w,
		expires: now.Add(b.opt.LeaseTTL),
	}
	t.state = taskLeased
	t.lease = l
	b.leases[l.id] = l
	w.active[l.id] = l
	resp := ClaimResponse{LeaseID: l.id, TTLMS: b.opt.LeaseTTL.Milliseconds(), Job: t.wire}
	emit := t.emit
	worker := w.name
	b.mu.Unlock()

	b.cGranted.Add(1)
	emit(runner.Event{Type: runner.JobLeased, Job: t.job, Worker: worker})
	return resp, true, nil
}

// Heartbeat renews a lease. ErrLeaseGone tells the worker its job was
// reclaimed — it should stop burning cycles on it.
func (b *Board) Heartbeat(workerID, leaseID string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	w := b.workers[workerID]
	if w == nil {
		return ErrUnknownWorker
	}
	w.lastSeen = now
	l := b.leases[leaseID]
	if l == nil || l.worker != w {
		return ErrLeaseGone
	}
	l.expires = now.Add(b.opt.LeaseTTL)
	return nil
}

// Complete delivers a job's result (or abandons it). A delivery under
// a reclaimed lease is counted and dropped — the job either already
// ran elsewhere or is queued to; accepting a second result would
// double-count it.
func (b *Board) Complete(workerID, leaseID string, wres runner.WireResult, abandon bool) error {
	b.mu.Lock()
	now := b.now()
	w := b.workers[workerID]
	if w == nil {
		b.mu.Unlock()
		b.cDuplicate.Add(1)
		return ErrUnknownWorker
	}
	w.lastSeen = now
	l := b.leases[leaseID]
	if l == nil || l.worker != w {
		b.mu.Unlock()
		b.cDuplicate.Add(1)
		return ErrLeaseGone
	}
	t := l.task
	b.dropLeaseLocked(l)
	if abandon {
		b.cAbandoned.Add(1)
		emits := b.requeueLocked(t, now)
		b.mu.Unlock()
		b.logf("dispatch: worker %s abandoned %s (draining); requeued", w.name, t.job)
		for _, e := range emits {
			t.emit(e)
		}
		return nil
	}
	t.state = taskDone
	t.result = wres.JobResult(t.job)
	w.done++
	if t.result.Err != nil {
		b.cRemoteFail.Add(1)
	} else {
		b.cRemoteDone.Add(1)
	}
	close(t.done)
	b.mu.Unlock()
	return nil
}

// requeueLocked returns a reclaimed task to the front of the queue (or
// fails it once the reassignment budget is spent), returning the
// events to emit after b.mu is released. Callers hold b.mu.
func (b *Board) requeueLocked(t *task, now time.Time) []runner.Event {
	t.reassigns++
	if t.reassigns > b.opt.MaxReassign {
		t.state = taskDone
		t.result = runner.JobResult{Job: t.job, Err: fmt.Errorf(
			"dispatch: %s: lease lost %d times (worker crashes, stalls or partitions); giving up", t.job, t.reassigns)}
		b.cExhausted.Add(1)
		close(t.done)
		return []runner.Event{{Type: runner.JobFailed, Job: t.job, Err: t.result.Err}}
	}
	t.state = taskQueued
	t.lease = nil
	// Front of the queue: a reclaimed job has already waited its turn.
	b.queue = append([]*task{t}, b.queue...)
	b.wakeLocked()
	b.cReclaimed.Add(1)
	return []runner.Event{{Type: runner.JobReassigned, Job: t.job}}
}

// sweeper periodically reclaims expired leases, prunes dead workers
// and withdraws queued work when the fleet is gone.
func (b *Board) sweeper() {
	defer close(b.sweepDone)
	tick := time.NewTicker(b.opt.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-b.sweepStop:
			return
		case <-tick.C:
			b.sweep(b.now())
		}
	}
}

// sweep runs one reclaim pass. Split out (and time-parameterized) for
// tests.
func (b *Board) sweep(now time.Time) {
	type emission struct {
		emit func(runner.Event)
		ev   runner.Event
	}
	var emits []emission

	b.mu.Lock()
	for id, l := range b.leases {
		if !now.After(l.expires) {
			continue
		}
		t := l.task
		worker := l.worker.name
		delete(b.leases, id)
		delete(l.worker.active, id)
		t.lease = nil
		b.cExpired.Add(1)
		b.logf("dispatch: lease %s on %s expired (worker %s stopped heartbeating); reclaiming", id, t.job, worker)
		emits = append(emits, emission{t.emit, runner.Event{Type: runner.JobLeaseExpired, Job: t.job, Worker: worker}})
		for _, ev := range b.requeueLocked(t, now) {
			ev.Worker = worker
			emits = append(emits, emission{t.emit, ev})
		}
	}
	for id, w := range b.workers {
		if !w.live(now, b.opt.Liveness) {
			delete(b.workers, id)
			b.cPruned.Add(1)
			b.logf("dispatch: worker %s (%s) not seen for %v; pruned", w.name, id, now.Sub(w.lastSeen).Round(time.Millisecond))
		}
	}
	if b.liveWorkersLocked(now) == 0 && len(b.queue) > 0 {
		n := len(b.queue)
		for _, t := range b.queue {
			t.state = taskWithdrawn
			b.cWithdrawn.Add(1)
			close(t.done)
		}
		b.queue = b.queue[:0]
		b.logf("dispatch: no live workers; withdrew %d queued job(s) for local execution", n)
	}
	b.mu.Unlock()

	for _, e := range emits {
		e.emit(e.ev)
	}
}

// Workers returns the current fleet view in registration order.
func (b *Board) Workers() []WorkerView {
	b.mu.Lock()
	now := b.now()
	defer b.mu.Unlock()
	out := make([]WorkerView, 0, len(b.workers))
	for i := 0; i < b.workerSeq; i++ {
		w := b.workers[fmt.Sprintf("w%04d", i)]
		if w == nil {
			continue
		}
		v := WorkerView{
			ID: w.id, Name: w.name,
			LastSeenMS: float64(now.Sub(w.lastSeen)) / float64(time.Millisecond),
			Done:       w.done,
		}
		for _, l := range w.active {
			v.Active = append(v.Active, l.task.job.String())
		}
		out = append(out, v)
	}
	return out
}

// Snapshot renders the board's counters for the /metrics surface.
func (b *Board) Snapshot() map[string]any {
	b.mu.Lock()
	live := b.liveWorkersLocked(b.now())
	queued := len(b.queue)
	leased := len(b.leases)
	parked := 0
	for _, w := range b.workers {
		parked += w.parked
	}
	b.mu.Unlock()
	return map[string]any{
		"workers_connected":       live,
		"workers_registered":      b.cRegistered.Load(),
		"workers_pruned":          b.cPruned.Load(),
		"dispatch_queued":         queued,
		"dispatch_leased":         leased,
		"leases_granted":          b.cGranted.Load(),
		"leases_expired":          b.cExpired.Load(),
		"claims_parked":           parked,
		"claims_empty":            b.cEmpty.Load(),
		"jobs_reclaimed":          b.cReclaimed.Load(),
		"jobs_abandoned":          b.cAbandoned.Load(),
		"jobs_reassign_exhausted": b.cExhausted.Load(),
		"results_duplicate":       b.cDuplicate.Load(),
		"remote_jobs_done":        b.cRemoteDone.Load(),
		"remote_jobs_failed":      b.cRemoteFail.Load(),
		"jobs_withdrawn":          b.cWithdrawn.Load(),
		"local_fallbacks":         b.cFallback.Load(),
		"result_key_mismatches":   b.cMismatch.Load(),
	}
}

// Close stops the sweeper and rejects further registrations and
// enqueues. Call it after the campaign scheduler has drained: leases
// already granted can still complete, but nothing reclaims them once
// the sweeper stops.
func (b *Board) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.sweepDone
		return
	}
	b.closed = true
	b.wakeLocked()
	b.mu.Unlock()
	close(b.sweepStop)
	<-b.sweepDone
	// One final pass so queued tasks are not stranded: with the board
	// closed no claim will ever come, so hand everything back to the
	// local path regardless of fleet liveness.
	b.mu.Lock()
	for _, t := range b.queue {
		t.state = taskWithdrawn
		b.cWithdrawn.Add(1)
		close(t.done)
	}
	b.queue = nil
	b.mu.Unlock()
}
