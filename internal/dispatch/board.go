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
	// MaxReassign bounds how often one job is requeued before the board
	// fails it instead of looping forever. Default 3.
	MaxReassign int
	// Liveness is how long a worker may go without any request before
	// it is pruned and stops counting as live. Default 2×LeaseTTL (above
	// both the claim hold and the heartbeat interval).
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

// lease is one grant of one task to one worker; only the expiry moves
// (heartbeats). Whoever takes the lease off the board — a delivery, a
// reclaim, Close — sends its one outcome.
type lease struct {
	id      string
	task    *runner.Task
	worker  *workerRec
	emit    func(runner.Event)
	expires time.Time             // guarded by Board.mu
	outcome chan runner.JobResult // buffered: the result, or runner.ErrRequeued
}

// workerRec is the board's view of one registered worker.
type workerRec struct {
	id, name string
	lastSeen time.Time         // guarded by Board.mu
	active   map[string]*lease // guarded by Board.mu; lease id -> lease
	done     int64             // guarded by Board.mu
	parked   int               // guarded by Board.mu; claims held open now
}

// live: seen within the liveness window, or holding a claim open now.
func (w *workerRec) live(now time.Time, liveness time.Duration) bool {
	return w.parked > 0 || now.Sub(w.lastSeen) <= liveness
}

// WorkerView is the API shape of one worker row in GET /workers.
type WorkerView struct {
	ID         string   `json:"id"`
	Name       string   `json:"name"`
	LastSeenMS float64  `json:"last_seen_ms"`     // since the worker's last request
	Active     []string `json:"active,omitempty"` // the jobs it holds leases on
	Done       int64    `json:"jobs_done"`        // results it delivered and the board accepted
}

// Board is the remote side of the service's one job queue: the worker
// registry, the TTL leases workers' claims take, and a sweeper that
// reclaims whatever stops heartbeating. It keeps the queue's remote
// count at the number of live workers. Safe for concurrent use. Lock
// order: Board.mu, then the queue's (which never calls out held).
type Board struct {
	opt Options
	q   *runner.Queue
	// life ends at Close: it stops the sweeper, releases parked claims
	// and refuses new ones.
	life      context.Context
	end       context.CancelFunc
	sweepDone chan struct{}
	// now is the board's clock (time.Now outside tests), so the lease
	// lifecycle is testable without wall-clock sleeps.
	now func() time.Time

	mu        sync.Mutex
	leases    map[string]*lease     // guarded by mu
	workers   map[string]*workerRec // guarded by mu
	leaseSeq  uint64                // guarded by mu
	workerSeq int                   // guarded by mu

	// Counters (see Snapshot for the /metrics keys).
	cRegistered, cGranted, cExpired, cReclaimed, cExhausted, cDuplicate, cAbandoned atomic.Int64
	cRemoteDone, cRemoteFail, cFallback, cPruned, cMismatch, cEmpty                 atomic.Int64
}

// NewBoard starts a board, its queue and its reclaim sweeper.
func NewBoard(opt Options) *Board {
	b := &Board{
		opt:       opt.withDefaults(),
		q:         runner.NewQueue(),
		sweepDone: make(chan struct{}),
		now:       time.Now,
		leases:    map[string]*lease{},
		workers:   map[string]*workerRec{},
	}
	b.life, b.end = context.WithCancel(context.Background())
	go b.sweeper()
	return b
}

func (b *Board) logf(format string, args ...any) {
	if b.opt.Log != nil {
		b.opt.Log(format, args...)
	}
}

// Queue is the queue the board's workers claim from; a campaign
// scheduler handed the board queues its jobs there.
func (b *Board) Queue() *runner.Queue { return b.q }

// Register adds a worker and returns its assigned id.
func (b *Board) Register(name, module string) (string, error) {
	b.mu.Lock()
	if b.life.Err() != nil {
		b.mu.Unlock()
		return "", ErrClosed
	}
	id := fmt.Sprintf("w%04d", b.workerSeq)
	b.workerSeq++
	if name == "" {
		name = id
	}
	b.workers[id] = &workerRec{id: id, name: name, lastSeen: b.now(), active: map[string]*lease{}}
	b.q.SetRemote(b.liveWorkersLocked(b.now()))
	b.mu.Unlock()
	b.cRegistered.Add(1)
	b.logf("dispatch: worker %s (%s, build %s) registered", name, id, module)
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

// dropLeaseLocked takes a lease off the board. Callers hold b.mu.
func (b *Board) dropLeaseLocked(l *lease) {
	delete(b.leases, l.id)
	delete(l.worker.active, l.id)
}

// maxClaimHold caps how long one claim parks: safely under the worker
// client's 30 s HTTP timeout, whatever the lease TTL.
const maxClaimHold = 20 * time.Second

// claimKey keys the claimant in the context a claimed task runs under.
type claimKey struct{}

// claimant is a worker's claim holding a task; the task's envelope
// answers it through grant when it offers the job to the fleet.
type claimant struct {
	task   *runner.Task
	worker *workerRec
	grant  chan ClaimResponse // buffered: the claim's one answer
}

// ClaimWait takes the first queued job for a worker. The claim runs the
// task's envelope on the service, and answers with a fresh lease when
// the envelope offers the job to the fleet; a task the service settles
// itself (a cache hit) sends the claim on to the next. On an empty
// queue the claim parks for up to min(wait, LeaseTTL/3, maxClaimHold);
// ctx ending (client gone) or Close releases it. ok=false, nil error:
// no work.
func (b *Board) ClaimWait(ctx context.Context, workerID string, wait time.Duration) (ClaimResponse, bool, error) {
	wait = min(wait, b.opt.LeaseTTL/3, maxClaimHold)
	b.mu.Lock()
	w := b.workers[workerID]
	if w == nil {
		b.mu.Unlock()
		return ClaimResponse{}, false, ErrUnknownWorker
	}
	w.lastSeen = b.now()
	if wait > 0 {
		w.parked++
	}
	b.mu.Unlock()
	defer func() {
		b.mu.Lock()
		if wait > 0 {
			w.parked--
		}
		w.lastSeen = b.now()
		b.mu.Unlock()
	}()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(b.life, cancel)()
	for b.life.Err() == nil {
		t := b.q.Claim(ctx, wait)
		if t == nil {
			break
		}
		c := &claimant{task: t, worker: w, grant: make(chan ClaimResponse, 1)}
		done := b.q.Start(context.WithValue(t.Ctx, claimKey{}, c), t)
		select {
		case resp := <-c.grant:
			return resp, true, nil
		case <-done: // settled on the service: take the next one
		}
	}
	b.cEmpty.Add(1)
	return ClaimResponse{}, false, nil
}

// offer leases job to the worker whose claim its task runs under and
// waits for the outcome: the worker's result, a failure once the job's
// leases ran out, runner.ErrRequeued when the lease was lost and the
// task queued again, or ctx's error. executed=false: ctx carries no
// claim (an in-process slot runs the task); the caller runs the job.
func (b *Board) offer(ctx context.Context, job runner.Job, wire runner.WireJob, emit func(runner.Event)) (runner.JobResult, bool) {
	c, _ := ctx.Value(claimKey{}).(*claimant)
	if c == nil {
		return runner.JobResult{}, false
	}
	if emit == nil {
		emit = func(runner.Event) {}
	}
	b.mu.Lock()
	b.leaseSeq++
	l := &lease{
		id: fmt.Sprintf("l%08d", b.leaseSeq), task: c.task, worker: c.worker, emit: emit,
		expires: b.now().Add(b.opt.LeaseTTL), outcome: make(chan runner.JobResult, 1),
	}
	b.leases[l.id] = l
	c.worker.active[l.id] = l
	b.mu.Unlock()
	b.cGranted.Add(1)
	emit(runner.Event{Type: runner.JobLeased, Job: job, Worker: c.worker.name})
	c.grant <- ClaimResponse{LeaseID: l.id, TTLMS: b.opt.LeaseTTL.Milliseconds(), Job: wire}
	select {
	case jr := <-l.outcome:
		return jr, true
	case <-ctx.Done():
	}
	b.mu.Lock()
	_, held := b.leases[l.id]
	b.dropLeaseLocked(l) // a later delivery lands on a spent lease: a duplicate
	b.mu.Unlock()
	if !held {
		return <-l.outcome, true // taken off the board as ctx ended: keep what it sent
	}
	return runner.JobResult{Job: job, Err: ctx.Err()}, true
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
// a reclaimed lease is counted and dropped: the job ran elsewhere or is
// queued to, and a second result would double-count it.
func (b *Board) Complete(workerID, leaseID string, wres runner.WireResult, abandon bool) error {
	b.mu.Lock()
	w, l := b.workers[workerID], b.leases[leaseID]
	if w != nil {
		w.lastSeen = b.now()
	}
	if w == nil || l == nil || l.worker != w {
		b.mu.Unlock()
		b.cDuplicate.Add(1)
		if w == nil {
			return ErrUnknownWorker
		}
		return ErrLeaseGone
	}
	b.dropLeaseLocked(l)
	if !abandon {
		w.done++
	}
	b.mu.Unlock()
	if abandon {
		b.cAbandoned.Add(1)
		b.logf("dispatch: worker %s abandoned %s (draining); requeued", w.name, l.task.Job)
		b.reclaim(l)
		return nil
	}
	jr := wres.JobResult(l.task.Job)
	if jr.Err != nil {
		b.cRemoteFail.Add(1)
	} else {
		b.cRemoteDone.Add(1)
	}
	l.outcome <- jr
	return nil
}

// reclaim returns a lost lease's task (already off the board) to the
// front of the queue, or fails the job once MaxReassign are spent.
func (b *Board) reclaim(l *lease) {
	job := l.task.Job
	if b.q.Requeue(l.task, b.opt.MaxReassign) {
		b.cReclaimed.Add(1)
		l.emit(runner.Event{Type: runner.JobReassigned, Job: job, Worker: l.worker.name})
		l.outcome <- runner.JobResult{Job: job, Err: runner.ErrRequeued}
		return
	}
	b.cExhausted.Add(1)
	l.outcome <- runner.JobResult{Job: job, Err: fmt.Errorf(
		"dispatch: %s: lease lost %d times (worker crashes, stalls or partitions); giving up", job, b.opt.MaxReassign+1)}
}

// sweeper reclaims expired leases and prunes dead workers every TTL/4.
func (b *Board) sweeper() {
	defer close(b.sweepDone)
	tick := time.NewTicker(b.opt.LeaseTTL / 4)
	defer tick.Stop()
	for {
		select {
		case <-b.life.Done():
			return
		case <-tick.C:
			b.sweep(b.now())
		}
	}
}

// sweep runs one reclaim pass (time-parameterized for tests).
func (b *Board) sweep(now time.Time) {
	var lost []*lease
	b.mu.Lock()
	for id, l := range b.leases {
		if now.After(l.expires) {
			b.dropLeaseLocked(l)
			lost = append(lost, l)
			b.logf("dispatch: lease %s on %s expired (worker %s stopped heartbeating); reclaiming", id, l.task.Job, l.worker.name)
		}
	}
	for id, w := range b.workers {
		if !w.live(now, b.opt.Liveness) {
			delete(b.workers, id)
			b.cPruned.Add(1)
			b.logf("dispatch: worker %s (%s) not seen for %v; pruned", w.name, id, now.Sub(w.lastSeen).Round(time.Millisecond))
		}
	}
	b.q.SetRemote(b.liveWorkersLocked(now))
	b.mu.Unlock()

	for _, l := range lost {
		b.cExpired.Add(1)
		l.emit(runner.Event{Type: runner.JobLeaseExpired, Job: l.task.Job, Worker: l.worker.name})
		b.reclaim(l)
	}
}

// Workers returns the current fleet view in registration order.
func (b *Board) Workers() []WorkerView {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	out := make([]WorkerView, 0, len(b.workers))
	for i := 0; i < b.workerSeq; i++ {
		if w := b.workers[fmt.Sprintf("w%04d", i)]; w != nil {
			v := WorkerView{ID: w.id, Name: w.name, LastSeenMS: float64(now.Sub(w.lastSeen)) / float64(time.Millisecond), Done: w.done}
			for _, l := range w.active {
				v.Active = append(v.Active, l.task.Job.String())
			}
			out = append(out, v)
		}
	}
	return out
}

// Snapshot renders the board's counters for the /metrics surface.
func (b *Board) Snapshot() map[string]any {
	queued := b.q.Len()
	b.mu.Lock()
	live, leased, parked := b.liveWorkersLocked(b.now()), len(b.leases), 0
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
		"local_fallbacks":         b.cFallback.Load(),
		"result_key_mismatches":   b.cMismatch.Load(),
	}
}

// Close releases parked claims, refuses further registrations and
// claims, and stops the sweeper. Leases still out go back to the front
// of the queue: a serving process runs them in its own slots, a
// draining one (queue closed) leaves them for the next.
func (b *Board) Close() {
	b.mu.Lock()
	b.end()
	b.q.SetRemote(0)
	var held []*lease
	for _, l := range b.leases {
		b.dropLeaseLocked(l)
		held = append(held, l)
	}
	b.mu.Unlock()
	<-b.sweepDone
	for _, l := range held {
		b.q.Requeue(l.task, 0)
		l.outcome <- runner.JobResult{Job: l.task.Job, Err: runner.ErrRequeued}
	}
}
