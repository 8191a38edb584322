package campaign

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/runner"
)

// Options configure a Scheduler.
type Options struct {
	// Dir is the journal directory (created if needed). Required.
	Dir string
	// Cache is the shared content-addressed result cache. Required:
	// it is both the dedup layer and the durable result store the
	// journal points into.
	Cache *runner.Cache
	// Workers is the executor pool size; <= 0 means 1.
	Workers int
	// Timeout, Retries, RetryBackoff configure the default local
	// executor (ignored when Executor is set).
	Timeout      time.Duration
	Retries      int
	RetryBackoff time.Duration
	// Executor overrides job execution (tests, remote backends).
	Executor runner.Executor
	// Dispatch, when non-nil, is the remote worker fleet's lease board:
	// jobs are offered to connected ccfit-worker processes and fall
	// back to local execution when none are live. Ignored when Executor
	// is set (an explicit executor owns the whole policy).
	Dispatch *dispatch.Board
	// Log, when non-nil, receives operational notices (e.g. a remote
	// job falling back to local execution).
	Log func(format string, args ...any)
}

// item is one queued unit: a job index inside a campaign.
type item struct {
	id    string
	index int
}

// campaign is the scheduler's in-memory record of one campaign. The
// identity fields (id, sub, submitted) are immutable after
// construction; every mutable field is guarded by the owning
// scheduler's mutex — the nested-ownership design the guarded-field
// rule's Type.mu annotation form exists for.
type campaign struct {
	id        string
	sub       Submission
	submitted time.Time
	jobs      []runner.Job            // guarded by Scheduler.mu
	status    Status                  // guarded by Scheduler.mu
	cancelled bool                    // guarded by Scheduler.mu; cancel requested (status flips when drained)
	states    []jobState              // guarded by Scheduler.mu
	finished  []*runner.JobResult     // guarded by Scheduler.mu; jobs finished in this process
	pending   int                     // guarded by Scheduler.mu; jobs not yet terminal
	ctx       context.Context         // guarded by Scheduler.mu
	cancel    context.CancelFunc      // guarded by Scheduler.mu
	jl        *journal                // guarded by Scheduler.mu
	subs      map[chan Event]struct{} // guarded by Scheduler.mu
}

// Scheduler owns the durable queue: campaigns expand into jobs,
// workers drain the FIFO queue through a runner.Executor, terminal
// transitions are journaled, and subscribers stream progress events.
type Scheduler struct {
	opt     Options
	exec    runner.Executor
	metrics *Metrics

	ctx    context.Context // hard-stop scope for every job
	cancel context.CancelFunc

	mu        sync.Mutex
	cond      *sync.Cond
	campaigns map[string]*campaign // guarded by mu
	order     []string             // guarded by mu
	queue     []item               // guarded by mu
	seq       int                  // guarded by mu
	closed    bool                 // guarded by mu
	wg        sync.WaitGroup
}

// Open starts a scheduler over dir, replaying any journals found
// there: campaigns with unfinished jobs are re-expanded from their
// specs and requeued (finished cells come back from the cache, so a
// resume only recomputes what is actually missing).
func Open(opt Options) (*Scheduler, error) {
	if opt.Dir == "" {
		return nil, errors.New("campaign: Options.Dir is required")
	}
	if opt.Cache == nil {
		return nil, errors.New("campaign: Options.Cache is required (shared dedup layer)")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: journal dir: %w", err)
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	exec := opt.Executor
	if exec == nil {
		local := &runner.LocalExecutor{
			Cache:        opt.Cache,
			Timeout:      opt.Timeout,
			Retries:      opt.Retries,
			RetryBackoff: opt.RetryBackoff,
		}
		if opt.Dispatch != nil {
			exec = &dispatch.RemoteExecutor{Board: opt.Dispatch, Local: local, Log: opt.Log}
		} else {
			exec = local
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		opt:       opt,
		exec:      exec,
		metrics:   NewMetrics(opt.Workers),
		ctx:       ctx,
		cancel:    cancel,
		campaigns: map[string]*campaign{},
	}
	s.cond = sync.NewCond(&s.mu)
	if err := s.resume(); err != nil {
		cancel()
		return nil, err
	}
	for w := 0; w < opt.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Metrics returns the scheduler's counters.
func (s *Scheduler) Metrics() *Metrics { return s.metrics }

// Board returns the remote dispatch board, nil when the scheduler runs
// purely locally.
func (s *Scheduler) Board() *dispatch.Board { return s.opt.Dispatch }

// QueueDepth returns the number of queued (not yet running) jobs.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Draining reports whether Close has begun: no new campaigns are
// accepted and each worker exits once its in-flight job completes.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// resume replays every journal in the data directory.
//
// It runs from Open before any worker goroutine exists, so it could
// not race today — but it mutates the same queue/campaign state every
// other writer touches under s.mu, and "safe because of who calls me"
// is exactly the invariant a later refactor (background re-scan, hot
// reload) breaks without noticing. Holding the lock costs nothing here
// and lets the guarded-field rule prove the discipline instead of
// trusting the call graph's history.
func (s *Scheduler) resume() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	paths, err := listJournals(s.opt.Dir)
	if err != nil {
		return err
	}
	for _, path := range paths {
		rep, err := replayJournal(path)
		if err != nil {
			return fmt.Errorf("campaign: replaying %s: %w", path, err)
		}
		if n, ok := parseID(rep.id); ok && n >= s.seq {
			s.seq = n + 1
		}
		c := &campaign{
			id:        rep.id,
			sub:       rep.sub,
			submitted: rep.submitted,
			cancelled: rep.cancelled,
			subs:      map[chan Event]struct{}{},
		}
		c.ctx, c.cancel = context.WithCancel(s.ctx)
		jobs, jerr := rep.sub.Jobs()
		if jerr != nil {
			// The spec no longer expands (registry drift across
			// versions): surface the campaign as failed rather than
			// wedging the whole service.
			c.status = StatusFailed
			c.states = []jobState{{Status: JobFailed, Error: jerr.Error()}}
			c.jobs = nil
			c.cancel()
			s.campaigns[c.id] = c
			s.order = append(s.order, c.id)
			continue
		}
		c.jobs = jobs
		c.states = make([]jobState, len(jobs))
		c.finished = make([]*runner.JobResult, len(jobs))
		var requeue []int
		for i := range jobs {
			st, ok := rep.states[i]
			switch {
			case ok && (st.Status == JobDone || st.Status == JobCached) && st.Key != "" && !s.opt.Cache.Has(st.Key):
				// Finished once, but the result was evicted since:
				// recompute rather than serve a dangling pointer.
				c.states[i] = jobState{Status: JobQueued}
				requeue = append(requeue, i)
			case ok && st.Status.Terminal():
				c.states[i] = st
			case rep.cancelled:
				c.states[i] = jobState{Status: JobCancelled}
			default:
				// Queued or in-flight at shutdown: run it (again). A
				// cell that actually finished is a free cache hit.
				c.states[i] = jobState{Status: JobQueued}
				requeue = append(requeue, i)
			}
		}
		c.pending = len(requeue)
		if rep.cancelled {
			c.pending = 0
			for _, i := range requeue {
				c.states[i] = jobState{Status: JobCancelled}
			}
			requeue = nil
		}
		if c.pending == 0 {
			c.status = terminalStatus(c)
			c.cancel()
		} else {
			c.status = StatusQueued
			jl, jlerr := openJournal(s.opt.Dir, c.id)
			if jlerr != nil {
				return jlerr
			}
			c.jl = jl
			for _, i := range requeue {
				s.queue = append(s.queue, item{id: c.id, index: i})
			}
			s.metrics.JobsEnqueued.Add(int64(len(requeue)))
			s.metrics.CampaignsResumed.Add(1)
		}
		s.campaigns[c.id] = c
		s.order = append(s.order, c.id)
	}
	return nil
}

// parseID extracts the sequence number from a "c%06d" campaign id.
func parseID(id string) (int, bool) {
	rest, ok := strings.CutPrefix(id, "c")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// terminalStatus derives a drained campaign's final status.
func terminalStatus(c *campaign) Status {
	if c.cancelled {
		return StatusCancelled
	}
	for _, st := range c.states {
		switch st.Status {
		case JobFailed, JobQuarantined:
			return StatusFailed
		case JobCancelled:
			return StatusCancelled
		}
	}
	return StatusDone
}

// Submit validates, journals and enqueues a campaign, returning its
// view. The submit record is synced before the call returns: an
// accepted campaign survives an immediate crash.
func (s *Scheduler) Submit(sub Submission) (View, error) {
	jobs, err := sub.Jobs()
	if err != nil {
		return View{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return View{}, errors.New("campaign: scheduler is draining")
	}
	id := fmt.Sprintf("c%06d", s.seq)
	s.seq++
	now := time.Now()
	jl, err := createJournal(s.opt.Dir, id, sub, now)
	if err != nil {
		return View{}, err
	}
	c := &campaign{
		id:        id,
		sub:       sub,
		submitted: now,
		jobs:      jobs,
		status:    StatusQueued,
		states:    make([]jobState, len(jobs)),
		finished:  make([]*runner.JobResult, len(jobs)),
		pending:   len(jobs),
		jl:        jl,
		subs:      map[chan Event]struct{}{},
	}
	for i := range c.states {
		c.states[i] = jobState{Status: JobQueued}
	}
	c.ctx, c.cancel = context.WithCancel(s.ctx)
	s.campaigns[id] = c
	s.order = append(s.order, id)
	for i := range jobs {
		s.queue = append(s.queue, item{id: id, index: i})
	}
	s.metrics.CampaignsSubmitted.Add(1)
	s.metrics.JobsEnqueued.Add(int64(len(jobs)))
	s.cond.Broadcast()
	return s.viewLocked(c, true), nil
}

// worker drains the queue until the scheduler closes and the queue is
// empty (graceful drain leaves requeued work for the next process).
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.cond.Wait()
		}
		if len(s.queue) == 0 {
			s.mu.Unlock()
			return
		}
		if s.closed {
			// Draining: leave queued work journal-resumable.
			s.mu.Unlock()
			return
		}
		it := s.queue[0]
		s.queue = s.queue[1:]
		c := s.campaigns[it.id]
		if c == nil || c.states[it.index].Status != JobQueued {
			s.mu.Unlock()
			continue
		}
		c.states[it.index].Status = JobRunning
		if c.status == StatusQueued {
			c.status = StatusRunning
		}
		job := c.jobs[it.index]
		ctx := c.ctx
		s.emitLocked(c, Event{Type: "start", Index: it.index, Job: job.String()})
		s.mu.Unlock()

		var jr runner.JobResult
		if ctx.Err() != nil {
			jr = runner.JobResult{Job: job, Err: ctx.Err()}
		} else {
			stop := s.metrics.jobTimer()
			jr = s.exec.Execute(ctx, job, func(ev runner.Event) {
				s.forward(c, it.index, ev)
			})
			stop()
		}
		s.finish(c, it.index, jr)
	}
}

// forward relays mid-job executor telemetry to subscribers (terminal
// events are emitted by finish, with campaign counters attached).
// Lease-lifecycle events from the remote dispatcher are additionally
// journaled: they are the audit trail that proves a reclaimed job was
// requeued rather than lost, and they survive a service restart.
func (s *Scheduler) forward(c *campaign, index int, ev runner.Event) {
	var typ, leaseState string
	switch ev.Type {
	case runner.JobRetry:
		s.metrics.JobsRetried.Add(1)
		typ = "retry"
	case runner.JobCacheCorrupt:
		typ = "cache-corrupt"
	case runner.JobLeased:
		typ, leaseState = "lease", "granted"
	case runner.JobLeaseExpired:
		typ, leaseState = "lease-expired", "expired"
	case runner.JobReassigned:
		typ, leaseState = "requeued", "reclaimed"
	default:
		return // start is emitted at dispatch, terminal events by finish
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if leaseState != "" && c.jl != nil {
		if err := c.jl.append(record{
			T: "lease", Index: index, W: ev.Worker, LS: leaseState,
		}, false); err != nil {
			s.metrics.JournalErrors.Add(1)
		}
	}
	e := Event{Type: typ, Index: index, Job: c.jobs[index].String(), Worker: ev.Worker}
	if ev.Err != nil {
		e.Error = ev.Err.Error()
	}
	s.emitLocked(c, e)
}

// finish records one job's terminal state, journals it, updates
// counters, and completes the campaign when it was the last one.
func (s *Scheduler) finish(c *campaign, index int, jr runner.JobResult) {
	st := jobState{
		Status:    JobStatus(jr.Outcome()),
		Key:       jr.Key,
		ElapsedMS: jr.ElapsedMS(),
		Attempts:  jr.Attempts,
	}
	if st.Status == JobStatus(runner.OutcomeOK) {
		st.Status = JobDone // the journal's name for it
	}
	if jr.Err != nil {
		st.Error = jr.Err.Error()
	}
	s.metrics.finished[st.Status].Add(1)

	s.mu.Lock()
	defer s.mu.Unlock()
	c.states[index] = st
	c.finished[index] = &jr
	c.pending--
	if c.jl != nil {
		if err := c.jl.append(record{
			T: "job", Index: index, Status: st.Status, Key: st.Key,
			ElapsedMS: st.ElapsedMS, Attempts: st.Attempts, Error: st.Error,
		}, false); err != nil {
			s.metrics.JournalErrors.Add(1)
		}
	}
	ev := Event{Type: string(st.Status), Index: index, Job: jr.Job.String(), ElapsedMS: st.ElapsedMS}
	if st.Error != "" {
		ev.Error = st.Error
	}
	s.emitLocked(c, ev)
	if c.pending == 0 {
		s.completeLocked(c)
	}
}

// completeLocked finalizes a drained campaign. Callers hold s.mu.
func (s *Scheduler) completeLocked(c *campaign) {
	c.status = terminalStatus(c)
	c.cancel() // release the campaign's context resources
	if c.jl != nil {
		// Through the journal's own locked method, not c.jl.f.Sync()
		// directly: reaching around journal.mu to its file handle races
		// any concurrent append's write-then-sync sequence.
		if err := c.jl.sync(); err != nil {
			s.metrics.JournalErrors.Add(1)
		}
	}
	switch c.status {
	case StatusCancelled:
		s.metrics.CampaignsCancelled.Add(1)
	default:
		s.metrics.CampaignsCompleted.Add(1)
	}
	// Persist cache access times at natural quiesce points so a crash
	// costs at most one campaign's worth of LRU accuracy.
	if err := s.opt.Cache.FlushIndex(); err != nil {
		s.metrics.JournalErrors.Add(1)
	}
	s.emitLocked(c, Event{Type: "complete", Status: c.status})
}

// Cancel cancels a campaign: queued jobs are dropped immediately,
// in-flight jobs get their context cancelled and drain. Cancelling a
// terminal campaign is a no-op.
func (s *Scheduler) Cancel(id string) (View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return View{}, ErrNotFound
	}
	if c.status.Terminal() {
		return s.viewLocked(c, true), nil
	}
	c.cancelled = true
	c.cancel()
	if c.jl != nil {
		if err := c.jl.append(record{T: "cancel", At: time.Now()}, true); err != nil {
			s.metrics.JournalErrors.Add(1)
		}
	}
	// Drop queued jobs of this campaign from the FIFO.
	keep := s.queue[:0]
	for _, it := range s.queue {
		if it.id != id {
			keep = append(keep, it)
		}
	}
	s.queue = keep
	for i := range c.states {
		if c.states[i].Status == JobQueued {
			c.states[i] = jobState{Status: JobCancelled}
			c.pending--
			s.metrics.finished[JobCancelled].Add(1)
			s.emitLocked(c, Event{Type: "cancelled", Index: i, Job: c.jobs[i].String()})
		}
	}
	if c.pending == 0 {
		s.completeLocked(c)
	}
	return s.viewLocked(c, true), nil
}

// View returns one campaign's state (withJobs includes per-job rows).
func (s *Scheduler) View(id string, withJobs bool) (View, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return View{}, ErrNotFound
	}
	return s.viewLocked(c, withJobs), nil
}

// List returns every campaign in submission order, without job rows.
func (s *Scheduler) List() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]View, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.viewLocked(s.campaigns[id], false))
	}
	return out
}

func (s *Scheduler) viewLocked(c *campaign, withJobs bool) View {
	v := View{
		ID:        c.id,
		Label:     c.sub.Label,
		Status:    c.status,
		Submitted: c.submitted,
		Total:     len(c.jobs),
	}
	for i, st := range c.states {
		switch st.Status {
		case JobDone:
			v.Done++
		case JobCached:
			v.Cached++
		case JobFailed, JobQuarantined:
			v.Failed++
		case JobCancelled:
			v.Cancelled++
		}
		if withJobs && i < len(c.jobs) {
			j := c.jobs[i]
			v.Jobs = append(v.Jobs, JobView{
				Index: i, Job: j.String(), Experiment: j.ExperimentID(), Scheme: j.Scheme,
				Seed: j.Seed, jobState: st,
			})
		}
	}
	return v
}

// Results assembles the campaign's job results in cell order. A job
// finished in this process is the executor's own record (result, elapsed
// time, diagnostics, cache error); one journaled by an earlier process
// is rebuilt from its journal state, its result loaded from the shared
// cache by key. A finished job whose cache entry was evicted reports an
// error for that cell.
func (s *Scheduler) Results(id string) ([]runner.JobResult, error) {
	s.mu.Lock()
	c := s.campaigns[id]
	if c == nil {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	out := make([]runner.JobResult, len(c.jobs))
	states := append([]jobState(nil), c.states...)
	var journaled []int // cells not finished in this process
	for i, job := range c.jobs {
		if jr := c.finished[i]; jr != nil {
			out[i] = *jr
			continue
		}
		journaled = append(journaled, i)
		st := states[i]
		out[i] = runner.WireResult{
			Key:         st.Key,
			Cached:      st.Status == JobCached,
			ElapsedMS:   st.ElapsedMS,
			Attempts:    st.Attempts,
			Quarantined: st.Status == JobQuarantined,
		}.JobResult(job)
	}
	s.mu.Unlock()

	for _, i := range journaled {
		jr, st := &out[i], states[i]
		switch {
		case st.Status == JobDone || st.Status == JobCached:
			if st.Key == "" {
				break // ran under an executor that keeps no cache
			}
			res, ok, err := s.opt.Cache.Get(st.Key)
			switch {
			case ok:
				jr.Result = res
			case err != nil:
				jr.Err = err
			default:
				jr.Err = fmt.Errorf("campaign: result for %s evicted from cache; resubmit to recompute", jr.Job)
			}
		case st.Status.Terminal():
			jr.Err = errors.New(st.Error)
		default:
			jr.Err = fmt.Errorf("campaign: job %s still %s", jr.Job, st.Status)
		}
	}
	return out, nil
}

// Subscribe registers a progress listener for a campaign, returning
// the current snapshot, a buffered event channel and a cancel
// function. The snapshot and the channel are registered atomically:
// no event between them is lost. Slow consumers drop events rather
// than stall the scheduler; the terminal "complete" event is always
// the last one delivered (or visible in the snapshot itself).
func (s *Scheduler) Subscribe(id string) (View, <-chan Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return View{}, nil, nil, ErrNotFound
	}
	snap := s.viewLocked(c, false)
	ch := make(chan Event, 1024)
	if !snap.Status.Terminal() {
		c.subs[ch] = struct{}{}
	} else {
		close(ch)
	}
	cancel := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(c.subs, ch)
	}
	return snap, ch, cancel, nil
}

// emitLocked fans one event to the campaign's subscribers. Callers
// hold s.mu. The terminal complete event closes every subscription.
func (s *Scheduler) emitLocked(c *campaign, ev Event) {
	ev.Campaign = c.id
	ev.Total = len(c.jobs)
	done := 0
	for _, st := range c.states {
		if st.Status.Terminal() {
			done++
		}
	}
	ev.Done = done
	for ch := range c.subs {
		select {
		case ch <- ev:
		default: // slow consumer: drop rather than stall the pool
		}
	}
	if ev.Type == "complete" {
		for ch := range c.subs {
			close(ch)
			delete(c.subs, ch)
		}
	}
}

// Close drains the scheduler gracefully: no new campaigns are
// accepted, queued jobs stay journaled for the next process, in-flight
// jobs run to completion and are recorded, journals and the cache
// index are flushed. Safe to call once.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	var firstErr error
	for _, id := range s.order {
		c := s.campaigns[id]
		if c.jl != nil {
			if err := c.jl.close(); err != nil && firstErr == nil {
				firstErr = err
			}
			c.jl = nil
		}
		// Wake any subscriber still streaming a non-terminal campaign.
		for ch := range c.subs {
			close(ch)
			delete(c.subs, ch)
		}
	}
	if err := s.opt.Cache.FlushIndex(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
