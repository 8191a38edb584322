package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/dispatch"
	"repro/internal/runner"
)

// Options configure a Scheduler.
type Options struct {
	// Dir holds each campaign's spec file and cancel mark (created if
	// needed). Required.
	Dir string
	// Cache is the shared content-addressed result cache. Required:
	// it is both the dedup layer and the durable store of every
	// finished cell a restart reports.
	Cache *runner.Cache
	// Workers is the executor pool size; <= 0 means 1.
	Workers int
	// Timeout configures the default local executor (ignored when
	// Executor is set).
	Timeout time.Duration
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
	subs      map[chan Event]struct{} // guarded by Scheduler.mu
}

// Scheduler owns the durable queue: campaigns expand into jobs,
// workers drain the FIFO queue through a runner.Executor, and
// subscribers stream progress events.
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

// Open starts a scheduler over dir, resuming every campaign found
// there: its spec is re-expanded, each cell the cache holds is
// finished, and the rest are requeued — so a resume only recomputes
// what is actually missing.
func Open(opt Options) (*Scheduler, error) {
	if opt.Dir == "" {
		return nil, errors.New("campaign: Options.Dir is required")
	}
	if opt.Cache == nil {
		return nil, errors.New("campaign: Options.Cache is required (shared dedup layer)")
	}
	if err := os.MkdirAll(opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("campaign: spec dir: %w", err)
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	exec := opt.Executor
	if exec == nil {
		local := &runner.LocalExecutor{Cache: opt.Cache, Timeout: opt.Timeout}
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

// resume rebuilds every campaign in the data directory.
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
	// Sorted by id; stray temp files of an interrupted write do not match.
	paths, err := filepath.Glob(filepath.Join(s.opt.Dir, "*.spec.json"))
	if err != nil {
		return err
	}
	for _, path := range paths {
		id := strings.TrimSuffix(filepath.Base(path), ".spec.json")
		if n, ok := parseID(id); ok && n >= s.seq {
			s.seq = n + 1
		}
		var sf specFile
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &sf)
		}
		if err != nil {
			err = fmt.Errorf("campaign: reading %s: %w", path, err)
		}
		_, cerr := os.Stat(filepath.Join(s.opt.Dir, id+".cancel"))
		c := &campaign{
			id:        id,
			sub:       sf.Sub,
			submitted: sf.At,
			cancelled: cerr == nil,
			subs:      map[chan Event]struct{}{},
		}
		c.ctx, c.cancel = context.WithCancel(s.ctx)
		s.campaigns[c.id] = c
		s.order = append(s.order, c.id)
		var jobs []runner.Job
		if err == nil {
			jobs, err = c.sub.Jobs()
		}
		if err != nil {
			// The spec does not decode, or no longer expands (registry
			// drift across versions): surface the campaign as failed
			// rather than wedging the whole service.
			c.status = StatusFailed
			c.states = []jobState{{Status: JobFailed, Error: err.Error()}}
			c.cancel()
			continue
		}
		c.jobs = jobs
		c.states = make([]jobState, len(jobs))
		c.finished = make([]*runner.JobResult, len(jobs))
		for i, job := range jobs {
			switch held := s.opt.Cache.Holds(job); {
			case held != "":
				c.states[i].Status = JobStatus(held) // cached or quarantined
			case c.cancelled:
				c.states[i].Status = JobCancelled
			default:
				c.states[i].Status = JobQueued
				s.queue = append(s.queue, item{id: c.id, index: i})
				c.pending++
			}
		}
		if c.pending == 0 {
			c.status = terminalStatus(c)
			c.cancel()
			continue
		}
		c.status = StatusQueued
		s.metrics.JobsEnqueued.Add(int64(c.pending))
		s.metrics.CampaignsResumed.Add(1)
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

// Submit validates, stores and enqueues a campaign, returning its
// view. The spec file is on disk before the call returns: an accepted
// campaign survives an immediate crash.
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
	if err := writeSpec(s.opt.Dir, specFile{ID: id, At: now, Sub: sub}); err != nil {
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
			// Draining: leave queued work for the next process.
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
// Lease-lifecycle events from the remote dispatcher, each naming its
// worker, are the audit trail that proves a reclaimed job was requeued
// rather than lost; /metrics counts the same transitions.
func (s *Scheduler) forward(c *campaign, index int, ev runner.Event) {
	var typ string
	switch ev.Type {
	case runner.JobCacheCorrupt:
		typ = "cache-corrupt"
	case runner.JobLeased:
		typ = "lease"
	case runner.JobLeaseExpired:
		typ = "lease-expired"
	case runner.JobReassigned:
		typ = "requeued"
	default:
		return // start is emitted at dispatch, terminal events by finish
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := Event{Type: typ, Index: index, Job: c.jobs[index].String(), Worker: ev.Worker}
	if ev.Err != nil {
		e.Error = ev.Err.Error()
	}
	s.emitLocked(c, e)
}

// finish records one job's terminal state, updates counters, and
// completes the campaign when it was the last one.
func (s *Scheduler) finish(c *campaign, index int, jr runner.JobResult) {
	st := jobState{
		Status:    JobStatus(jr.Outcome()),
		Key:       jr.Key,
		ElapsedMS: jr.ElapsedMS(),
		Attempts:  jr.Attempts,
	}
	if st.Status == JobStatus(runner.OutcomeOK) {
		st.Status = JobDone // the campaign's name for it
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
	switch c.status {
	case StatusCancelled:
		s.metrics.CampaignsCancelled.Add(1)
	default:
		s.metrics.CampaignsCompleted.Add(1)
	}
	s.emitLocked(c, Event{Type: "complete", Status: c.status})
}

// Cancel cancels a campaign: queued jobs are dropped immediately,
// in-flight jobs get their context cancelled and drain. The cancel
// mark is on disk before anything changes, and a failure to write it
// changes nothing. Cancelling a terminal campaign is a no-op.
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
	if err := writeDurable(s.opt.Dir, id+".cancel", nil); err != nil {
		return View{}, fmt.Errorf("campaign: writing cancel mark: %w", err)
	}
	c.cancelled = true
	c.cancel()
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
// time, diagnostics, cache error); one an earlier process finished is
// rebuilt from the cache: its result, or its quarantined outcome with
// the checker's snapshot. A cell whose entry was evicted since reports
// an error.
func (s *Scheduler) Results(id string) ([]runner.JobResult, error) {
	s.mu.Lock()
	c := s.campaigns[id]
	if c == nil {
		s.mu.Unlock()
		return nil, ErrNotFound
	}
	out := make([]runner.JobResult, len(c.jobs))
	states := make([]JobStatus, len(c.jobs))
	for i, job := range c.jobs {
		if jr := c.finished[i]; jr != nil {
			out[i] = *jr
		} else {
			out[i] = runner.JobResult{Job: job}
			states[i] = c.states[i].Status
		}
	}
	s.mu.Unlock()

	for i, st := range states {
		jr := &out[i]
		switch st {
		case "": // finished in this process
		case JobCached, JobQuarantined:
			var ok bool
			if *jr, ok = s.opt.Cache.Recall(jr.Job); !ok {
				jr.Err = fmt.Errorf("campaign: result for %s evicted from cache; resubmit to recompute", jr.Job)
			}
		default:
			jr.Err = fmt.Errorf("campaign: job %s is %s", jr.Job, st)
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
// accepted, queued jobs are left for the next process, in-flight jobs
// run to completion and are recorded. Safe to call more than once. It
// returns nil: nothing is left to persist (the error keeps Close an
// io.Closer).
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
	for _, id := range s.order {
		// Wake any subscriber still streaming a non-terminal campaign.
		c := s.campaigns[id]
		for ch := range c.subs {
			close(ch)
			delete(c.subs, ch)
		}
	}
	return nil
}
