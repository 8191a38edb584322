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
	// Cache is the shared result cache (required): the dedup layer and
	// the store of every finished cell a restart reports.
	Cache *runner.Cache
	// Workers is the number of in-process slots; <= 0 means 1. With
	// Dispatch they run jobs only while no remote worker is live, and
	// the fleet claims jobs however many slots there are.
	Workers  int
	Timeout  time.Duration   // the default executor's per-job timeout
	Executor runner.Executor // overrides job execution (tests, instrumented backends)
	// Dispatch, when non-nil, is the fleet's lease board: jobs go on
	// its queue, where ccfit-worker processes claim them, and the
	// default executor is a dispatch.RemoteExecutor over it. An explicit
	// Executor runs remote claims too, so it should offload as that does.
	// The board may already hold parked claims when it is passed to
	// Open: they start resumed tasks before Open returns.
	Dispatch *dispatch.Board
	Log      func(format string, args ...any) // operational notices, when non-nil
}

// campaign is the scheduler's record of one campaign: id, sub and
// submitted are fixed, the rest is guarded by the scheduler's mutex.
type campaign struct {
	id        string
	sub       Submission
	submitted time.Time
	jobs      []runner.Job            // guarded by Scheduler.mu
	status    Status                  // guarded by Scheduler.mu
	cancelled bool                    // guarded by Scheduler.mu; status flips when drained
	states    []jobState              // guarded by Scheduler.mu
	finished  []*runner.JobResult     // guarded by Scheduler.mu; jobs finished in this process
	pending   int                     // guarded by Scheduler.mu; jobs not yet terminal (Total - Done)
	ctx       context.Context         // guarded by Scheduler.mu
	cancel    context.CancelFunc      // guarded by Scheduler.mu
	subs      map[chan Event]struct{} // guarded by Scheduler.mu
}

// Scheduler is the campaign bookkeeping over one long-lived
// runner.Queue: campaigns expand into tasks, whoever claims one (a slot
// or a remote worker) runs it through the runner.Executor, and
// subscribers stream progress events. Lock order: Scheduler.mu, then
// the queue's.
type Scheduler struct {
	opt     Options
	exec    runner.Executor
	metrics *Metrics
	queue   *runner.Queue
	disk    disk // writes the spec files and cancel marks

	ctx    context.Context // hard-stop scope for every job
	cancel context.CancelFunc

	mu        sync.Mutex
	campaigns map[string]*campaign // guarded by mu
	order     []string             // guarded by mu
	seq       int                  // guarded by mu
	closed    bool                 // guarded by mu
}

// Open starts a scheduler over opt.Dir, resuming every campaign found
// there, and its opt.Workers in-process slots.
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
	exec, queue := opt.Executor, runner.NewQueue()
	local := &runner.LocalExecutor{Cache: opt.Cache, Timeout: opt.Timeout}
	if opt.Dispatch != nil {
		queue = opt.Dispatch.Queue()
		if exec == nil {
			exec = &dispatch.RemoteExecutor{Board: opt.Dispatch, Local: local, Log: opt.Log}
		}
	}
	if exec == nil {
		exec = local
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Scheduler{
		opt:       opt,
		exec:      exec,
		metrics:   NewMetrics(opt.Workers),
		queue:     queue,
		disk:      osDisk,
		ctx:       ctx,
		cancel:    cancel,
		campaigns: map[string]*campaign{},
	}
	if err := s.resume(); err != nil {
		cancel()
		return nil, err
	}
	queue.Serve(opt.Workers)
	return s, nil
}

// Metrics returns the scheduler's counters.
func (s *Scheduler) Metrics() *Metrics { return s.metrics }

// Board returns the remote dispatch board, nil when there is none.
func (s *Scheduler) Board() *dispatch.Board { return s.opt.Dispatch }

// QueueDepth returns the number of queued (not yet running) jobs.
func (s *Scheduler) QueueDepth() int { return s.queue.Len() }

// Draining reports whether Close has begun: no new campaigns are
// accepted and no further job starts.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// resume rebuilds every campaign in the data directory: each cell the
// cache holds is finished, a cancelled campaign's others are
// cancelled, and the rest are queued. It holds s.mu because no slot
// exists yet but a claim may: a board passed to Open can already hold
// parked claims, and each takes a resumed task as soon as it is queued
// and runs it while resume is still adding campaigns
// (TestResumeRacesParkedClaim).
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
		c := &campaign{id: id, sub: sf.Sub, submitted: sf.At, cancelled: cerr == nil}
		if err == nil {
			c.jobs, err = c.sub.Jobs()
		}
		if err != nil {
			// The spec does not decode, or no longer expands (registry
			// drift across versions): a failed campaign, not a wedged
			// service.
			c.jobs, c.states = nil, []jobState{{Status: JobFailed, Error: err.Error()}}
		} else {
			c.states = make([]jobState, len(c.jobs))
			for i, job := range c.jobs {
				switch held := s.opt.Cache.Holds(job); {
				case held != "":
					c.states[i].Status = JobStatus(held) // cached or quarantined
				case c.cancelled:
					c.states[i].Status = JobCancelled
				default:
					c.states[i].Status = JobQueued
				}
			}
		}
		if s.addLocked(c) > 0 {
			s.metrics.CampaignsResumed.Add(1)
		}
	}
	return nil
}

// addLocked registers c, whose jobs and states are set, and queues its
// JobQueued jobs, returning how many. A campaign with none is complete
// at once. Callers hold s.mu.
func (s *Scheduler) addLocked(c *campaign) int {
	c.ctx, c.cancel = context.WithCancel(s.ctx)
	c.subs = map[chan Event]struct{}{}
	c.finished = make([]*runner.JobResult, len(c.jobs))
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	var tasks []*runner.Task
	for i := range c.jobs {
		if c.states[i].Status == JobQueued {
			tasks = append(tasks, s.task(c, i))
		}
	}
	c.pending = len(tasks)
	s.queue.Push(tasks...)
	s.metrics.JobsEnqueued.Add(int64(c.pending))
	c.status = StatusQueued
	if c.pending == 0 {
		c.status = terminalStatus(c)
		c.cancel()
	}
	return c.pending
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
	c := &campaign{id: fmt.Sprintf("c%06d", s.seq), sub: sub, submitted: time.Now(), jobs: jobs}
	s.seq++
	if err := s.disk.writeSpec(s.opt.Dir, specFile{ID: c.id, At: c.submitted, Sub: sub}); err != nil {
		return View{}, err
	}
	c.states = make([]jobState, len(jobs))
	for i := range c.states {
		c.states[i].Status = JobQueued
	}
	s.addLocked(c)
	s.metrics.CampaignsSubmitted.Add(1)
	return s.viewLocked(c, true), nil
}

// task is job index of campaign c as the queue runs it, whoever claims
// it. A job whose remote lease was lost comes back runner.ErrRequeued
// and is left to its next claim; one cancelled meanwhile is skipped.
func (s *Scheduler) task(c *campaign, index int) *runner.Task {
	job := c.jobs[index]
	return &runner.Task{Job: job, Ctx: c.ctx, Run: func(ctx context.Context) {
		s.mu.Lock()
		if c.states[index].Status.Terminal() {
			s.mu.Unlock()
			return
		}
		c.states[index].Status = JobRunning
		if c.status == StatusQueued {
			c.status = StatusRunning
		}
		s.emitLocked(c, Event{Type: "start", Index: index, Job: job.String()})
		s.mu.Unlock()

		jr := runner.JobResult{Job: job, Err: ctx.Err()}
		if jr.Err == nil {
			stop := s.metrics.jobTimer()
			jr = s.exec.Execute(ctx, job, func(ev runner.Event) {
				s.forward(c, index, ev)
			})
			stop()
		}
		if !errors.Is(jr.Err, runner.ErrRequeued) {
			s.finish(c, index, jr)
		}
	}}
}

// forwarded names the executor events forward relays.
var forwarded = map[runner.EventType]string{
	runner.JobCacheCorrupt: "cache-corrupt", runner.JobLeased: "lease",
	runner.JobLeaseExpired: "lease-expired", runner.JobReassigned: "requeued",
}

// forward relays mid-job executor telemetry to subscribers (start and
// terminal events are the scheduler's own). Lease events, each naming
// its worker, are the audit trail that a reclaimed job was requeued,
// not lost.
func (s *Scheduler) forward(c *campaign, index int, ev runner.Event) {
	typ, ok := forwarded[ev.Type]
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := Event{Type: typ, Index: index, Job: c.jobs[index].String(), Worker: ev.Worker}
	if ev.Err != nil {
		e.Error = ev.Err.Error()
	}
	s.emitLocked(c, e)
}

// finish records one job's terminal state and completes the campaign
// after its last.
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

// Cancel cancels a campaign: queued jobs read cancelled at once (their
// tasks are skipped when claimed), in-flight ones get their context
// cancelled and drain. The cancel mark is on disk before anything
// changes. Cancelling a terminal campaign is a no-op.
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
	if err := s.disk.writeDurable(s.opt.Dir, id+".cancel", nil); err != nil {
		return View{}, fmt.Errorf("campaign: writing cancel mark: %w", err)
	}
	c.cancelled = true
	c.cancel()
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

// View returns one campaign's state, with per-job rows if withJobs.
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
				Index: i, Job: j.String(), Experiment: j.Exp.ID, Scheme: j.Scheme,
				Seed: j.Seed, jobState: st,
			})
		}
	}
	return v
}

// Results assembles the campaign's job results in cell order: the
// executor's own record for a job finished in this process, the cache's
// (result, or quarantined outcome with its snapshot) for one an earlier
// process finished, an error for a cell evicted since.
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
		case JobCancelled: // never started: its outcome is the cancellation
			jr.Err = fmt.Errorf("campaign: job %s is cancelled: %w", jr.Job, context.Canceled)
		default:
			jr.Err = fmt.Errorf("campaign: job %s is %s", jr.Job, st)
		}
	}
	return out, nil
}

// Subscribe registers a progress listener for a campaign, returning
// the current snapshot, a buffered event channel and a cancel
// function, atomically: no event between them is lost.
func (s *Scheduler) Subscribe(id string) (View, <-chan Event, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.campaigns[id]
	if c == nil {
		return View{}, nil, nil, ErrNotFound
	}
	snap := s.viewLocked(c, false)
	ch := make(chan Event, 1024)
	c.subs[ch] = struct{}{}
	if snap.Status.Terminal() {
		close(ch)
		delete(c.subs, ch)
	}
	return snap, ch, func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		delete(c.subs, ch)
	}, nil
}

// emitLocked fans one event to the campaign's subscribers. Callers
// hold s.mu, the only sender. A slow consumer loses events rather than
// stall the scheduler — except the terminal complete, which takes the
// place of the oldest one buffered and then closes the subscription.
func (s *Scheduler) emitLocked(c *campaign, ev Event) {
	ev.Campaign = c.id
	ev.Total = len(c.jobs)
	ev.Done = len(c.jobs) - c.pending
	last := ev.Type == "complete"
	for ch := range c.subs {
		select {
		case ch <- ev:
		default:
			if last {
				select {
				case <-ch:
				default:
				}
				ch <- ev
			}
		}
		if last {
			close(ch)
			delete(c.subs, ch)
		}
	}
}

// Close drains the scheduler: no new campaigns are accepted, queued
// jobs are left for the next process, and jobs already claimed — by a
// slot or a remote worker — run to completion and are recorded. Safe
// to call more than once; the nil error keeps it an io.Closer.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.queue.Close()

	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.campaigns { // end the streams of unfinished campaigns
		for ch := range c.subs {
			close(ch)
			delete(c.subs, ch)
		}
	}
	return nil
}
