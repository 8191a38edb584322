package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/runner"
)

// Client is the worker-side view of the board's HTTP protocol. It maps
// the handler's status codes back onto the package sentinels, so the
// worker loop branches on errors.Is instead of status numbers.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport; nil uses a client with a sane timeout.
	// Tests inject flaky transports here.
	HTTP *http.Client

	once     sync.Once
	fallback *http.Client // built once by http() when HTTP is nil
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	c.once.Do(func() { c.fallback = &http.Client{Timeout: 30 * time.Second} })
	return c.fallback
}

// post sends one JSON request and decodes the response into out (when
// non-nil). A 204 returns (false, nil); any 2xx returns (true, nil).
func (c *Client) post(ctx context.Context, path string, in, out any) (bool, error) {
	body, err := json.Marshal(in)
	if err != nil {
		return false, fmt.Errorf("dispatch: encoding %s request: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		strings.TrimRight(c.Base, "/")+path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http().Do(req)
	if err != nil {
		return false, err
	}
	defer func() {
		// net/http reuses a connection only when its body was read out.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		_ = resp.Body.Close() // read-only body; nothing to report
	}()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return false, nil
	case http.StatusConflict:
		return false, ErrUnknownWorker
	case http.StatusGone:
		return false, ErrLeaseGone
	case http.StatusServiceUnavailable:
		return false, ErrClosed
	}
	if resp.StatusCode/100 != 2 {
		var eb errorBody
		if json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&eb) == nil && eb.Error != "" {
			return false, fmt.Errorf("dispatch: %s: %s", path, eb.Error)
		}
		return false, fmt.Errorf("dispatch: %s: HTTP %d", path, resp.StatusCode)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return false, fmt.Errorf("dispatch: decoding %s response: %w", path, err)
		}
	}
	return true, nil
}

// Register announces the worker; the response carries its identity.
func (c *Client) Register(ctx context.Context, req RegisterRequest) (RegisterResponse, error) {
	var resp RegisterResponse
	_, err := c.post(ctx, "/dispatch/register", req, &resp)
	return resp, err
}

// Claim asks for one job; ok=false means none is queued.
func (c *Client) Claim(ctx context.Context, workerID string) (ClaimResponse, bool, error) {
	return c.ClaimWait(ctx, workerID, 0)
}

// ClaimWait is Claim held by an empty board for up to wait.
func (c *Client) ClaimWait(ctx context.Context, workerID string, wait time.Duration) (ClaimResponse, bool, error) {
	var resp ClaimResponse
	ok, err := c.post(ctx, "/dispatch/claim", ClaimRequest{WorkerID: workerID, WaitMS: wait.Milliseconds()}, &resp)
	return resp, ok && err == nil, err
}

// Heartbeat renews a lease; ErrLeaseGone means stop working on it.
func (c *Client) Heartbeat(ctx context.Context, workerID, leaseID string) error {
	_, err := c.post(ctx, "/dispatch/heartbeat", HeartbeatRequest{WorkerID: workerID, LeaseID: leaseID}, nil)
	return err
}

// Result delivers a finished (or abandoned) job.
func (c *Client) Result(ctx context.Context, req ResultRequest) (ResultResponse, error) {
	var resp ResultResponse
	_, err := c.post(ctx, "/dispatch/result", req, &resp)
	return resp, err
}

// WorkerOptions configure one worker process.
type WorkerOptions struct {
	// Name labels the worker in the service's /workers and journal.
	Name string
	// Slots is how many jobs run concurrently; <=0 means 1.
	Slots int
	// Exec runs claimed jobs. Nil is invalid — the caller builds a
	// LocalExecutor with its own cache/timeout/retry policy (tests
	// inject blocking executors here).
	Exec runner.Executor
	// PollMax caps the backoff after a failed or refused request
	// (jitter-free doubling from pollMin); idle claims park. Default 2s.
	PollMax time.Duration
	// Log, when non-nil, receives operational notices.
	Log func(format string, args ...any)
}

const (
	// pollMin is where the claim, registration and delivery backoffs
	// start (a PollMax below it polls at PollMax flat).
	pollMin = 100 * time.Millisecond
	// resultRetries bounds delivery attempts for a finished job before
	// the worker gives it up to lease reclamation.
	resultRetries = 5
)

// Worker is the pull loop ccfit-worker runs: register, claim, execute
// under a heartbeat, report, repeat. Run blocks until ctx is
// cancelled; cancellation drains gracefully — in-flight jobs are
// reported abandoned so the board requeues them immediately instead of
// waiting out the lease TTL.
type Worker struct {
	Client *Client
	Opt    WorkerOptions

	mu       sync.Mutex
	workerID string        // guarded by mu
	ttl      time.Duration // guarded by mu
}

func (w *Worker) logf(format string, args ...any) {
	if w.Opt.Log != nil {
		w.Opt.Log(format, args...)
	}
}

func (w *Worker) opts() WorkerOptions {
	o := w.Opt
	if o.Slots <= 0 {
		o.Slots = 1
	}
	if o.PollMax <= 0 {
		o.PollMax = 2 * time.Second
	}
	return o
}

// register (re-)announces the worker, retrying with capped backoff
// until it succeeds or ctx ends. Concurrent slots share one identity:
// whoever notices the stale id first re-registers for everyone.
func (w *Worker) register(ctx context.Context, staleID string) (string, time.Duration, error) {
	o := w.opts()
	w.mu.Lock()
	if w.workerID != "" && w.workerID != staleID {
		id, ttl := w.workerID, w.ttl
		w.mu.Unlock()
		return id, ttl, nil // another slot already re-registered
	}
	w.workerID = ""
	w.mu.Unlock()

	for attempt := 1; ; attempt++ {
		resp, err := w.Client.Register(ctx, RegisterRequest{
			Name: o.Name, Protocol: Protocol, Module: runner.ModuleVersion(),
		})
		if err == nil {
			ttl := time.Duration(resp.LeaseTTLMS) * time.Millisecond
			w.mu.Lock()
			w.workerID = resp.WorkerID
			w.ttl = ttl
			w.mu.Unlock()
			w.logf("dispatch: registered as %s (lease TTL %v)", resp.WorkerID, ttl)
			return resp.WorkerID, ttl, nil
		}
		if ctx.Err() != nil {
			return "", 0, ctx.Err()
		}
		w.logf("dispatch: register failed (%v); retrying", err)
		select {
		case <-time.After(runner.Backoff(pollMin, attempt, o.PollMax)):
		case <-ctx.Done():
			return "", 0, ctx.Err()
		}
	}
}

// Run executes the worker loop until ctx is cancelled. It returns nil
// on a clean drain.
func (w *Worker) Run(ctx context.Context) error {
	o := w.opts()
	if o.Exec == nil {
		return fmt.Errorf("dispatch: worker needs an executor")
	}
	if _, _, err := w.register(ctx, ""); err != nil {
		return err
	}
	var wg sync.WaitGroup
	for s := 0; s < o.Slots; s++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			w.slot(ctx, o, slot)
		}(s)
	}
	wg.Wait()
	return nil // drained
}

// slot is one claim-execute-report loop.
func (w *Worker) slot(ctx context.Context, o WorkerOptions, slot int) {
	idle := 0
	for ctx.Err() == nil {
		w.mu.Lock()
		id, ttl := w.workerID, w.ttl
		w.mu.Unlock()

		wait, asked := min(ttl/3, maxClaimHold), time.Now()
		claim, ok, err := w.Client.ClaimWait(ctx, id, wait)
		switch {
		case err == nil && ok:
			idle = 0
			w.runJob(ctx, o, id, ttl, claim)
			continue
		case err == nil && wait > 0 && time.Since(asked) >= wait/2:
			idle = 0 // 204 after the hold: the board parked us; ask again
			continue
		case err == nil: // 204 sooner than asked (no wait_ms support, or closing): pace here
		case errors.Is(err, ErrUnknownWorker):
			// Service restarted or pruned us; re-register and resume.
			if _, _, rerr := w.register(ctx, id); rerr != nil {
				return
			}
			continue
		case errors.Is(err, ErrClosed):
			w.logf("dispatch: service closing; worker slot %d exiting", slot)
			return
		case ctx.Err() != nil:
			return
		default:
			w.logf("dispatch: claim failed (%v); backing off", err)
		}
		idle++
		select {
		case <-time.After(runner.Backoff(pollMin, idle, o.PollMax)):
		case <-ctx.Done():
			return
		}
	}
}

// runJob executes one claimed job under a heartbeat and reports the
// outcome.
func (w *Worker) runJob(ctx context.Context, o WorkerOptions, workerID string, ttl time.Duration, claim ClaimResponse) {
	job, err := claim.Job.Job()
	if err != nil {
		// Registry drift between builds: report the failure rather than
		// guessing which cell was meant.
		w.logf("dispatch: undecodable job on lease %s: %v", claim.LeaseID, err)
		w.report(o, workerID, claim.LeaseID, runner.WireResult{Err: err.Error()}, false)
		return
	}
	// The job context ends when the lease dies (reclaimed elsewhere) or
	// the worker drains; the heartbeat goroutine owns the former.
	jobCtx, cancel := context.WithCancel(ctx)
	var leaseLost bool
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		interval := ttl / 3
		if interval <= 0 {
			interval = time.Second
		}
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-jobCtx.Done():
				return
			case <-tick.C:
				err := w.Client.Heartbeat(jobCtx, workerID, claim.LeaseID)
				switch {
				case err == nil:
				case errors.Is(err, ErrLeaseGone), errors.Is(err, ErrUnknownWorker):
					// The board reclaimed the job (or forgot us): stop
					// burning cycles on a result nobody will accept.
					w.logf("dispatch: lease %s on %s gone; cancelling", claim.LeaseID, job)
					leaseLost = true
					cancel()
					return
				default:
					// Transient transport trouble: keep trying — the
					// lease survives as long as one renewal lands per
					// TTL.
					w.logf("dispatch: heartbeat for %s failed (%v)", job, err)
				}
			}
		}
	}()

	jr := o.Exec.Execute(jobCtx, job, nil)
	cancel()
	hbWG.Wait()

	switch {
	case leaseLost:
		// Nothing to report: the lease is dead and the handler would
		// drop the delivery anyway.
	case ctx.Err() != nil && jr.Err != nil:
		// Draining: hand the job back immediately.
		w.logf("dispatch: draining; abandoning %s", job)
		w.report(o, workerID, claim.LeaseID, runner.WireResult{}, true)
	default:
		w.report(o, workerID, claim.LeaseID, runner.WireFromResult(jr), false)
	}
}

// report delivers a result with bounded retries on an independent
// context — a drain must not stop the abandon message that speeds up
// requeueing.
func (w *Worker) report(o WorkerOptions, workerID, leaseID string, res runner.WireResult, abandon bool) {
	req := ResultRequest{WorkerID: workerID, LeaseID: leaseID, Abandon: abandon, Result: res}
	for attempt := 1; attempt <= resultRetries; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		resp, err := w.Client.Result(ctx, req)
		cancel()
		switch {
		case err == nil:
			if !resp.Accepted {
				w.logf("dispatch: result for lease %s not accepted (reclaimed elsewhere); dropped", leaseID)
			}
			return
		case errors.Is(err, ErrLeaseGone), errors.Is(err, ErrUnknownWorker), errors.Is(err, ErrClosed):
			return // nothing to retry toward
		}
		w.logf("dispatch: result delivery attempt %d/%d failed (%v)", attempt, resultRetries, err)
		time.Sleep(runner.Backoff(pollMin, attempt, o.PollMax))
	}
	w.logf("dispatch: giving up on delivering lease %s after %d attempts; the board will reclaim it", leaseID, resultRetries)
}
