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

// Client is the worker side of the board's HTTP protocol; it maps the
// handler's status codes back onto the package sentinels.
type Client struct {
	Base string       // the service root, e.g. "http://127.0.0.1:8080"
	HTTP *http.Client // nil: one with a 30 s timeout

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
// non-nil): (false, nil) for a 204, (true, nil) for any other 2xx.
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

// Register announces the worker and returns its identity.
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
	Name  string          // in the service's /workers and lease events
	Slots int             // jobs run concurrently; <=0 means 1
	Exec  runner.Executor // required: a LocalExecutor with the worker's own cache and timeout
	// PollMax caps the backoff after a failed or refused request
	// (doubling from pollMin); idle claims park. Default 2s.
	PollMax time.Duration
	Log     func(format string, args ...any) // operational notices, when non-nil
}

const (
	pollMin       = 100 * time.Millisecond // where every backoff starts
	resultRetries = 5                      // deliveries tried before the lease is left to expire
)

// Worker is the pull loop ccfit-worker runs: register, claim, execute
// under a heartbeat, report, repeat, until ctx is cancelled. The drain
// reports in-flight jobs abandoned, so the board requeues them at once
// instead of waiting out the lease TTL.
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
// until it succeeds or ctx ends. The slots share one identity: whoever
// notices the stale id first re-registers for all.
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

// Run executes the worker loop until ctx is cancelled; nil on a clean
// drain.
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

// runJob executes one claimed job under a heartbeat and reports it.
func (w *Worker) runJob(ctx context.Context, o WorkerOptions, workerID string, ttl time.Duration, claim ClaimResponse) {
	job, err := claim.Job.OneCell()
	if err != nil { // registry drift between builds: report, do not guess
		w.logf("dispatch: undecodable job on lease %s: %v", claim.LeaseID, err)
		w.report(o, workerID, claim.LeaseID, runner.WireResult{Err: err.Error()}, false)
		return
	}
	// The job context ends when the lease dies (the heartbeat notices)
	// or the worker drains.
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
					// Reclaimed (or we were forgotten): nobody will
					// accept the result.
					w.logf("dispatch: lease %s on %s gone; cancelling", claim.LeaseID, job)
					leaseLost = true
					cancel()
					return
				default: // transient: one renewal per TTL keeps the lease
					w.logf("dispatch: heartbeat for %s failed (%v)", job, err)
				}
			}
		}
	}()

	jr := o.Exec.Execute(jobCtx, job, nil)
	cancel()
	hbWG.Wait()

	switch {
	case leaseLost: // the board would drop the delivery
	case ctx.Err() != nil && jr.Err != nil: // draining: hand the job back now
		w.logf("dispatch: draining; abandoning %s", job)
		w.report(o, workerID, claim.LeaseID, runner.WireResult{}, true)
	default:
		if jr.Key == "" {
			// An executor without a cache keys nothing; the service's
			// version-skew guard needs this build's key all the same.
			jr.Key, _ = runner.JobKey(job)
		}
		w.report(o, workerID, claim.LeaseID, runner.WireFromResult(jr), false)
	}
}

// report delivers a result with bounded retries, on a context of its
// own: a drain must not stop the abandon message.
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
