package campaign

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/runner"
)

// Client talks to a ccfit-serve instance. The zero HTTP client uses
// http.DefaultClient; Base is the server root, e.g.
// "http://127.0.0.1:8080".
type Client struct {
	Base string
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// do issues one JSON request and decodes the response into out
// (skipped when out is nil). Non-2xx responses decode the server's
// error payload.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		var e struct {
			Error string `json:"error"`
		}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
		if jerr := json.Unmarshal(data, &e); jerr == nil && e.Error != "" {
			return fmt.Errorf("campaign: server %s %s: %s (%s)", method, path, e.Error, resp.Status)
		}
		return fmt.Errorf("campaign: server %s %s: %s", method, path, resp.Status)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Healthz checks the server is up.
func (c *Client) Healthz(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Submit posts a campaign and returns its initial view.
func (c *Client) Submit(ctx context.Context, sub Submission) (View, error) {
	var v View
	err := c.do(ctx, http.MethodPost, "/campaigns", sub, &v)
	return v, err
}

// Status fetches a campaign's current view (with job rows).
func (c *Client) Status(ctx context.Context, id string) (View, error) {
	var v View
	err := c.do(ctx, http.MethodGet, "/campaigns/"+id, nil, &v)
	return v, err
}

// Cancel requests cancellation.
func (c *Client) Cancel(ctx context.Context, id string) (View, error) {
	var v View
	err := c.do(ctx, http.MethodDelete, "/campaigns/"+id, nil, &v)
	return v, err
}

// Events streams a campaign's progress, invoking fn per event until
// the stream ends (terminal event), fn returns an error, or ctx is
// cancelled. Heartbeats are filtered out.
func (c *Client) Events(ctx context.Context, id string, fn func(Event) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/campaigns/"+id+"/events"), nil)
	if err != nil {
		return err
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("campaign: events stream: %s", resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("campaign: bad event line: %w", err)
		}
		if ev.Type == "heartbeat" {
			continue
		}
		if fn != nil {
			if err := fn(ev); err != nil {
				return err
			}
		}
	}
	return sc.Err()
}

// waitGrace bounds how long Wait tolerates a completely unreachable
// server (restart window) before giving up: consecutive failed polls
// at waitPoll intervals.
const (
	waitPoll  = 500 * time.Millisecond
	waitGrace = 120 // ~60 s of consecutive unreachability
)

// Wait blocks until the campaign reaches a terminal status, streaming
// events through fn (may be nil) while the stream lasts and falling
// back to polling when it drops. A server restart mid-campaign is
// ridden out: the journal resumes the campaign on the other side, and
// Wait keeps re-subscribing for up to a minute of consecutive
// unreachability before reporting the errors.
func (c *Client) Wait(ctx context.Context, id string, fn func(Event) error) (View, error) {
	failures := 0
	for {
		streamErr := c.Events(ctx, id, fn)
		if ctx.Err() != nil {
			return View{}, ctx.Err()
		}
		v, verr := c.Status(ctx, id)
		switch {
		case verr == nil && v.Status.Terminal():
			return v, nil
		case verr == nil:
			failures = 0 // reachable, just not done: keep streaming
		default:
			failures++
			if failures >= waitGrace {
				return View{}, errors.Join(streamErr, verr)
			}
		}
		// Stream dropped mid-campaign (restart, proxy timeout): pause
		// briefly, then re-subscribe.
		select {
		case <-ctx.Done():
			return View{}, ctx.Err()
		case <-time.After(waitPoll):
		}
	}
}

// Results fetches the campaign's per-cell results and reassembles them
// as []runner.JobResult against the locally expanded job list — the
// caller expands the same Submission with the same deterministic
// function, so index i is the same cell on both sides. Cells are
// verified against the local expansion (experiment, scheme, seed) and
// a mismatch is an error: it means client and server disagree about
// the spec.
func (c *Client) Results(ctx context.Context, id string, jobs []runner.Job) ([]runner.JobResult, error) {
	var remote []cellResult
	if err := c.do(ctx, http.MethodGet, "/campaigns/"+id+"/results", nil, &remote); err != nil {
		return nil, err
	}
	if len(remote) != len(jobs) {
		return nil, fmt.Errorf("campaign: server returned %d cells, local spec expands to %d — client/server spec mismatch", len(remote), len(jobs))
	}
	out := make([]runner.JobResult, len(jobs))
	for i, rr := range remote {
		job := jobs[i]
		if rr.Experiment != job.ExperimentID() || rr.Scheme != job.Scheme || rr.Seed != job.Seed {
			return nil, fmt.Errorf("campaign: cell %d is %s/%s seed=%d on the server but %s locally — client/server spec mismatch",
				i, rr.Experiment, rr.Scheme, rr.Seed, job)
		}
		out[i] = rr.JobResult(job)
	}
	return out, nil
}

// Run is the remote equivalent of runner.Run over the same specs: it
// submits every campaign up front (so the server's pool interleaves
// them), waits for each in order, streaming progress through fn (may be
// nil), and returns the reassembled job results, submission by
// submission, in cell order. Every submission is validated before the
// first is sent.
// When ctx is cancelled the unfinished campaigns are cancelled on the
// server, so their queued jobs are dropped.
func (c *Client) Run(ctx context.Context, fn func(Event) error, subs ...Submission) ([]runner.JobResult, error) {
	if err := c.Healthz(ctx); err != nil {
		return nil, fmt.Errorf("server %s unreachable: %w", c.Base, err)
	}
	jobs := make([][]runner.Job, len(subs))
	for i, sub := range subs {
		var err error
		if jobs[i], err = sub.Jobs(); err != nil {
			return nil, err
		}
	}
	ids := make([]string, len(subs))
	for i, sub := range subs {
		v, err := c.Submit(ctx, sub)
		if err != nil {
			return nil, err
		}
		ids[i] = v.ID
	}
	var out []runner.JobResult
	for i, id := range ids {
		if _, err := c.Wait(ctx, id, fn); err != nil {
			if ctx.Err() != nil {
				// In-flight jobs drain on the server. Best-effort: the
				// signal may race the server's own shutdown.
				cctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				for _, rest := range ids[i:] {
					_, _ = c.Cancel(cctx, rest)
				}
				cancel()
			}
			return nil, err
		}
		rs, err := c.Results(ctx, id, jobs[i])
		if err != nil {
			return nil, err
		}
		out = append(out, rs...)
	}
	return out, nil
}
