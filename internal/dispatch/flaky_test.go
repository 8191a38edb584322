package dispatch_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Chaos transports for fault-injection tests. Both wrap an
// http.RoundTripper and are deterministic by construction — failures
// fire on request counts, not clocks or randomness — so a chaos test
// replays identically under -race and across machines.

// ErrTransportCut is what a severed transport returns.
var ErrTransportCut = errors.New("dispatch: transport cut")

// CutTransport forwards requests until Kill is called, then fails every
// request. It simulates a SIGKILLed or partitioned worker in-process:
// after Kill the worker's heartbeats stop landing, its lease expires
// and the board reclaims the job — exactly the external-kill sequence,
// but deterministic and race-detector-friendly.
type CutTransport struct {
	// Next is the underlying transport; nil uses
	// http.DefaultTransport.
	Next http.RoundTripper

	mu   sync.Mutex
	dead bool // guarded by mu
}

// Kill severs the transport. Safe to call concurrently and repeatedly.
func (t *CutTransport) Kill() {
	t.mu.Lock()
	t.dead = true
	t.mu.Unlock()
}

// RoundTrip implements http.RoundTripper.
func (t *CutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	dead := t.dead
	t.mu.Unlock()
	if dead {
		return nil, fmt.Errorf("%w: %s %s", ErrTransportCut, req.Method, req.URL.Path)
	}
	next := t.Next
	if next == nil {
		next = http.DefaultTransport
	}
	return next.RoundTrip(req)
}

// FlakyTransport injects deterministic transport faults by request
// ordinal: the Nth request overall (1-based) can be dropped before it
// is sent, have its response truncated mid-body, be duplicated (sent
// twice, first response discarded — the retried-POST case), or
// delayed. Unlisted requests pass through untouched.
type FlakyTransport struct {
	// Next is the underlying transport; nil uses
	// http.DefaultTransport.
	Next http.RoundTripper
	// Drop lists request ordinals that fail before reaching the wire.
	Drop []int
	// Truncate lists ordinals whose response body is cut to half its
	// bytes and then errors — the torn-response case.
	Truncate []int
	// Duplicate lists ordinals that are sent twice; the caller sees
	// only the second response. Exercises board idempotency under
	// at-least-once delivery.
	Duplicate []int
	// Delay lists ordinals held back for DelayBy before sending.
	Delay   []int
	DelayBy time.Duration

	mu sync.Mutex
	n  int // guarded by mu
}

// Requests reports how many requests the transport has seen.
func (t *FlakyTransport) Requests() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

func contains(list []int, n int) bool {
	for _, v := range list {
		if v == n {
			return true
		}
	}
	return false
}

// RoundTrip implements http.RoundTripper.
func (t *FlakyTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	t.n++
	n := t.n
	t.mu.Unlock()

	next := t.Next
	if next == nil {
		next = http.DefaultTransport
	}
	if contains(t.Drop, n) {
		return nil, fmt.Errorf("dispatch: flaky transport dropped request %d (%s %s)", n, req.Method, req.URL.Path)
	}
	if contains(t.Delay, n) && t.DelayBy > 0 {
		time.Sleep(t.DelayBy)
	}
	if contains(t.Duplicate, n) {
		// First send: the response is discarded, as if the client timed
		// out and retried. Requires a replayable body.
		if req.GetBody != nil {
			if first, err := req.Clone(req.Context()), error(nil); err == nil {
				if first.Body, err = req.GetBody(); err == nil {
					if resp, err := next.RoundTrip(first); err == nil {
						_, _ = io.Copy(io.Discard, resp.Body)
						_ = resp.Body.Close() // discarded response; nothing to report
					}
				}
			}
			if body, err := req.GetBody(); err == nil {
				req = req.Clone(req.Context())
				req.Body = body
			}
		}
	}
	resp, err := next.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if contains(t.Truncate, n) {
		data, rerr := io.ReadAll(resp.Body)
		_ = resp.Body.Close() // body fully read; the replacement below is the response now
		if rerr != nil {
			return nil, rerr
		}
		resp.Body = io.NopCloser(io.MultiReader(
			bytes.NewReader(data[:len(data)/2]),
			errReader{fmt.Errorf("dispatch: flaky transport tore response %d mid-body", n)},
		))
	}
	return resp, nil
}

// errReader yields its error on first read.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }
