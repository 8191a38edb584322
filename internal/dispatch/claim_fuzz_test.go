package dispatch

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzClaimRequest posts arbitrary bodies to POST /dispatch/claim on an
// empty board with a short lease TTL. "$W" in a body stands for a worker
// registered just before the request. The handler never panics, answers
// 200, 204, 400 or 409, and answers within the claim hold (LeaseTTL/3)
// plus slack — a wait_ms that overflows time.Duration included.
func FuzzClaimRequest(f *testing.F) {
	const ttl = 30 * time.Millisecond
	b := NewBoard(Options{LeaseTTL: ttl})
	defer b.Close()
	srv := httptest.NewServer(b.Handler())
	defer srv.Close()

	for _, seed := range []string{
		`{"worker_id":"$W","wait_ms":5}`,
		`{"worker_id":"$W"}`,
		`{"worker_id":"$W","wait_ms":9223372036854775807}`,
		`{"worker_id":"$W","wait_ms":-9223372036854775808}`,
		`{"worker_id":"$W","wait_ms":1e30}`,
		`{"worker_id":"w9999","wait_ms":5}`,
		`{"worker_id":`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		id, err := b.Register("fuzz", "")
		if err != nil {
			t.Fatal(err)
		}
		body = bytes.ReplaceAll(body, []byte("$W"), []byte(id))
		start := time.Now()
		resp, err := http.Post(srv.URL+"/dispatch/claim", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if took, limit := time.Since(start), ttl/3+2*time.Second; took > limit {
			t.Fatalf("claim answered after %v, want within %v", took, limit)
		}
		switch resp.StatusCode {
		case http.StatusOK, http.StatusNoContent, http.StatusBadRequest, http.StatusConflict:
		default:
			t.Fatalf("claim %q answered %s", strings.TrimSpace(string(body)), resp.Status)
		}
	})
}
