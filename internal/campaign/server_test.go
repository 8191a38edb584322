package campaign

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func testServer(t *testing.T, opt Options) (*Scheduler, *Client) {
	t.Helper()
	s := openScheduler(t, t.TempDir(), opt)
	ts := httptest.NewServer(NewServer(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, &Client{Base: ts.URL, HTTP: ts.Client()}
}

// TestHTTPRoundTrip drives the full remote path a CLI uses: healthz,
// submit over HTTP, stream events to completion, fetch results, and
// verify they are byte-identical to a local serial run.
func TestHTTPRoundTrip(t *testing.T) {
	_, client := testServer(t, Options{Workers: 4})
	ctx := context.Background()
	if err := client.Healthz(ctx); err != nil {
		t.Fatalf("Healthz: %v", err)
	}

	sub := Submission{Spec: quickSpec()}
	jobs, err := sub.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var events []Event
	results, err := client.Run(ctx, func(ev Event) error {
		events = append(events, ev)
		return nil
	}, sub)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	if got, want := resultsDigest(t, results), localDigest(t, sub); got != want {
		t.Errorf("HTTP round-trip digest %s != local digest %s", got, want)
	}
	if len(events) == 0 || events[0].Type != "snapshot" {
		t.Errorf("stream did not open with a snapshot: %+v", events)
	}
	last := events[len(events)-1]
	if last.Type != "complete" || last.Status != StatusDone {
		t.Errorf("stream did not close with complete/done: %+v", last)
	}
}

// TestHTTPStatusAndList covers the read-side endpoints and their
// error shapes.
func TestHTTPStatusAndList(t *testing.T) {
	_, client := testServer(t, Options{Workers: 2})
	ctx := context.Background()

	v, err := client.Submit(ctx, Submission{Spec: quickSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}
	got, err := client.Status(ctx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != StatusDone || len(got.Jobs) != got.Total {
		t.Errorf("status view = %+v, want done with %d job rows", got, got.Total)
	}

	if _, err := client.Status(ctx, "c424242"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown id: %v, want 404", err)
	}
	if _, err := client.Cancel(ctx, "c424242"); err == nil || !strings.Contains(err.Error(), "404") {
		t.Errorf("cancel unknown id: %v, want 404", err)
	}
}

// TestHTTPRejectsBadSubmission: malformed JSON and invalid specs are
// 400s, and unknown fields are rejected (catching client/server schema
// drift early).
func TestHTTPRejectsBadSubmission(t *testing.T) {
	_, client := testServer(t, Options{Workers: 1})
	ctx := context.Background()

	bad := quickSpec()
	bad.Experiments = []string{"nope"}
	if _, err := client.Submit(ctx, Submission{Spec: bad}); err == nil {
		t.Error("invalid spec accepted")
	}

	for _, body := range []string{"{not json", `{"unknown_field": 1}`} {
		resp, err := client.http().Post(client.url("/campaigns"), "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %q -> %d, want 400", body, resp.StatusCode)
		}
	}
}

// TestHTTPMetrics: the counters endpoint reflects real activity.
func TestHTTPMetrics(t *testing.T) {
	_, client := testServer(t, Options{Workers: 2})
	ctx := context.Background()
	if _, err := client.Run(ctx, nil, Submission{Spec: quickSpec()}); err != nil {
		t.Fatal(err)
	}
	resp, err := client.http().Get(client.url("/metrics"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"campaigns_submitted", "jobs_done", "cache_hit_rate", "worker_utilization", "queue_depth", "workers"} {
		if _, ok := m[key]; !ok {
			t.Errorf("metrics missing %q: %v", key, m)
		}
	}
	if got, _ := m["campaigns_completed"].(float64); got != 1 {
		t.Errorf("campaigns_completed = %v, want 1", m["campaigns_completed"])
	}
}

// TestHTTPEventStreamTerminalSnapshot: subscribing to a finished
// campaign immediately yields snapshot + complete and closes.
func TestHTTPEventStreamTerminalSnapshot(t *testing.T) {
	_, client := testServer(t, Options{Workers: 2})
	ctx := context.Background()
	v, err := client.Submit(ctx, Submission{Spec: quickSpec()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Wait(ctx, v.ID, nil); err != nil {
		t.Fatal(err)
	}
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	var types []string
	if err := client.Events(sctx, v.ID, func(ev Event) error {
		types = append(types, ev.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) != 2 || types[0] != "snapshot" || types[1] != "complete" {
		t.Errorf("terminal stream = %v, want [snapshot complete]", types)
	}
}
