package campaign

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/runner"
)

// NewServer wires the scheduler's HTTP+JSON surface:
//
//	POST   /campaigns            submit (body: Submission) -> 201 View
//	GET    /campaigns            list campaigns
//	GET    /campaigns/{id}       status + per-job states
//	GET    /campaigns/{id}/results  per-cell results (JSON)
//	GET    /campaigns/{id}/events   progress stream (JSON lines)
//	DELETE /campaigns/{id}       cancel
//	GET    /metrics              counters (JSON)
//	GET    /healthz              liveness
//
// When the scheduler carries a dispatch board, the worker protocol and
// fleet view mount alongside:
//
//	POST   /dispatch/{register,claim,heartbeat,result}  worker protocol
//	GET    /workers              connected worker fleet (JSON)
func NewServer(s *Scheduler) http.Handler {
	mux := http.NewServeMux()
	if b := s.Board(); b != nil {
		mux.Handle("POST /dispatch/", b.Handler())
		mux.HandleFunc("GET /workers", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, b.Workers())
		})
	}
	mux.HandleFunc("POST /campaigns", func(w http.ResponseWriter, r *http.Request) {
		var sub Submission
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sub); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("decoding submission: %w", err))
			return
		}
		v, err := s.Submit(sub)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Location", "/campaigns/"+v.ID)
		writeJSON(w, http.StatusCreated, v)
	})
	mux.HandleFunc("GET /campaigns", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.View(r.PathValue("id"), true)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("DELETE /campaigns/{id}", func(w http.ResponseWriter, r *http.Request) {
		v, err := s.Cancel(r.PathValue("id"))
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, v)
	})
	mux.HandleFunc("GET /campaigns/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		results, err := s.Results(r.PathValue("id"))
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		out := make([]cellResult, len(results))
		for i, jr := range results {
			out[i] = cellResult{
				Index: i, Experiment: jr.Job.ExperimentID(), Scheme: jr.Job.Scheme, Seed: jr.Job.Seed,
				WireResult: runner.WireFromResult(jr),
			}
		}
		writeJSON(w, http.StatusOK, out)
	})
	mux.HandleFunc("GET /campaigns/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		snap, ch, cancel, err := s.Subscribe(r.PathValue("id"))
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		defer cancel()
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		flusher, _ := w.(http.Flusher)
		enc := json.NewEncoder(w)
		send := func(ev Event) bool {
			if err := enc.Encode(ev); err != nil {
				return false
			}
			if flusher != nil {
				flusher.Flush()
			}
			return true
		}
		first := Event{Campaign: snap.ID, Type: "snapshot", Status: snap.Status,
			Done: snap.Done + snap.Cached + snap.Failed + snap.Cancelled, Total: snap.Total}
		if !send(first) {
			return
		}
		if snap.Status.Terminal() {
			send(Event{Campaign: snap.ID, Type: "complete", Status: snap.Status,
				Done: first.Done, Total: snap.Total})
			return
		}
		heartbeat := time.NewTicker(15 * time.Second)
		defer heartbeat.Stop()
		for {
			select {
			case ev, ok := <-ch:
				if !ok {
					// Scheduler drained mid-stream: report the current
					// status so the client can decide to poll.
					v, verr := s.View(snap.ID, false)
					if verr == nil {
						send(Event{Campaign: snap.ID, Type: "complete", Status: v.Status,
							Done: v.Done + v.Cached + v.Failed + v.Cancelled, Total: v.Total})
					}
					return
				}
				if !send(ev) {
					return
				}
				if ev.Type == "complete" {
					return
				}
			case <-heartbeat.C:
				if !send(Event{Campaign: snap.ID, Type: "heartbeat"}) {
					return
				}
			case <-r.Context().Done():
				return
			}
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := s.Metrics().Snapshot(s.QueueDepth())
		if b := s.Board(); b != nil {
			// Board counters merge under the same flat namespace; the
			// two sets share no keys by construction.
			for k, v := range b.Snapshot() {
				snap[k] = v
			}
		}
		writeJSON(w, http.StatusOK, snap)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

func statusFor(err error) int {
	if errors.Is(err, ErrNotFound) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // the connection is the caller's problem
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
