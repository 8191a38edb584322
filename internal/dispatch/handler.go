package dispatch

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Handler exposes the board's worker-facing protocol:
//
//	POST /dispatch/register   RegisterRequest  -> 200 RegisterResponse
//	POST /dispatch/claim      ClaimRequest     -> 200 ClaimResponse | 204 no work (after the hold)
//	POST /dispatch/heartbeat  HeartbeatRequest -> 200 | 410 lease gone
//	POST /dispatch/result     ResultRequest    -> 200 ResultResponse
//
// A claim carrying wait_ms parks on an empty board and is answered 200
// the moment a job is queued; 204 then means the hold (wait_ms, capped
// by the board) elapsed. Without wait_ms 204 is immediate. The request
// context releases a parked claim (client gone, server draining).
//
// Status mapping: 409 = unknown worker (re-register), 410 = lease gone
// (drop the job), 503 = board closed. A result delivered under a dead
// lease is NOT an error at the HTTP layer — it answers 200 with
// Accepted=false, because the worker did nothing wrong and has nothing
// to retry.
func (b *Board) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /dispatch/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decode(w, r, &req) {
			return
		}
		if req.Protocol != Protocol {
			httpError(w, http.StatusBadRequest, fmt.Errorf(
				"dispatch: worker speaks protocol %d, service speaks %d; upgrade the older build", req.Protocol, Protocol))
			return
		}
		id, err := b.Register(req.Name, req.Module)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, RegisterResponse{WorkerID: id, LeaseTTLMS: b.opt.LeaseTTL.Milliseconds()})
	})
	mux.HandleFunc("POST /dispatch/claim", func(w http.ResponseWriter, r *http.Request) {
		var req ClaimRequest
		if !decode(w, r, &req) {
			return
		}
		resp, ok, err := b.ClaimWait(r.Context(), req.WorkerID, time.Duration(req.WaitMS)*time.Millisecond)
		if err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("POST /dispatch/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decode(w, r, &req) {
			return
		}
		if err := b.Heartbeat(req.WorkerID, req.LeaseID); err != nil {
			httpError(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("POST /dispatch/result", func(w http.ResponseWriter, r *http.Request) {
		var req ResultRequest
		if !decode(w, r, &req) {
			return
		}
		err := b.Complete(req.WorkerID, req.LeaseID, req.Result, req.Abandon)
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, ResultResponse{Accepted: true})
		case errors.Is(err, ErrLeaseGone):
			// Duplicate or late delivery: acknowledged so the worker
			// stops retrying, not accepted so nothing double-counts.
			writeJSON(w, http.StatusOK, ResultResponse{Accepted: false})
		default:
			httpError(w, statusFor(err), err)
		}
	})
	return mux
}

// decode parses a bounded JSON body, reporting 400 on failure.
func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20))
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("dispatch: decoding request: %w", err))
		return false
	}
	return true
}

func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrUnknownWorker):
		return http.StatusConflict
	case errors.Is(err, ErrLeaseGone):
		return http.StatusGone
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v) // the connection is the caller's problem
}

func httpError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorBody{Error: err.Error()})
}
