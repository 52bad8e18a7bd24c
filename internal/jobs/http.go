package jobs

// The HTTP face of the job service, registered onto the serve.NewMux router
// (Go 1.22 method+wildcard patterns):
//
//	POST   /jobs               submit → {"id": "job-1", "state": "queued"}
//	GET    /jobs               list all jobs (submission order)
//	GET    /jobs/{id}          poll status (+ live progress while running)
//	GET    /jobs/{id}/result   fetch the result of a finished job
//	POST   /jobs/{id}/cancel   request cancellation
//	POST   /jobs/queue/pause   stop dispatching (admin/maintenance)
//	POST   /jobs/queue/resume  resume dispatching
//	GET    /debug/jobs         per-tenant summary + structured event-log tail
//
// Handlers translate the Server's sentinel errors onto statuses: queue full
// → 429, shutting down → 503, unknown job → 404, job evicted from the
// retention ring → 410, bad request → 400.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Routes registers the job API onto mux.
func (s *Server) Routes(mux *http.ServeMux) {
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("POST /jobs/queue/pause", s.handlePause)
	mux.HandleFunc("POST /jobs/queue/resume", s.handleResume)
	mux.HandleFunc("GET /debug/jobs", s.handleDebug)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are out; nothing left to signal
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeLookupErr answers a failed job lookup: 410 for an evicted id, else 404.
func writeLookupErr(w http.ResponseWriter, err error) {
	code := http.StatusNotFound
	if errors.Is(err, ErrEvicted) {
		code = http.StatusGone
	}
	writeErr(w, code, err)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxBodyBytes+1))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("jobs: reading request: %w", err))
		return
	}
	req, pat, err := ParseSubmit(body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	id, err := s.Submit(req, pat)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			writeErr(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrClosed):
			writeErr(w, http.StatusServiceUnavailable, err)
		default:
			writeErr(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id, "state": string(StateQueued)})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.List()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeLookupErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	res, err := s.Result(id)
	if err != nil {
		writeLookupErr(w, err)
		return
	}
	if res == nil {
		st, err := s.Status(id)
		switch {
		case err != nil: // evicted since the lookup above
			writeLookupErr(w, err)
		case st.State.Terminal():
			writeErr(w, http.StatusGone, fmt.Errorf("jobs: job %s finished %s with no result", id, st.State))
		default:
			writeErr(w, http.StatusConflict, fmt.Errorf("jobs: job %s is still %s", id, st.State))
		}
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := s.Cancel(id)
	if err != nil {
		writeLookupErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "state": string(st)})
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	s.Pause()
	writeJSON(w, http.StatusOK, map[string]string{"queue": "paused"})
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	s.Resume()
	writeJSON(w, http.StatusOK, map[string]string{"queue": "running"})
}
