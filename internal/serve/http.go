package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
)

// Handler returns the server's HTTP API:
//
//	POST   /v1/jobs              submit one JobSpec      → 202 Info, 429 shed, 400 bad spec
//	GET    /v1/jobs?tenant=x     list jobs               → 200 []Info
//	GET    /v1/jobs/{id}         job status              → 200 Info, 404
//	GET    /v1/jobs/{id}/result  finished job's outcome  → 200 Info, 409 not done, 404
//	POST   /v1/jobs/{id}/suspend park at epoch boundary  → 202 Info, 409 not suspendable, 404
//	POST   /v1/jobs/{id}/resume  requeue a suspended job → 202 Info, 409 not suspended, 404
//	DELETE /v1/jobs/{id}         cancel                  → 202 Info, 409 terminal, 404
//	GET    /v1/metrics           metrics snapshot        → 200 metrics.Snapshot
//	GET    /v1/healthz           occupancy summary       → 200 Stats
//
// Every error body is {"error": "..."}; 429 responses also carry a
// Retry-After header in whole seconds. Suspension of a running job is
// asynchronous: the 202 acknowledges the park request, and the job
// reaches "suspended" at its next epoch boundary.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /v1/jobs/{id}/suspend", s.handleSuspend)
	mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleResume)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // headers are out; nothing useful left to do on error
}

// writeError maps the server's error taxonomy onto HTTP statuses.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		secs := int(math.Ceil(shed.RetryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprint(secs))
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrBadSpec):
		status = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrNotFinished), errors.Is(err, ErrAlreadyFinished),
		errors.Is(err, ErrAlreadySuspended), errors.Is(err, ErrNotSuspended):
		status = http.StatusConflict
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, fmt.Errorf("%w: %v", ErrBadSpec, err))
		return
	}
	// One spec per body: anything after it but whitespace is refused.
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, fmt.Errorf("%w: trailing data after the job spec", ErrBadSpec))
		return
	}
	inf, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, inf)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List(r.URL.Query().Get("tenant")))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	inf, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, inf)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	inf, err := s.Result(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, inf)
}

func (s *Server) handleSuspend(w http.ResponseWriter, r *http.Request) {
	s.handleLifecycle(w, r, s.Suspend)
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	s.handleLifecycle(w, r, s.Resume)
}

// handleLifecycle applies a state-transition method and answers 202
// with the job's fresh snapshot.
func (s *Server) handleLifecycle(w http.ResponseWriter, r *http.Request, op func(string) error) {
	id := r.PathValue("id")
	if err := op(id); err != nil {
		writeError(w, err)
		return
	}
	inf, err := s.Status(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, inf)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.handleLifecycle(w, r, s.Cancel)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.reg.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
