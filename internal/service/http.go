package service

// HTTP/JSON API (docs/SERVICE.md §2). Thin by design: every handler
// validates, calls one Service method, and encodes; all policy lives in
// the Service. Progress streams as Server-Sent Events so a plain HTTP
// client (curl, the smoke test) can follow a job without long-polling.
//
// Resilience surface (docs/RESILIENCE.md): /healthz is pure liveness,
// /readyz is readiness with detail (degraded disk, open breaker, full
// queue → 503 + JSON body). Overload rejections carry a Retry-After
// header derived from the queue drain rate. Submissions may carry an
// Idempotency-Key header; a retried POST with the same key returns the
// already-accepted job (200) instead of executing twice. Event streams
// honor Last-Event-ID: reconnecting clients resume after the last
// sequence number they saw.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
)

// maxRequestBytes bounds a submission body.
const maxRequestBytes = 1 << 20

// Handler returns the daemon's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/jobs/{id}/resume", s.handleResume)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	return mux
}

// apiError is the JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON encodes one response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError maps service errors onto HTTP statuses. Rejections wrapped
// in RetryAfterError additionally carry a Retry-After header.
func writeError(w http.ResponseWriter, err error) {
	var ra *RetryAfterError
	if errors.As(err, &ra) {
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(ra.After.Seconds()))))
	}
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrRateLimited):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrOversized):
		status = http.StatusUnprocessableEntity
	case errors.Is(err, ErrTerminal):
		status = http.StatusConflict
	case errors.Is(err, ErrClosed), errors.Is(err, ErrShed), errors.Is(err, ErrDegraded):
		status = http.StatusServiceUnavailable
	case errors.Is(err, ErrStorage):
		status = http.StatusInternalServerError
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

// handleHealth is pure liveness: the process is up and serving.
func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is readiness: 200 while the daemon admits work, 503 with
// the reasons (degraded disk, open breaker, full queue, shutdown) while
// it does not. The JSON body is the same either way so operators see
// queue depth and breaker state on every poll.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	rd := s.Readiness()
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rd)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeError(w, fmt.Errorf("service: decoding submission: %w", err))
		return
	}
	st, dup, err := s.SubmitIdempotent(spec, r.Header.Get("Idempotency-Key"))
	if err != nil {
		writeError(w, err)
		return
	}
	if dup {
		// The key already named an accepted job: report it, don't re-create.
		writeJSON(w, http.StatusOK, st)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Service) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.List(r.URL.Query().Get("tenant")))
}

func (s *Service) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeError(w, err)
		return
	}
	st, err := s.Get(id)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Service) handleResume(w http.ResponseWriter, r *http.Request) {
	st, err := s.Resume(r.PathValue("id"))
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

// handleEvents streams a job's lifecycle as Server-Sent Events: an
// initial state snapshot, then every event the job publishes (progress,
// checkpoint, retry, quarantine, resume, state) until the job reaches a
// terminal state or the client disconnects. Event data is the JSON
// Event; each live frame carries an id: line with the per-job sequence
// number, and a reconnecting client sends it back as Last-Event-ID to
// resume after the frames it already has. A client that fell behind the
// retained history receives one "dropped" frame accounting for the gap.
func (s *Service) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	afterSeq := int64(-1)
	if lei := r.Header.Get("Last-Event-ID"); lei != "" {
		n, err := strconv.ParseUint(lei, 10, 63)
		if err != nil {
			writeError(w, fmt.Errorf("service: bad Last-Event-ID %q: %w", lei, err))
			return
		}
		afterSeq = int64(n)
	}
	sub, err := s.Subscribe(id, afterSeq)
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, fmt.Errorf("service: streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	// Snapshot first so a late subscriber knows where the job stands
	// before the live stream picks up. Unnumbered (Seq 0): it is not part
	// of the resumable sequence.
	if st, err := s.Get(id); err == nil {
		writeSSE(w, Event{Type: "state", JobID: id, State: st.State, Progress: st.Progress})
		flusher.Flush()
	}
	for {
		e, ok := sub.Next(r.Context())
		if !ok {
			return
		}
		writeSSE(w, e)
		flusher.Flush()
	}
}

// writeSSE frames one event; numbered frames carry an id: line for
// Last-Event-ID resumption.
func writeSSE(w http.ResponseWriter, e Event) {
	data, err := json.Marshal(e)
	if err != nil {
		return
	}
	if e.Seq > 0 {
		fmt.Fprintf(w, "id: %d\n", e.Seq)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
}
