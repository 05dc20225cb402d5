package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/dse"
	"repro/internal/jobspec"
)

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.withJob(s.handleStatus))
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.withJob(s.handleCancel))
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.withJob(s.handleEvents))
	s.mux.HandleFunc("GET /v1/jobs/{id}/front", s.withJob(s.handleFront))
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.withJob(s.handleResult))
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// withJob resolves the {id} path value; unknown ids are 404.
func (s *Server) withJob(h func(http.ResponseWriter, *http.Request, *Job)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		job, ok := s.Job(r.PathValue("id"))
		if !ok {
			writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
			return
		}
		h(w, r, job)
	}
}

// decodeSpec reads a request body that holds exactly one JSON object
// with no field jobspec.Spec lacks and nothing after it but whitespace.
func decodeSpec(body io.Reader) (jobspec.Spec, error) {
	var spec jobspec.Spec
	dec := json.NewDecoder(body)
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		return spec, err
	}
	if raw[0] != '{' {
		return spec, errors.New("a job spec is a JSON object")
	}
	if _, err := dec.Token(); err != io.EOF {
		return spec, errors.New("data after the job spec")
	}
	strict := json.NewDecoder(bytes.NewReader(raw))
	strict.DisallowUnknownFields()
	err := strict.Decode(&spec)
	return spec, err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	job, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	case errors.Is(err, ErrBusy):
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		w.Header().Set("Location", "/v1/jobs/"+job.ID)
		writeJSON(w, http.StatusAccepted, job.Status())
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, job *Job) {
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request, job *Job) {
	job.Cancel()
	writeJSON(w, http.StatusOK, job.Status())
}

func (s *Server) handleFront(w http.ResponseWriter, r *http.Request, job *Job) {
	writeJSON(w, http.StatusOK, job.Front())
}

// handleResult serves the final report bytes verbatim (they are the
// deterministic report encoding — byte-identical across a drain/resume
// cycle). While the job is queued or running it answers 202 with the
// job status; a terminal job without any report answers 409.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request, job *Job) {
	switch st := job.State(); st {
	case StateQueued, StateRunning:
		writeJSON(w, http.StatusAccepted, job.Status())
		return
	}
	report := job.Report()
	if report == nil {
		writeJSON(w, http.StatusConflict, job.Status())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(report)
}

// handleEvents streams the job's typed events: history first, then live
// until the job finishes or the client goes away. NDJSON by default;
// Accept: text/event-stream switches to SSE ("event: <kind>" +
// "data: <json>").
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, job *Job) {
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	writeEv := func(ev dse.Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if sse {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", data)
		}
		if err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	replay, live, cancel := job.hub.subscribe()
	defer cancel()
	for _, ev := range replay {
		if !writeEv(ev) {
			return
		}
	}
	for {
		select {
		case ev, ok := <-live:
			if !ok {
				return
			}
			if !writeEv(ev) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

// healthBody is the GET /v1/healthz response.
type healthBody struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining"`
	Jobs     int    `json:"jobs"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := healthBody{Status: "ok", Draining: s.draining, Jobs: len(s.jobs)}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}

// handleMetrics serves the server registry's snapshot with the per-job
// exploration metrics folded in: the streaming-front metrics
// (pareto.stream.*) and the durability incidents (durability.*) live on
// each job's own registry, so the server-wide view sums them across
// jobs, counters and gauges alike.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	for _, job := range s.Jobs() {
		js := job.reg.Snapshot()
		for name, v := range js.Counters {
			if aggregatedMetric(name) {
				snap.Counters[name] += v
			}
		}
		for name, v := range js.Gauges {
			if aggregatedMetric(name) {
				snap.Gauges[name] += v
			}
		}
	}
	writeJSON(w, http.StatusOK, snap)
}

func aggregatedMetric(name string) bool {
	return strings.HasPrefix(name, "pareto.stream.") || strings.HasPrefix(name, "durability.")
}
