package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"rispp/internal/explore"
	"rispp/internal/fabric"
)

// handleJobs answers POST /v1/jobs (create an async sweep job) and GET
// /v1/jobs (list retained jobs). A job is a /v1/explore sweep detached
// from its HTTP request: validation, admission and execution (fleet or
// local) are identical, but the record stream accumulates in the job store
// where any number of clients can follow and resume it.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.jobs.List())
		return
	case http.MethodPost:
	default:
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}
	jobs, timeout, ok := s.sweepRequest(w, r)
	if !ok {
		return
	}
	tenant := tenantFrom(r.Context())

	// The job's sweep is parented to the server, not the request: the
	// client may disconnect immediately and stream the records later.
	jctx, cancel := context.WithTimeout(s.jobsCtx, timeout)
	job, err := s.jobs.Create(len(jobs), cancel)
	if err != nil {
		cancel()
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	s.jobsWG.Add(1)
	go func() {
		defer s.jobsWG.Done()
		defer cancel()
		job.Finish(s.sweep(jctx, tenant, jobs, func(line []byte) error {
			job.Append(append([]byte(nil), line...))
			return nil
		}, job.Shard))
	}()

	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	writeJSON(w, http.StatusAccepted, job.Status())
}

// handleJob answers GET/DELETE /v1/jobs/{id} and GET /v1/jobs/{id}/stream.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, hasSub := strings.Cut(rest, "/")
	job, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no job %q", id)
		return
	}
	switch {
	case !hasSub && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, job.Status())
	case !hasSub && r.Method == http.MethodDelete:
		job.Cancel()
		writeJSON(w, http.StatusOK, job.Status())
	case hasSub && sub == "stream" && r.Method == http.MethodGet:
		s.streamJob(w, r, job)
	case hasSub && sub != "stream":
		writeError(w, http.StatusNotFound, "no job route %q", r.URL.Path)
	default:
		w.Header().Set("Allow", "GET, DELETE")
		writeError(w, http.StatusMethodNotAllowed, "use GET or DELETE")
	}
}

// streamJob answers GET /v1/jobs/{id}/stream?offset=N: the job's record
// lines from record offset N on, streamed live until the job is terminal
// and fully delivered. A disconnected client resumes by asking for the
// offset it had reached — the lines are retained in the store, so nothing
// re-simulates.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, job *fabric.Job) {
	offset := 0
	if q := r.URL.Query().Get("offset"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "bad offset %q", q)
			return
		}
		offset = n
	}
	st := job.Status()
	h := w.Header()
	h.Set("Content-Type", "application/x-ndjson")
	h.Set("X-Points", strconv.Itoa(st.Total))
	h.Set("X-Offset", strconv.Itoa(offset))
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // commit the headers before the first record lands
	}
	i := offset
	for {
		lines, state, changed := job.LinesFrom(i)
		for _, line := range lines {
			if _, err := w.Write(line); err != nil {
				return
			}
			i++
		}
		if len(lines) > 0 && flusher != nil {
			flusher.Flush()
		}
		if len(lines) == 0 {
			if state.Terminal() {
				return
			}
			select {
			case <-changed:
			case <-r.Context().Done():
				return
			}
		}
	}
}

// handleCache answers the cache-peer protocol: GET/PUT /v1/cache/{hash},
// the raw content-addressed entries of the explore result cache. Bodies
// are validated against the content address on PUT, so a peer can fill the
// cache but never poison it.
func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	hash := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
	if !explore.ValidHash(hash) {
		writeError(w, http.StatusBadRequest, "malformed content address")
		return
	}
	if s.peerCache == nil {
		writeError(w, http.StatusNotFound, "no result cache configured on this node")
		return
	}
	switch r.Method {
	case http.MethodGet:
		b, ok := s.peerCache.GetRaw(hash)
		if !ok {
			writeError(w, http.StatusNotFound, "no entry %s", hash)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(b) //nolint:errcheck // client disconnects are not actionable
	case http.MethodPut:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err != nil {
			writeError(w, http.StatusBadRequest, "read body: %v", err)
			return
		}
		if !explore.ValidEntryForHash(hash, body) {
			writeError(w, http.StatusBadRequest, "entry does not match content address")
			return
		}
		if err := s.peerCache.PutRaw(hash, body); err != nil {
			writeError(w, http.StatusInternalServerError, "store entry: %v", err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, PUT")
		writeError(w, http.StatusMethodNotAllowed, "use GET or PUT")
	}
}

// workerRegistration is the body of POST /v1/workers.
type workerRegistration struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// handleWorkers manages the fleet registry of a coordinator node: POST
// registers (or revives) a worker, GET lists the registry, DELETE ?id=
// removes one.
func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeError(w, http.StatusNotFound, "this node is not a fleet coordinator")
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.coord.Workers())
	case http.MethodPost:
		var reg workerRegistration
		if err := s.decodeJSON(w, r, &reg); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: %v", err)
			return
		}
		if err := s.coord.Register(reg.ID, reg.URL); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.logf("serve: fleet worker %s registered at %s", reg.ID, reg.URL)
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		id := r.URL.Query().Get("id")
		if id == "" {
			writeError(w, http.StatusBadRequest, "missing id")
			return
		}
		s.coord.Remove(id)
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, POST, DELETE")
		writeError(w, http.StatusMethodNotAllowed, "use GET, POST or DELETE")
	}
}

// writeJSON renders a JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // headers sent; nothing left to do
}
