package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rispp/internal/explore"
	"rispp/internal/fabric"
	"rispp/internal/isa"
	"rispp/internal/scenario"
	"rispp/internal/sched"
	"rispp/internal/search"
	"rispp/internal/sim"
)

// CollectSpec selects the measurement artifacts of a simulate request.
type CollectSpec struct {
	// HistogramBucket, when > 0, collects per-SI execution histograms with
	// this bucket width in cycles (the paper uses 100000).
	HistogramBucket int64 `json:"histogram_bucket,omitempty"`
	// Timeline records SI latency steps (Figure 8 lines).
	Timeline bool `json:"timeline,omitempty"`
}

func (c CollectSpec) options() sim.Options {
	return sim.Options{HistogramBucket: c.HistogramBucket, Timeline: c.Timeline}
}

// cacheKey extends a canonical point key so that runs collecting different
// artifacts never share a response body. A run that collects nothing is
// keyed by the point key itself; a suffixed key cannot equal a point key,
// which always ends in '}'.
func (c CollectSpec) cacheKey(pointKey string) string {
	if c == (CollectSpec{}) {
		return pointKey
	}
	return pointKey + "|h" + strconv.FormatInt(c.HistogramBucket, 10) + ",t" + strconv.FormatBool(c.Timeline)
}

// SimulateRequest is the body of POST /v1/simulate: the design-point knobs
// of explore.Point flattened at the top level, plus collection options and
// an optional deadline.
type SimulateRequest struct {
	explore.Point
	Collect CollectSpec `json:"collect,omitempty"`
	// TimeoutMS bounds the simulation wall time; 0 selects the server
	// default. The request fails with 504 when the deadline expires.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SIStat is the per-SI accounting of a simulate response, one entry per
// executed SI in ascending SI-id order.
type SIStat struct {
	SI           int    `json:"si"`
	Name         string `json:"name"`
	Executions   int64  `json:"execs"`
	SWExecutions int64  `json:"sw_execs"`
	HWExecutions int64  `json:"hw_execs"`
}

// SIHistogram is one SI's execution histogram (when requested).
type SIHistogram struct {
	SI     int     `json:"si"`
	Name   string  `json:"name"`
	Counts []int64 `json:"counts"`
}

// TimelineStep is one SI latency step (when a timeline is requested).
type TimelineStep struct {
	SI      int   `json:"si"`
	Cycle   int64 `json:"t"`
	Latency int   `json:"lat"`
}

// SimulateResponse is the body of a successful POST /v1/simulate. It is a
// pure function of the normalized request, so responses are cacheable and
// byte-stable across runs and server instances.
type SimulateResponse struct {
	// Point is the normalized design point that was simulated (defaults
	// filled in), so clients see the canonical form of what they asked for.
	Point   explore.Point `json:"point"`
	Runtime string        `json:"runtime"`

	TotalCycles  int64 `json:"cycles"`
	StallCycles  int64 `json:"stall_cycles"`
	SWExecutions int64 `json:"sw_execs"`
	HWExecutions int64 `json:"hw_execs"`
	Phases       int   `json:"phases"`

	SIs []SIStat `json:"sis"`

	// HistogramBucket and Histograms are present when the request collected
	// histograms; Timeline when it collected latency steps.
	HistogramBucket int64          `json:"histogram_bucket,omitempty"`
	Histograms      []SIHistogram  `json:"histograms,omitempty"`
	Timeline        []TimelineStep `json:"timeline,omitempty"`
}

// ExploreRequest is the body of POST /v1/explore: a sweep spec — the JSON
// form of explore.Spec, flat, so a risppexplore -spec file posts verbatim —
// plus an optional deadline. The response streams one explore.Record per
// line, in job order, byte-identical to risppexplore's JSONL output for
// the same spec.
type ExploreRequest struct {
	explore.Spec
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// apiError is the JSON error body of every non-2xx response.
type apiError struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...)}) //nolint:errcheck // headers sent; nothing left to do
}

// decodeJSON reads a request body strictly: size-capped, unknown fields
// rejected, trailing garbage rejected.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// validatePoint applies the serving layer's checks on top of the canonical
// ones of explore.Spec.Expand: scheduler must name a known run-time system,
// a scenario must name a shipped scenario, and the workload must stay
// within the configured size cap.
func (s *Server) validatePoint(p explore.Point) error {
	switch p.Scheduler {
	case "Molen", "molen", "software":
	default:
		if _, err := sched.New(p.Scheduler); err != nil {
			return fmt.Errorf("unknown scheduler %q", p.Scheduler)
		}
	}
	if p.Scenario != "" {
		if _, ok := scenario.Find(p.Scenario); !ok {
			return fmt.Errorf("unknown scenario %q (known: %s)", p.Scenario, strings.Join(scenario.Names(), ", "))
		}
	}
	if p.Frames > s.cfg.MaxFrames {
		return fmt.Errorf("frames %d exceeds server limit %d", p.Frames, s.cfg.MaxFrames)
	}
	if p.NumACs > maxACs {
		return fmt.Errorf("acs %d exceeds server limit %d", p.NumACs, maxACs)
	}
	return nil
}

// isaFor returns the instruction set a point's run executes under: the
// named scenario's (possibly merged multi-app) ISA, or the server's base
// ISA. Call only after validatePoint.
func (s *Server) isaFor(p explore.Point) *isa.ISA {
	if p.Scenario != "" {
		if sc, ok := scenario.Find(p.Scenario); ok {
			return sc.ISA()
		}
	}
	return s.isa
}

// maxACs caps the Atom-Container budget a request may ask for; the paper
// evaluates 5..24 and the selection cost grows with the budget.
const maxACs = 128

// timeout clamps a requested deadline to the server's bounds.
func (s *Server) timeout(ms int64) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if d <= 0 || d > s.cfg.MaxTimeout {
		if d > s.cfg.MaxTimeout {
			return s.cfg.MaxTimeout
		}
		return s.cfg.DefaultTimeout
	}
	return d
}

// handleSimulate answers POST /v1/simulate.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req SimulateRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "negative timeout_ms")
		return
	}
	// Expand a single-point spec: this normalizes the point to its
	// canonical form and applies the engine's own validation.
	jobs, err := explore.Spec{Points: []explore.Point{req.Point}}.Expand()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid point: %v", err)
		return
	}
	p := jobs[0]
	if err := s.validatePoint(p); err != nil {
		writeError(w, http.StatusBadRequest, "invalid point: %v", err)
		return
	}

	tenant := tenantFrom(r.Context())
	key := req.Collect.cacheKey(p.Key())
	body, hit, err := s.cache.do(r.Context(), key, func() ([]byte, error) {
		return s.simulate(r.Context(), tenant, p, req.Collect, s.timeout(req.TimeoutMS))
	})
	if hit {
		s.met.cacheHits.Add(1)
	} else {
		s.met.cacheMiss.Add(1)
	}
	if err != nil {
		s.writeSimulateError(w, r, err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("X-Cache", cacheHeader(hit))
	h.Set("X-Point-Hash", p.Hash())
	w.Write(body) //nolint:errcheck // client disconnects are not actionable
}

func cacheHeader(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

func (s *Server) writeSimulateError(w http.ResponseWriter, r *http.Request, err error) {
	var shed *shedError
	switch {
	case errors.As(err, &shed):
		retry := shed.retryAfter
		if s.cfg.RetryAfter > retry {
			retry = s.cfg.RetryAfter
		}
		w.Header().Set("Retry-After", strconv.Itoa(int((retry+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests, "%s", shed.detail)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, "simulation deadline exceeded: %v", err)
	case r.Context().Err() != nil:
		// The client went away; the status is never seen, but finish the
		// exchange coherently.
		writeError(w, http.StatusServiceUnavailable, "client canceled: %v", err)
	default:
		writeError(w, http.StatusInternalServerError, "simulation failed: %v", err)
	}
}

// simulate runs one admission-controlled simulation and renders the
// response body. It is the single-flight leader's path: concurrent
// identical requests wait on its outcome instead of taking slots; the
// leader's tenant pays the QoS cost (followers and cache hits are free —
// a cached response consumes no fabric time). The deadline covers queue
// wait plus simulation, so a queued request that can't start in time
// surfaces as 504 rather than waiting forever.
func (s *Server) simulate(ctx context.Context, tenant string, p explore.Point, collect CollectSpec, d time.Duration) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, d)
	defer cancel()

	cost := s.cost.predict(p)
	if err := s.qos.admit(tenant, cost); err != nil {
		return nil, err
	}
	var body []byte
	err := s.run(ctx, tenant, classInteractive, cost, p, collect.options(), func(res *sim.Result) (err error) {
		body, err = s.renderSimulate(p, res)
		return err
	})
	return body, err
}

// run is the one slot-holding simulation bracket, shared by /v1/simulate
// and every point of a local sweep: it waits for a slot at the tenant's
// class priority, runs p on a pooled Result, feeds the measured time to
// the cost model and hands the Result to use before the slot and the
// Result are released. use must copy out whatever it keeps.
func (s *Server) run(ctx context.Context, tenant string, class int, cost float64, p explore.Point, collect sim.Options, use func(*sim.Result) error) error {
	slot, err := s.qos.acquire(ctx, tenant, class, cost)
	if err != nil {
		return err
	}
	defer s.qos.release(slot)
	s.met.inflight.Add(1)
	defer s.met.inflight.Add(-1)

	res := s.runner.GetResult()
	defer s.runner.PutResult(res)
	start := time.Now()
	if err := s.runPoint(ctx, p, collect, res); err != nil {
		return err
	}
	s.cost.observe(p, time.Since(start))
	return use(res)
}

// renderSimulate converts a Result into the deterministic response body.
// Data is copied out of res (which returns to the pool) — slices in the
// response never alias pooled buffers.
func (s *Server) renderSimulate(p explore.Point, res *sim.Result) ([]byte, error) {
	is := s.isaFor(p)
	resp := SimulateResponse{
		Point:        p,
		Runtime:      res.Runtime,
		TotalCycles:  res.TotalCycles,
		StallCycles:  res.StallCycles,
		SWExecutions: res.TotalSWExecutions(),
		HWExecutions: res.TotalHWExecutions(),
		Phases:       len(res.Phases),
	}
	executed := res.ExecutedSIs()
	resp.SIs = make([]SIStat, 0, len(executed))
	for _, si := range executed {
		resp.SIs = append(resp.SIs, SIStat{
			SI:           int(si),
			Name:         is.SI(si).Name,
			Executions:   res.ExecutionsOf(si),
			SWExecutions: res.SWExecutionsOf(si),
			HWExecutions: res.HWExecutionsOf(si),
		})
	}
	if res.Histogram != nil {
		resp.HistogramBucket = res.Histogram.BucketCycles
		for _, si := range executed {
			counts := res.Histogram.Counts(int(si))
			resp.Histograms = append(resp.Histograms, SIHistogram{
				SI:     int(si),
				Name:   is.SI(si).Name,
				Counts: append([]int64(nil), counts...),
			})
		}
	}
	if res.Timeline != nil {
		for _, ev := range res.Timeline.Events {
			resp.Timeline = append(resp.Timeline, TimelineStep{SI: ev.SI, Cycle: ev.Cycle, Latency: ev.Latency})
		}
	}
	return json.Marshal(&resp)
}

// handleExplore answers POST /v1/explore with a JSONL record stream.
func (s *Server) handleExplore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	jobs, timeout, ok := s.sweepRequest(w, r)
	if !ok {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Points", strconv.Itoa(len(jobs)))
	emit := func(line []byte) error {
		if _, err := w.Write(line); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	// From the first streamed byte on, errors can no longer change the
	// status code; per-record errors travel in the records themselves and
	// a deadline truncates the stream (clients compare against X-Points).
	s.sweep(ctx, tenantFrom(r.Context()), jobs, emit, nil) //nolint:errcheck // see above: reported in-band
}

// sweepRequest is the intake of POST /v1/explore and POST /v1/jobs: it
// decodes the body, expands and validates the spec, and takes the one
// sweep-level admission charge. ok is false when it has already answered
// the request with an error.
func (s *Server) sweepRequest(w http.ResponseWriter, r *http.Request) (jobs []explore.Point, timeout time.Duration, ok bool) {
	var req ExploreRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil, 0, false
	}
	if req.TimeoutMS < 0 {
		writeError(w, http.StatusBadRequest, "negative timeout_ms")
		return nil, 0, false
	}
	jobs, err := s.expandSpec(req.Spec, "sweep")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, 0, false
	}
	// The whole spec is charged against the tenant's cost budget up front
	// (predicted from the learned cost classes), so a tenant cannot
	// sidestep rate limits by splitting load across huge batch sweeps.
	// Per-point charges are not taken again.
	var cost float64
	for _, p := range jobs {
		cost += s.cost.predict(p)
	}
	if err := s.qos.admit(tenantFrom(r.Context()), cost); err != nil {
		s.writeSimulateError(w, r, err)
		return nil, 0, false
	}
	return jobs, s.timeout(req.TimeoutMS), true
}

// expandSpec expands a sweep or search-space spec (noun names it in
// errors) to its canonical points and applies the serving limits: at
// least one point, at most MaxPoints, each passing validatePoint.
func (s *Server) expandSpec(spec explore.Spec, noun string) ([]explore.Point, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return nil, fmt.Errorf("invalid spec: %v", err)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("empty %s: spec expands to no points", noun)
	}
	if len(jobs) > s.cfg.MaxPoints {
		return nil, fmt.Errorf("%s of %d points exceeds server limit %d", noun, len(jobs), s.cfg.MaxPoints)
	}
	for _, p := range jobs {
		if err := s.validatePoint(p); err != nil {
			return nil, fmt.Errorf("invalid point %s: %v", p.Key(), err)
		}
	}
	return jobs, nil
}

// sweep executes an admitted sweep and hands emit every record line in
// canonical order; emit must copy a line it keeps. With a live fleet the
// coordinator shards the points (progress, when non-nil, follows the
// shards); otherwise the local engine runs them, each point holding a
// batch-class slot. Exploration points queue for slots rather than
// shedding: the spec was admitted as a whole, and job order (not latency)
// is the contract. A local record is counted on the explore counters
// before its line is emitted, so the counters cover every line a client
// has read.
func (s *Server) sweep(ctx context.Context, tenant string, jobs []explore.Point, emit func(line []byte) error, progress func(worker string, assigned, done int)) error {
	if s.coord != nil && s.coord.LiveWorkers() > 0 {
		// A fleet that collapses mid-sweep (fabric.ErrNoWorkers) truncates
		// the stream exactly like a deadline would.
		err := s.coord.Sweep(ctx, jobs, fabric.SweepOptions{Emit: emit, Progress: progress})
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			s.logf("serve: fleet sweep: %v", err)
		}
		return err
	}
	var (
		line    bytes.Buffer // the engine encodes one record here at a time
		emitErr error
	)
	eng := &explore.Engine{
		Workers: s.cfg.ExploreWorkers,
		Cache:   s.exploreStore,
		Run: func(ctx context.Context, p explore.Point) (m explore.Metrics, err error) {
			err = s.run(ctx, tenant, classBatch, s.cost.predict(p), p, sim.Options{}, func(res *sim.Result) error {
				m = explore.Metrics{
					TotalCycles:  res.TotalCycles,
					StallCycles:  res.StallCycles,
					SWExecutions: res.TotalSWExecutions(),
					HWExecutions: res.TotalHWExecutions(),
				}
				return nil
			})
			return m, err
		},
		OnRecord: func(rec explore.Record) {
			switch {
			case rec.Cached:
				s.met.engineHits.Add(1)
			case rec.OK():
				s.met.engineSim.Add(1)
			}
			if emitErr == nil {
				emitErr = emit(line.Bytes())
			}
			line.Reset()
		},
	}
	if _, err := eng.ExecutePoints(ctx, jobs, &line); err != nil {
		return err
	}
	return emitErr
}

// handleSuggest answers POST /v1/suggest: the adaptive-search side of the
// service. The request carries a strategy name, a seed, a spec, and the
// evaluations the client has already made; the reply is the next batch of
// design points the strategy wants evaluated plus the Pareto front over
// the observations. The server holds no search state — each request is a
// deterministic replay (internal/search.Suggest), so any replica answers
// identically and the client drives the eval loop at its own pace
// (typically through /v1/simulate or /v1/explore).
func (s *Server) handleSuggest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	var req search.SuggestRequest
	if err := s.decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Count < 0 {
		writeError(w, http.StatusBadRequest, "negative count")
		return
	}
	if req.Count > s.cfg.MaxPoints {
		writeError(w, http.StatusBadRequest, "count %d exceeds server limit %d", req.Count, s.cfg.MaxPoints)
		return
	}
	jobs, err := s.expandSpec(req.Spec, "space")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if len(req.Observed) > len(jobs) {
		writeError(w, http.StatusBadRequest, "%d observations for a space of %d points", len(req.Observed), len(jobs))
		return
	}

	// Suggest is planning work, not simulation, but it rides the batch
	// class: a strategy replay over a big space is CPU-bound and must not
	// crowd out interactive traffic. The cost charge scales with the
	// replayed history.
	tenant := tenantFrom(r.Context())
	cost := 1 + float64(len(req.Observed))
	if err := s.qos.admit(tenant, cost); err != nil {
		s.writeSimulateError(w, r, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.DefaultTimeout)
	defer cancel()
	slot, err := s.qos.acquire(ctx, tenant, classBatch, cost)
	if err != nil {
		s.writeSimulateError(w, r, err)
		return
	}
	defer s.qos.release(slot)

	sug, err := search.Suggest(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.suggests.inc(sug.Strategy, "")
	s.met.suggestPoints.Add(int64(len(sug.Points)))
	s.met.frontSize.Store(int64(len(sug.Front)))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(sug) //nolint:errcheck // headers sent; nothing left to do
}

// ScenarioInfo is one entry of the GET /v1/scenarios listing.
type ScenarioInfo struct {
	Name        string `json:"name"`
	Kind        string `json:"kind"`
	Description string `json:"description,omitempty"`
	// Digest is the SHA-256 content address of the scenario spec; clients
	// caching on scenario names can assert it to detect a (forbidden)
	// in-place redefinition.
	Digest   string `json:"digest"`
	Atoms    int    `json:"atoms"`
	SIs      int    `json:"sis"`
	HotSpots int    `json:"hot_spots"`
}

// handleScenarios answers GET /v1/scenarios: the shipped scenario library,
// sorted by name — the valid values of Point.Scenario.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	names := scenario.Names()
	out := make([]ScenarioInfo, 0, len(names))
	for _, n := range names {
		sc, _ := scenario.Find(n)
		is := sc.ISA()
		out = append(out, ScenarioInfo{
			Name:        n,
			Kind:        sc.Kind(),
			Description: sc.Description(),
			Digest:      sc.Digest(),
			Atoms:       is.Dim(),
			SIs:         len(is.SIs),
			HotSpots:    len(is.HotSpots),
		})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out) //nolint:errcheck // headers sent; nothing left to do
}

// handleHealthz answers GET /v1/healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	status, code := "ok", http.StatusOK
	if s.closing.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(struct { //nolint:errcheck // headers sent; nothing left to do
		Status   string `json:"status"`
		InFlight int64  `json:"inflight"`
		Workers  int    `json:"workers"`
	}{status, s.met.inflight.Load(), s.cfg.Workers})
}
