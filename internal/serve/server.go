package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"sync/atomic"
	"time"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/fabric"
	"rispp/internal/isa"
	"rispp/internal/sim"
)

// Server is the simulation service. Create one with New, expose it via
// Handler (tests, custom listeners) or ListenAndServe, and stop it with
// Shutdown — which drains in-flight simulations before returning.
type Server struct {
	cfg    Config
	isa    *isa.ISA
	runner *rispp.Runner
	qos    *qsched
	cost   *costModel
	cache  *respCache
	met    *metrics
	mux    *http.ServeMux
	logMu  sync.Mutex // serializes AccessLog writes

	// exploreStore optionally backs /v1/explore with a result store:
	// the engine's content-addressed disk cache (SetExploreCache) or a
	// fleet worker's peer-backed tiered store (SetExploreStore). Nil when
	// no cache is configured — never a typed-nil interface.
	exploreStore explore.Store
	// peerCache serves the cache-peer protocol (/v1/cache/{hash}): the raw
	// disk tier other fabric nodes read and fill.
	peerCache *explore.Cache

	// coord, when non-nil, turns this node into a fleet coordinator:
	// /v1/explore sweeps and async jobs shard across its registered
	// workers, and /v1/workers manages the registry.
	coord *fabric.Coordinator
	// jobs is the async sweep store behind /v1/jobs; jobsCtx parents every
	// job's sweep so Shutdown can stop them, and jobsWG is the drain
	// barrier for their background goroutines.
	jobs       *fabric.JobStore
	jobsCtx    context.Context
	jobsCancel context.CancelFunc
	jobsWG     sync.WaitGroup

	// runPoint is the simulation entry point; tests replace it to model
	// slow or failing runs deterministically.
	runPoint func(ctx context.Context, p explore.Point, collect sim.Options, res *sim.Result) error

	closing  atomic.Bool
	inflight sync.WaitGroup // in-flight HTTP requests (drain barrier)
	httpSrv  *http.Server

	// Logf receives operational log lines (startup, shutdown, panics);
	// nil selects log.Printf.
	Logf func(format string, args ...any)
}

// New builds a Server over the paper-default rispp.Config. The base config
// customizes the platform under simulation (ISA, workload, bus model);
// request knobs override its Scheduler/NumACs/workload-knob fields per
// point, exactly as in rispp.Explorer.
func New(cfg Config, base rispp.Config) *Server {
	cfg = cfg.withDefaults()
	runner := rispp.NewRunner(base)
	is := base.ISA
	if is == nil {
		is = isa.H264()
	}
	s := &Server{
		cfg:    cfg,
		isa:    is,
		runner: runner,
		cache:  newRespCache(cfg.CacheEntries),
		met:    newMetrics(),
		mux:    http.NewServeMux(),
	}
	s.qos = newQsched(cfg.Workers, cfg.QoS, s.met)
	s.cost = newCostModel()
	s.runPoint = runner.RunPoint
	s.jobs = fabric.NewJobStore(cfg.MaxJobs)
	s.jobsCtx, s.jobsCancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("/v1/simulate", s.wrap("/v1/simulate", s.handleSimulate))
	s.mux.HandleFunc("/v1/explore", s.wrap("/v1/explore", s.handleExplore))
	s.mux.HandleFunc("/v1/suggest", s.wrap("/v1/suggest", s.handleSuggest))
	s.mux.HandleFunc("/v1/scenarios", s.wrap("/v1/scenarios", s.handleScenarios))
	s.mux.HandleFunc("/v1/healthz", s.wrap("/v1/healthz", s.handleHealthz))
	s.mux.HandleFunc("/v1/jobs", s.wrap("/v1/jobs", s.handleJobs))
	s.mux.HandleFunc("/v1/jobs/", s.wrap("/v1/jobs/", s.handleJob))
	s.mux.HandleFunc("/v1/cache/", s.wrap("/v1/cache/", s.handleCache))
	s.mux.HandleFunc("/v1/workers", s.wrap("/v1/workers", s.handleWorkers))
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeError(w, http.StatusNotFound, "no route %s; see /v1/simulate, /v1/explore, /v1/jobs, /v1/suggest, /v1/scenarios, /v1/workers, /v1/healthz, /metrics", r.URL.Path)
	})
	return s
}

// UpdateQoS hot-swaps the multi-tenant policy (quotas, weights, tokens,
// queue depths). In-flight and queued work is unaffected; new admissions
// see the new limits immediately. cmd/risppserve calls this on SIGHUP.
func (s *Server) UpdateQoS(q QoSConfig) {
	s.qos.setConfig(q)
	s.logf("serve: QoS limits updated (%d named tenants)", len(q.Tenants))
}

// qosCfg reads the live QoS policy (which UpdateQoS may have replaced).
func (s *Server) qosCfg() QoSConfig { return s.qos.config() }

// SetExploreCache backs /v1/explore sweeps with a content-addressed disk
// cache (see explore.Cache): re-posted specs only simulate new points. The
// same cache serves the cache-peer endpoints (/v1/cache/{hash}) to other
// fabric nodes. Must be called before the server starts handling requests.
func (s *Server) SetExploreCache(c *explore.Cache) {
	if c == nil {
		return
	}
	s.exploreStore = c
	s.peerCache = c
}

// SetExploreStore backs /v1/explore sweeps with an arbitrary result store —
// a fleet worker installs a fabric.Tiered here so every lookup consults the
// coordinator's cache too. raw, when non-nil, is the disk tier served to
// cache peers (typically the Tiered store's local tier). Must be called
// before the server starts handling requests.
func (s *Server) SetExploreStore(st explore.Store, raw *explore.Cache) {
	if st != nil {
		s.exploreStore = st
	}
	if raw != nil {
		s.peerCache = raw
	}
}

// SetCoordinator turns this node into the fleet coordinator: /v1/explore
// and /v1/jobs sweeps shard across the coordinator's registered workers
// (falling back to local execution while the fleet is empty), and
// /v1/workers manages the registry. Must be called before the server
// starts handling requests.
func (s *Server) SetCoordinator(c *fabric.Coordinator) {
	s.coord = c
	if c != nil && c.Logf == nil {
		c.Logf = s.logf
	}
}

// Coordinator returns the fleet coordinator, or nil on a plain node.
func (s *Server) Coordinator() *fabric.Coordinator { return s.coord }

// Handler returns the root handler — the full service including metrics,
// drain behavior and panic recovery — for tests and custom servers.
func (s *Server) Handler() http.Handler { return s.mux }

// statusRecorder captures the status code a handler wrote.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(p)
}

// Flush forwards http.Flusher so chunked JSONL streaming works through the
// recorder.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tenantCtxKey carries the identified tenant through the request context
// to the QoS admission points inside the handlers.
type tenantCtxKey struct{}

// tenantFrom recovers the tenant wrap() identified ("anonymous" when the
// request bypassed wrap, e.g. direct handler tests).
func tenantFrom(ctx context.Context) string {
	if t, ok := ctx.Value(tenantCtxKey{}).(string); ok {
		return t
	}
	return "anonymous"
}

// wrap is the per-route middleware: tenant identification, drain gate,
// in-flight accounting, panic-to-500 recovery, request metrics and the
// structured access log.
func (s *Server) wrap(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		tenant := s.tenantOf(r.Header)
		r = r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tenant))
		rec := &statusRecorder{ResponseWriter: w}
		s.inflight.Add(1)
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Add(1)
				s.logf("serve: panic in %s: %v", route, p)
				if rec.code == 0 {
					writeError(rec, http.StatusInternalServerError, "internal error")
				}
			}
			d := time.Since(start)
			s.met.request(route, rec.code, d)
			s.logAccess(route, tenant, rec, d)
			s.inflight.Done()
		}()
		// The health endpoint stays up while draining (it reports the
		// drain); everything else sheds immediately.
		if s.closing.Load() && route != "/v1/healthz" {
			writeError(rec, http.StatusServiceUnavailable, "server draining")
			return
		}
		h(rec, r)
	}
}

// accessRecord is one structured request-log line.
type accessRecord struct {
	Time   string  `json:"t"`
	Route  string  `json:"route"`
	Tenant string  `json:"tenant"`
	Class  string  `json:"class"`
	Code   int     `json:"code"`
	Millis float64 `json:"ms"`
	Cache  string  `json:"cache,omitempty"`
}

// logAccess emits one JSON line per completed request when an access log
// is configured.
func (s *Server) logAccess(route, tenant string, rec *statusRecorder, d time.Duration) {
	if s.cfg.AccessLog == nil {
		return
	}
	line, err := json.Marshal(accessRecord{
		Time:   time.Now().UTC().Format(time.RFC3339Nano),
		Route:  route,
		Tenant: tenant,
		Class:  className(routeClass(route)),
		Code:   rec.code,
		Millis: float64(d) / float64(time.Millisecond),
		Cache:  rec.Header().Get("X-Cache"),
	})
	if err != nil {
		return // plain scalars; cannot fail
	}
	line = append(line, '\n')
	s.logMu.Lock()
	s.cfg.AccessLog.Write(line) //nolint:errcheck // logging is best-effort
	s.logMu.Unlock()
}

// routeClass maps a route to its QoS priority class: the interactive
// endpoint is /v1/simulate; sweeps and search proposals are batch.
func routeClass(route string) int {
	if route == "/v1/simulate" || route == "/v1/healthz" {
		return classInteractive
	}
	return classBatch
}

func (s *Server) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// ListenAndServe serves on cfg.Addr until Shutdown (which returns
// http.ErrServerClosed here) or a listener error.
func (s *Server) ListenAndServe() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return s.Serve(ln)
}

// Serve serves on an existing listener.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.httpSrv = srv
	s.logf("serve: listening on %s (%d simulation slots)", ln.Addr(), s.cfg.Workers)
	return srv.Serve(ln)
}

// Shutdown drains the server: new requests are answered 503 immediately,
// async jobs are canceled (they are resumable by re-posting, not worth
// holding the drain for), in-flight requests (and their simulations) run
// to completion, then the HTTP listener closes. The context bounds the
// drain; on expiry the remaining requests are abandoned and ctx's error
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closing.Store(true)
	s.jobsCancel()
	s.jobs.CancelAll()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		if s.httpSrv != nil {
			s.httpSrv.Close() //nolint:errcheck // already returning ctx error
		}
		return ctx.Err()
	}
	if s.httpSrv != nil {
		return s.httpSrv.Shutdown(ctx)
	}
	return nil
}
