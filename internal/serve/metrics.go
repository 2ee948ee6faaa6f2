package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the upper bounds (seconds) of the request-duration
// histogram. One-frame simulations land in the sub-millisecond buckets,
// full 140-frame paper runs in the tens-of-milliseconds range, and large
// exploration sweeps at the top.
var latencyBuckets = [numLatencyBuckets]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

const numLatencyBuckets = 8

// metricRoutes are the routes that get their own latency histogram
// (rispp_endpoint_latency_seconds); anything else folds into "other".
// Fixed-index lookup keeps the hot path allocation-free.
var metricRoutes = [...]string{"/v1/simulate", "/v1/explore", "/v1/suggest", "/v1/healthz", "other"}

const numMetricRoutes = len(metricRoutes)

func routeIndex(route string) int {
	for i, r := range metricRoutes {
		if r == route {
			return i
		}
	}
	return numMetricRoutes - 1
}

// histogram is one latency histogram plus count/sum.
type histogram struct {
	count  atomic.Int64
	sumNS  atomic.Int64
	bucket [numLatencyBuckets]atomic.Int64 // rendered cumulatively
}

func (h *histogram) observe(d time.Duration) {
	h.count.Add(1)
	h.sumNS.Add(int64(d))
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			h.bucket[i].Add(1)
			break
		}
	}
}

// writeHistogram renders the sum of hs as one histogram series of family
// name, labeled with route unless route is empty.
func writeHistogram(w io.Writer, name, route string, hs []histogram) {
	var count, sumNS int64
	var bucket [numLatencyBuckets]int64
	for i := range hs {
		count += hs[i].count.Load()
		sumNS += hs[i].sumNS.Load()
		for b := range bucket {
			bucket[b] += hs[i].bucket[b].Load()
		}
	}
	le, set := "", ""
	if route != "" {
		le, set = fmt.Sprintf("route=%q,", route), fmt.Sprintf("{route=%q}", route)
	}
	var cum int64
	for i, ub := range latencyBuckets {
		cum += bucket[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, le, formatBound(ub), cum)
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, le, count)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, set, float64(sumNS)/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, set, count)
}

// counterVec is a counter family over one or two labels (a one-label
// family leaves the second label name empty).
type counterVec struct {
	labels [2]string
	mu     sync.Mutex
	counts map[[2]string]int64
}

func (c *counterVec) inc(a, b string) {
	c.mu.Lock()
	if c.counts == nil {
		c.counts = make(map[[2]string]int64)
	}
	c.counts[[2]string{a, b}]++
	c.mu.Unlock()
}

// write renders the family with its series in label-value order.
func (c *counterVec) write(w io.Writer, name, help string) {
	type series struct {
		labels [2]string
		n      int64
	}
	c.mu.Lock()
	ss := make([]series, 0, len(c.counts))
	for k, n := range c.counts {
		ss = append(ss, series{k, n})
	}
	c.mu.Unlock()
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i].labels, ss[j].labels
		return a[0] < b[0] || a[0] == b[0] && a[1] < b[1]
	})
	family(w, name, "counter", help)
	for _, s := range ss {
		if c.labels[1] == "" {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, c.labels[0], s.labels[0], s.n)
		} else {
			fmt.Fprintf(w, "%s{%s=%q,%s=%q} %d\n", name, c.labels[0], s.labels[0], c.labels[1], s.labels[1], s.n)
		}
	}
}

// metrics is what the server records: labeled counters, per-route latency
// histograms and a few atomics. All methods are safe for concurrent use.
// Live state (queue depths, cost classes, the Runner's delta counters, the
// fleet, the job store) is not copied here; writeMetrics reads it where it
// lives.
type metrics struct {
	requests counterVec // completed requests by route and status code
	sheds    counterVec // rejected (429) requests by tenant and reason
	admits   counterVec // dispatched slot acquisitions by tenant and class
	suggests counterVec // answered /v1/suggest requests by strategy

	// Per-endpoint latency histograms (SLO series: p50/p99 per route are
	// derived from the buckets by the scraper/risppload). The all-routes
	// histogram is their sum at scrape time.
	routeLat [numMetricRoutes]histogram

	inflight      atomic.Int64 // simulations currently holding a limiter slot
	cacheHits     atomic.Int64 // /v1/simulate response-cache hits
	cacheMiss     atomic.Int64 // /v1/simulate response-cache misses
	engineHits    atomic.Int64 // /v1/explore records answered by the result cache
	engineSim     atomic.Int64 // /v1/explore records actually simulated here
	panics        atomic.Int64 // recovered handler panics
	suggestPoints atomic.Int64 // points proposed by /v1/suggest in total
	frontSize     atomic.Int64 // front size of the most recent /v1/suggest reply
}

func newMetrics() *metrics {
	return &metrics{
		requests: counterVec{labels: [2]string{"route", "code"}},
		sheds:    counterVec{labels: [2]string{"tenant", "reason"}},
		admits:   counterVec{labels: [2]string{"tenant", "class"}},
		suggests: counterVec{labels: [2]string{"strategy"}},
	}
}

// request records one completed request: its route, status code and wall
// time.
func (m *metrics) request(route string, code int, d time.Duration) {
	m.requests.inc(route, strconv.Itoa(code))
	m.routeLat[routeIndex(route)].observe(d)
}

// family writes a metric family's HELP and TYPE lines.
func family(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// single writes a family of one unlabeled series.
func single(w io.Writer, name, typ, help string, v int64) {
	family(w, name, typ, help)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// writeMetrics renders the Prometheus text exposition: what s.met recorded,
// plus live state read at scrape time from where it lives. Families come in
// a fixed order and series in label order, so scrapes (and tests) are
// stable.
func (s *Server) writeMetrics(w io.Writer) {
	m := s.met
	m.requests.write(w, "rispp_requests_total", "Completed HTTP requests by route and status code.")

	family(w, "rispp_request_duration_seconds", "histogram", "Request wall time.")
	writeHistogram(w, "rispp_request_duration_seconds", "", m.routeLat[:])
	family(w, "rispp_endpoint_latency_seconds", "histogram", "Request wall time by route (SLO series).")
	for ri, route := range metricRoutes {
		if m.routeLat[ri].count.Load() > 0 {
			writeHistogram(w, "rispp_endpoint_latency_seconds", route, m.routeLat[ri:ri+1])
		}
	}

	m.sheds.write(w, "rispp_tenant_shed_total", "Requests rejected (429) by tenant and reason.")
	m.admits.write(w, "rispp_tenant_admitted_total", "Slot acquisitions dispatched by tenant and priority class.")

	depths := s.qos.queueDepths()
	family(w, "rispp_qos_queue_depth", "gauge", "Requests waiting for a simulation slot by priority class.")
	for class, d := range depths {
		fmt.Fprintf(w, "rispp_qos_queue_depth{class=%q} %d\n", className(class), d)
	}
	classes := s.cost.snapshot()
	names := make([]string, 0, len(classes))
	for k := range classes {
		names = append(names, k)
	}
	sort.Strings(names)
	family(w, "rispp_cost_class_us", "gauge", "Learned per-class simulation cost (EWMA, microseconds).")
	for _, k := range names {
		fmt.Fprintf(w, "rispp_cost_class_us{class=%q} %g\n", k, classes[k])
	}

	single(w, "rispp_inflight_simulations", "gauge", "Simulations currently holding a limiter slot.", m.inflight.Load())
	family(w, "rispp_simulate_cache_total", "counter", "/v1/simulate response-cache lookups by outcome.")
	fmt.Fprintf(w, "rispp_simulate_cache_total{outcome=\"hit\"} %d\n", m.cacheHits.Load())
	fmt.Fprintf(w, "rispp_simulate_cache_total{outcome=\"miss\"} %d\n", m.cacheMiss.Load())
	single(w, "rispp_explore_cache_hits_total", "counter", "/v1/explore records answered from the result cache.", m.engineHits.Load())
	single(w, "rispp_explore_simulated_total", "counter", "/v1/explore records simulated on this node (cache misses that ran).", m.engineSim.Load())

	if s.coord != nil {
		retries, failures := s.coord.Stats()
		workers := s.coord.Workers()
		live := 0
		for _, wk := range workers {
			if wk.Alive {
				live++
			}
		}
		single(w, "rispp_fabric_shard_retries_total", "counter", "Sweep points re-dispatched after a worker shard failed.", retries)
		single(w, "rispp_fabric_worker_failures_total", "counter", "Workers declared dead by the coordinator.", failures)
		family(w, "rispp_fabric_workers", "gauge", "Registered fleet workers by liveness.")
		fmt.Fprintf(w, "rispp_fabric_workers{state=\"live\"} %d\n", live)
		fmt.Fprintf(w, "rispp_fabric_workers{state=\"dead\"} %d\n", len(workers)-live)
	}
	running, retained := s.jobs.Counts()
	family(w, "rispp_jobs", "gauge", "Async sweep jobs in the store by state.")
	fmt.Fprintf(w, "rispp_jobs{state=\"running\"} %d\n", running)
	fmt.Fprintf(w, "rispp_jobs{state=\"terminal\"} %d\n", retained-running)

	m.suggests.write(w, "rispp_search_suggest_total", "Answered /v1/suggest requests by strategy.")
	single(w, "rispp_search_suggested_points_total", "counter", "Design points proposed by /v1/suggest.", m.suggestPoints.Load())
	single(w, "rispp_search_front_size", "gauge", "Pareto-front size of the most recent /v1/suggest reply.", m.frontSize.Load())

	serves, resumes, records := s.runner.DeltaStats()
	family(w, "rispp_delta_total", "counter", "Delta-resimulation point runs by outcome (serve = own trail, resume = extended trail, record = from power-on).")
	fmt.Fprintf(w, "rispp_delta_total{outcome=\"serve\"} %d\n", serves)
	fmt.Fprintf(w, "rispp_delta_total{outcome=\"resume\"} %d\n", resumes)
	fmt.Fprintf(w, "rispp_delta_total{outcome=\"record\"} %d\n", records)

	single(w, "rispp_panics_total", "counter", "Recovered handler panics.", m.panics.Load())
}

// handleMetrics answers GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}

// Metrics returns the Prometheus exposition as a string (CLI convenience).
func (s *Server) Metrics() string {
	var b strings.Builder
	s.writeMetrics(&b)
	return b.String()
}

// formatBound renders a bucket bound the way Prometheus clients do:
// shortest decimal form, no exponent for these magnitudes.
func formatBound(ub float64) string {
	return strconv.FormatFloat(ub, 'g', -1, 64)
}
