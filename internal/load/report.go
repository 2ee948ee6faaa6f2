package load

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// sample is one completed (or failed) request as the generator saw it.
type sample struct {
	tenant string
	route  string
	code   int  // 0 when the request errored before a response
	err    bool // transport error (timeout, refused, ...)
	ms     float64
	steady bool // issued after the warmup window
}

// EndpointStats reduces one (tenant, route) or aggregate sample stream.
// Latency quantiles cover successful (2xx) steady-state requests only —
// sheds return in microseconds and would flatter the tail.
type EndpointStats struct {
	Requests int64 `json:"requests"`
	OK       int64 `json:"ok"`
	Shed     int64 `json:"shed"` // 429
	Errors5x int64 `json:"errors_5xx"`
	Other    int64 `json:"other"` // non-2xx/429/5xx codes and transport errors

	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
	MeanMS float64 `json:"mean_ms"`
}

// TenantReport is one tenant's view of the run.
type TenantReport struct {
	Weight float64                   `json:"weight"`
	Total  EndpointStats             `json:"total"`
	Routes map[string]*EndpointStats `json:"routes"`
	// WeightedShare is the tenant's steady-state OK completions divided by
	// its weight; fairness compares these across tenants.
	WeightedShare float64 `json:"weighted_share"`
}

// ServerStats is the slice of the target's /metrics exposition the report
// embeds: the SLO series the tentpole added, reduced to scalars.
type ServerStats struct {
	// TenantSheds counts 429s by "tenant/reason" as the server saw them.
	TenantSheds map[string]int64 `json:"tenant_sheds,omitempty"`
	// TenantAdmits counts dispatched slots by "tenant/class".
	TenantAdmits map[string]int64 `json:"tenant_admits,omitempty"`
	// EndpointP50MS/P99MS are server-side latency quantiles per route,
	// interpolated from the rispp_endpoint_latency_seconds buckets.
	EndpointP50MS map[string]float64 `json:"endpoint_p50_ms,omitempty"`
	EndpointP99MS map[string]float64 `json:"endpoint_p99_ms,omitempty"`
	// QueueDepth is the scrape-time QoS queue depth per class.
	QueueDepth map[string]int64 `json:"queue_depth,omitempty"`
}

// Report is the machine-readable result of one load run. cmd/risppload
// writes it as JSON; the CI soak job archives it.
type Report struct {
	Target      string        `json:"target"`
	Seed        int64         `json:"seed"`
	Duration    time.Duration `json:"duration_ns"`
	WallSeconds float64       `json:"wall_seconds"`

	Total   EndpointStats             `json:"total"`
	Routes  map[string]*EndpointStats `json:"routes"`
	Tenants map[string]*TenantReport  `json:"tenants"`

	// ShedRate is steady-state sheds over steady-state requests.
	ShedRate float64 `json:"shed_rate"`
	// Fairness is min/max of the tenants' weighted steady-state completion
	// shares (1 = perfectly weighted-fair, 0 = a tenant was starved).
	Fairness float64 `json:"fairness"`

	Server ServerStats `json:"server"`

	Violations []string `json:"violations"`
	Pass       bool     `json:"pass"`
}

// collector accumulates samples from all workers.
type collector struct {
	mu      sync.Mutex
	samples []sample
}

func newCollector() *collector { return &collector{} }

func (c *collector) record(s sample) {
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

// report reduces the collected samples. Latency quantiles and the
// fairness/shed metrics use only steady-state samples; raw counts cover
// the whole run.
func (c *collector) report(p Profile, target string) *Report {
	c.mu.Lock()
	samples := c.samples
	c.mu.Unlock()

	rep := &Report{
		Target:   target,
		Seed:     p.Seed,
		Duration: p.Duration,
		Routes:   make(map[string]*EndpointStats),
		Tenants:  make(map[string]*TenantReport),
	}
	for _, t := range p.Tenants {
		rep.Tenants[t.Name] = &TenantReport{
			Weight: t.Weight,
			Routes: make(map[string]*EndpointStats),
		}
	}

	type lat struct{ all []float64 }
	latencies := make(map[*EndpointStats]*lat)
	touch := func(s *EndpointStats, sm sample) {
		s.Requests++
		switch {
		case sm.err || sm.code == 0:
			s.Other++
		case sm.code >= 200 && sm.code < 300:
			s.OK++
			if sm.steady {
				l := latencies[s]
				if l == nil {
					l = &lat{}
					latencies[s] = l
				}
				l.all = append(l.all, sm.ms)
			}
		case sm.code == 429:
			s.Shed++
		case sm.code >= 500:
			s.Errors5x++
		default:
			s.Other++
		}
	}

	var steadyTotal, steadyShed int64
	for _, sm := range samples {
		touch(&rep.Total, sm)
		rs := rep.Routes[sm.route]
		if rs == nil {
			rs = &EndpointStats{}
			rep.Routes[sm.route] = rs
		}
		touch(rs, sm)
		tr := rep.Tenants[sm.tenant]
		if tr == nil {
			tr = &TenantReport{Weight: 1, Routes: make(map[string]*EndpointStats)}
			rep.Tenants[sm.tenant] = tr
		}
		touch(&tr.Total, sm)
		ts := tr.Routes[sm.route]
		if ts == nil {
			ts = &EndpointStats{}
			tr.Routes[sm.route] = ts
		}
		touch(ts, sm)
		if sm.steady {
			steadyTotal++
			if sm.code == 429 {
				steadyShed++
			}
		}
	}
	for s, l := range latencies {
		fillQuantiles(s, l.all)
	}
	if steadyTotal > 0 {
		rep.ShedRate = float64(steadyShed) / float64(steadyTotal)
	}
	rep.Fairness = fairness(rep, samples)
	return rep
}

// fairness computes min/max of weighted steady-state OK completion shares
// across tenants with traffic. One (or zero) active tenants is trivially
// fair.
func fairness(rep *Report, samples []sample) float64 {
	steadyOK := make(map[string]float64)
	for _, sm := range samples {
		if sm.steady && !sm.err && sm.code >= 200 && sm.code < 300 {
			steadyOK[sm.tenant]++
		}
	}
	lo, hi := math.Inf(1), 0.0
	active := 0
	for name, tr := range rep.Tenants {
		if tr.Total.Requests == 0 {
			continue
		}
		active++
		share := steadyOK[name] / tr.Weight
		tr.WeightedShare = share
		if share < lo {
			lo = share
		}
		if share > hi {
			hi = share
		}
	}
	if active <= 1 {
		return 1
	}
	if hi == 0 {
		return 0
	}
	return lo / hi
}

// fillQuantiles sorts one latency population and fills the stats' quantile
// fields.
func fillQuantiles(s *EndpointStats, ms []float64) {
	if len(ms) == 0 {
		return
	}
	sort.Float64s(ms)
	var sum float64
	for _, v := range ms {
		sum += v
	}
	s.P50MS = quantile(ms, 0.50)
	s.P95MS = quantile(ms, 0.95)
	s.P99MS = quantile(ms, 0.99)
	s.MaxMS = ms[len(ms)-1]
	s.MeanMS = sum / float64(len(ms))
}

// quantile reads q ∈ [0,1] from an ascending-sorted population (nearest
// rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Assert checks a report against an SLO and returns the violations, one
// human-readable line each. It is a pure function so the CI gate's
// fail-the-build behavior is testable without running load.
func Assert(rep *Report, slo SLO) []string {
	var v []string
	if slo.MaxP99SimulateMS > 0 {
		if rs := rep.Routes["/v1/simulate"]; rs != nil && rs.P99MS > slo.MaxP99SimulateMS {
			v = append(v, fmt.Sprintf("p99 simulate latency %.1fms exceeds SLO %.1fms",
				rs.P99MS, slo.MaxP99SimulateMS))
		}
	}
	if slo.MaxShedRate > 0 && rep.ShedRate > slo.MaxShedRate {
		v = append(v, fmt.Sprintf("shed rate %.3f exceeds SLO %.3f", rep.ShedRate, slo.MaxShedRate))
	}
	if slo.AssertServerErrors && rep.Total.Errors5x > slo.MaxServerErrors {
		v = append(v, fmt.Sprintf("%d server errors (5xx) exceed SLO %d",
			rep.Total.Errors5x, slo.MaxServerErrors))
	}
	if slo.MinFairness > 0 && rep.Fairness < slo.MinFairness {
		v = append(v, fmt.Sprintf("fairness %.3f below SLO %.3f (weighted completion shares: %s)",
			rep.Fairness, slo.MinFairness, shareSummary(rep)))
	}
	return v
}

func shareSummary(rep *Report) string {
	names := make([]string, 0, len(rep.Tenants))
	for n := range rep.Tenants {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, fmt.Sprintf("%s=%.1f", n, rep.Tenants[n].WeightedShare))
	}
	return strings.Join(parts, " ")
}

// parseServerStats extracts the QoS SLO series from a Prometheus text
// exposition (the subset internal/serve emits; it is not a general
// parser).
func parseServerStats(text string) ServerStats {
	st := ServerStats{
		TenantSheds:   make(map[string]int64),
		TenantAdmits:  make(map[string]int64),
		EndpointP50MS: make(map[string]float64),
		EndpointP99MS: make(map[string]float64),
		QueueDepth:    make(map[string]int64),
	}
	type hist struct {
		bounds []float64 // ascending; +Inf omitted
		counts []int64   // cumulative, 1:1 with bounds
		total  int64
	}
	hists := make(map[string]*hist)

	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, labels, value, ok := parseLine(line)
		if !ok {
			continue
		}
		switch name {
		case "rispp_tenant_shed_total":
			st.TenantSheds[labels["tenant"]+"/"+labels["reason"]] = int64(value)
		case "rispp_tenant_admitted_total":
			st.TenantAdmits[labels["tenant"]+"/"+labels["class"]] = int64(value)
		case "rispp_qos_queue_depth":
			st.QueueDepth[labels["class"]] = int64(value)
		case "rispp_endpoint_latency_seconds_bucket":
			route := labels["route"]
			h := hists[route]
			if h == nil {
				h = &hist{}
				hists[route] = h
			}
			if labels["le"] == "+Inf" {
				h.total = int64(value)
				continue
			}
			ub, err := strconv.ParseFloat(labels["le"], 64)
			if err != nil {
				continue
			}
			h.bounds = append(h.bounds, ub)
			h.counts = append(h.counts, int64(value))
		}
	}
	for route, h := range hists {
		st.EndpointP50MS[route] = histQuantile(h.bounds, h.counts, h.total, 0.50) * 1000
		st.EndpointP99MS[route] = histQuantile(h.bounds, h.counts, h.total, 0.99) * 1000
	}
	return st
}

// histQuantile reads quantile q from cumulative histogram buckets with
// linear interpolation inside the landing bucket (the usual
// histogram_quantile estimate). Returns the top bound when q lands in the
// +Inf bucket.
func histQuantile(bounds []float64, cum []int64, total int64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var prevCount int64
	prevBound := 0.0
	for i, ub := range bounds {
		if float64(cum[i]) >= rank {
			in := cum[i] - prevCount
			if in == 0 {
				return ub
			}
			frac := (rank - float64(prevCount)) / float64(in)
			return prevBound + (ub-prevBound)*frac
		}
		prevCount = cum[i]
		prevBound = ub
	}
	return bounds[len(bounds)-1]
}

// parseLine splits one exposition line: name{k="v",...} value.
func parseLine(line string) (name string, labels map[string]string, value float64, ok bool) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", nil, 0, false
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(line[sp+1:]), 64)
	if err != nil {
		return "", nil, 0, false
	}
	head := line[:sp]
	labels = make(map[string]string)
	if br := strings.IndexByte(head, '{'); br >= 0 {
		name = head[:br]
		body := strings.TrimSuffix(head[br+1:], "}")
		for _, pair := range splitLabels(body) {
			eq := strings.IndexByte(pair, '=')
			if eq < 0 {
				continue
			}
			val, err := strconv.Unquote(pair[eq+1:])
			if err != nil {
				continue
			}
			labels[pair[:eq]] = val
		}
	} else {
		name = head
	}
	return name, labels, v, true
}

// splitLabels splits `k1="v1",k2="v2"` on commas outside quotes.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
