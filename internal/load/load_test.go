package load

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func newTestRNG(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestAssertInjectedBugsFailTheRun is the CI-gate contract: a report
// showing a quota bug (runaway sheds), a fairness bug (one tenant starved)
// or server errors must produce violations — which cmd/risppload turns
// into a nonzero exit — while a healthy report passes the same SLO.
func TestAssertInjectedBugsFailTheRun(t *testing.T) {
	slo := SLO{
		MaxP99SimulateMS:   2000,
		MaxShedRate:        0.05,
		AssertServerErrors: true,
		MinFairness:        0.25,
	}
	healthy := func() *Report {
		return &Report{
			Routes: map[string]*EndpointStats{
				"/v1/simulate": {Requests: 1000, OK: 990, P99MS: 120},
			},
			Tenants: map[string]*TenantReport{
				"gold":   {Weight: 3, WeightedShare: 100, Total: EndpointStats{Requests: 600}},
				"bronze": {Weight: 1, WeightedShare: 95, Total: EndpointStats{Requests: 200}},
			},
			Total:    EndpointStats{Requests: 1200, OK: 1150, Shed: 50},
			ShedRate: 0.04,
			Fairness: 0.95,
		}
	}

	if v := Assert(healthy(), slo); len(v) != 0 {
		t.Fatalf("healthy report should pass, got violations %v", v)
	}

	cases := []struct {
		name   string
		mutate func(*Report)
		want   string // substring of the expected violation
	}{
		{
			// A broken quota (e.g. refill never happens) sheds far beyond
			// the SLO rate.
			name:   "quota bug: runaway sheds",
			mutate: func(r *Report) { r.ShedRate = 0.40 },
			want:   "shed rate",
		},
		{
			// A broken scheduler starves the low-weight tenant: its
			// weighted share collapses relative to the other tenant's.
			name: "fairness bug: bronze starved",
			mutate: func(r *Report) {
				r.Fairness = 0.02
				r.Tenants["bronze"].WeightedShare = 2
			},
			want: "fairness",
		},
		{
			name:   "server errors",
			mutate: func(r *Report) { r.Total.Errors5x = 3 },
			want:   "5xx",
		},
		{
			name: "tail latency blowout",
			mutate: func(r *Report) {
				r.Routes["/v1/simulate"].P99MS = 9000
			},
			want: "p99",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rep := healthy()
			tc.mutate(rep)
			v := Assert(rep, slo)
			if len(v) == 0 {
				t.Fatalf("injected bug produced no violation")
			}
			found := false
			for _, line := range v {
				if strings.Contains(line, tc.want) {
					found = true
				}
			}
			if !found {
				t.Errorf("violations %v missing %q", v, tc.want)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	cases := []struct {
		pop  []float64
		q    float64
		want float64
	}{
		{nil, 0.99, 0},
		{[]float64{5}, 0.5, 5},
		{[]float64{1, 2, 3, 4}, 0.5, 2},
		{[]float64{1, 2, 3, 4}, 0.99, 4},
		{[]float64{1, 2, 3, 4}, 0.25, 1},
	}
	for _, tc := range cases {
		if got := quantile(tc.pop, tc.q); got != tc.want {
			t.Errorf("quantile(%v, %g) = %g, want %g", tc.pop, tc.q, got, tc.want)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	// 100 observations: 50 ≤ 1ms, 90 ≤ 5ms, 100 ≤ 25ms.
	bounds := []float64{0.001, 0.005, 0.025}
	cum := []int64{50, 90, 100}
	p50 := histQuantile(bounds, cum, 100, 0.50)
	if p50 <= 0 || p50 > 0.001 {
		t.Errorf("p50 = %g, want within (0, 0.001]", p50)
	}
	p99 := histQuantile(bounds, cum, 100, 0.99)
	if p99 <= 0.005 || p99 > 0.025 {
		t.Errorf("p99 = %g, want within (0.005, 0.025]", p99)
	}
	if got := histQuantile(nil, nil, 0, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %g, want 0", got)
	}
}

func TestParseServerStats(t *testing.T) {
	text := `# HELP rispp_tenant_shed_total Requests rejected.
# TYPE rispp_tenant_shed_total counter
rispp_tenant_shed_total{tenant="bronze",reason="rate"} 7
rispp_tenant_shed_total{tenant="gold",reason="queue"} 2
rispp_tenant_admitted_total{tenant="gold",class="interactive"} 41
rispp_qos_queue_depth{class="batch"} 3
rispp_endpoint_latency_seconds_bucket{route="/v1/simulate",le="0.001"} 50
rispp_endpoint_latency_seconds_bucket{route="/v1/simulate",le="0.005"} 90
rispp_endpoint_latency_seconds_bucket{route="/v1/simulate",le="+Inf"} 100
rispp_endpoint_latency_seconds_count{route="/v1/simulate"} 100
`
	st := parseServerStats(text)
	if st.TenantSheds["bronze/rate"] != 7 || st.TenantSheds["gold/queue"] != 2 {
		t.Errorf("sheds = %v", st.TenantSheds)
	}
	if st.TenantAdmits["gold/interactive"] != 41 {
		t.Errorf("admits = %v", st.TenantAdmits)
	}
	if st.QueueDepth["batch"] != 3 {
		t.Errorf("queue depth = %v", st.QueueDepth)
	}
	p50 := st.EndpointP50MS["/v1/simulate"]
	if p50 <= 0 || p50 > 1 {
		t.Errorf("server p50 = %gms, want within (0, 1]", p50)
	}
}

// TestGeneratorDeterminism: same seed → same request sequence per worker.
func TestGeneratorDeterminism(t *testing.T) {
	p := Quick(42).withDefaults()
	draw := func() []string {
		g := newGenerator(p)
		rngT := p.Tenants[0]
		var seq []string
		rng := newTestRNG(workerSeed(p.Seed, rngT.Name, 0))
		for i := 0; i < 50; i++ {
			r := g.next(rng, rngT)
			seq = append(seq, r.route+"|"+string(r.body))
		}
		return seq
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between identically seeded runs:\n%s\n%s", i, a[i], b[i])
		}
	}
	// Different seeds must differ somewhere (sanity that the seed matters).
	p2 := p
	p2.Seed = 43
	g2 := newGenerator(p2)
	rng2 := newTestRNG(workerSeed(p2.Seed, p2.Tenants[0].Name, 0))
	same := true
	for i := 0; i < 50; i++ {
		r := g2.next(rng2, p2.Tenants[0])
		if a[i] != r.route+"|"+string(r.body) {
			same = false
			break
		}
	}
	if same {
		t.Error("seed 42 and 43 produced identical request sequences")
	}
}

func TestFairnessEdgeCases(t *testing.T) {
	// Single active tenant is trivially fair.
	rep := &Report{Tenants: map[string]*TenantReport{
		"solo": {Weight: 1, Total: EndpointStats{Requests: 10}},
		"idle": {Weight: 1},
	}}
	if f := fairness(rep, []sample{{tenant: "solo", code: 200, steady: true}}); f != 1 {
		t.Errorf("single-tenant fairness = %g, want 1", f)
	}
	// A fully starved tenant drives fairness to 0.
	rep2 := &Report{Tenants: map[string]*TenantReport{
		"gold":   {Weight: 1, Total: EndpointStats{Requests: 10}},
		"bronze": {Weight: 1, Total: EndpointStats{Requests: 10}},
	}}
	f := fairness(rep2, []sample{
		{tenant: "gold", code: 200, steady: true},
		{tenant: "bronze", code: 429, steady: true},
	})
	if f != 0 {
		t.Errorf("starved-tenant fairness = %g, want 0", f)
	}
	if math.IsNaN(f) {
		t.Error("fairness is NaN")
	}
}

// TestRunEndToEnd drives a short two-tenant profile against an in-process
// server and checks the report is internally consistent and meets the
// loose CI SLOs.
func TestRunEndToEnd(t *testing.T) {
	p := Quick(7)
	p.Duration = 1500 * time.Millisecond
	p.Warmup = 300 * time.Millisecond
	p.Points = 8
	p.Frames = 1
	for i := range p.Tenants {
		p.Tenants[i].Workers = 2
	}
	rep, err := Run(context.Background(), p, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Total.Requests == 0 {
		t.Fatal("no requests issued")
	}
	if rep.Total.Errors5x != 0 {
		t.Errorf("%d server errors during soak", rep.Total.Errors5x)
	}
	for _, tenant := range []string{"gold", "bronze"} {
		tr := rep.Tenants[tenant]
		if tr == nil || tr.Total.Requests == 0 {
			t.Errorf("tenant %s issued no requests", tenant)
		}
	}
	if rs := rep.Routes["/v1/simulate"]; rs == nil || rs.OK == 0 {
		t.Error("no successful simulate requests")
	}
	// The scraped server stats must reflect the same traffic the client
	// saw (the acceptance criterion: /metrics series consumed by the
	// report).
	if len(rep.Server.TenantAdmits) == 0 {
		t.Error("report carries no server-side admit series")
	}
	if rep.Server.EndpointP99MS["/v1/simulate"] <= 0 {
		t.Error("report carries no server-side simulate latency quantile")
	}
	if !rep.Pass {
		t.Errorf("short soak failed SLOs: %v", rep.Violations)
	}
}
