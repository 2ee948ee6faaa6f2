package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rispp/internal/explore"
)

// qosHarness drives the scheduler directly (no HTTP, no clocks): held
// slots keep the pool busy, enqueue parks acquisitions in the queue, and
// drain releases slots one at a time recording exactly which tenant's
// waiter each freed slot goes to.
type qosHarness struct {
	t      *testing.T
	q      *qsched
	got    chan *waiter // receives each dispatched waiter, tagged by tenant
	held   []*waiter
	queued map[string]int // tenant\x00class → enqueues so far (registration barrier)
}

func newQosHarness(t *testing.T, slots int, cfg QoSConfig) *qosHarness {
	return &qosHarness{t: t, q: newQsched(slots, cfg, nil), got: make(chan *waiter, 256), queued: make(map[string]int)}
}

func (h *qosHarness) hold(n int) {
	h.t.Helper()
	for i := 0; i < n; i++ {
		w, err := h.q.acquire(context.Background(), "holder", classInteractive, 1)
		if err != nil {
			h.t.Fatalf("hold slot %d: %v", i, err)
		}
		h.held = append(h.held, w)
	}
}

// enqueue starts an acquire in the background and blocks until that
// specific waiter is registered in its tenant queue (so the virtual start
// times of successive enqueues are assigned in call order, making the
// expected WFQ schedule exact).
func (h *qosHarness) enqueue(tenant string, class int, cost float64) {
	h.t.Helper()
	key := tenant + "\x00" + className(class)
	h.queued[key]++
	want := h.queued[key]
	go func() {
		w, err := h.q.acquire(context.Background(), tenant, class, cost)
		if err != nil {
			h.t.Errorf("acquire %s: %v", tenant, err)
			return
		}
		h.got <- w
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		h.q.mu.Lock()
		n := 0
		if ts, ok := h.q.tenants[tenant]; ok {
			for _, w := range ts.queues[class] {
				if w.state == waiting {
					n++
				}
			}
		}
		h.q.mu.Unlock()
		if n >= want {
			return
		}
		if time.Now().After(deadline) {
			h.t.Fatalf("waiter %d for %s never queued (have %d)", want, tenant, n)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// drain releases one held slot per queued waiter and returns the tenant
// dispatch order. Each dispatched waiter's slot is held until its own
// release turn, so exactly one waiter runs per free slot.
func (h *qosHarness) drain(n int) []string {
	h.t.Helper()
	var order []string
	for i := 0; i < n; i++ {
		if len(h.held) == 0 {
			h.t.Fatal("no held slot to release")
		}
		h.q.release(h.held[0])
		h.held = h.held[1:]
		select {
		case w := <-h.got:
			order = append(order, w.tenant.name)
			h.held = append(h.held, w)
		case <-time.After(5 * time.Second):
			h.t.Fatalf("no waiter dispatched after release (order so far %v)", order)
		}
	}
	return order
}

// TestWFQWeightedOrder: with one slot and saturated demand from a
// weight-1 and a weight-3 tenant, dispatches follow virtual start times —
// the heavy tenant gets ~3 of every 4 slots.
func TestWFQWeightedOrder(t *testing.T) {
	h := newQosHarness(t, 1, QoSConfig{
		Tenants: map[string]TenantLimits{
			"light": {Weight: 1, MaxQueue: 64},
			"heavy": {Weight: 3, MaxQueue: 64},
		},
		InteractiveQueue: 64,
	})
	h.hold(1)
	for i := 0; i < 4; i++ {
		h.enqueue("light", classInteractive, 12)
	}
	for i := 0; i < 12; i++ {
		h.enqueue("heavy", classInteractive, 12)
	}
	order := h.drain(16)

	heavy := 0
	for _, name := range order[:8] {
		if name == "heavy" {
			heavy++
		}
	}
	// In any SFQ-fair first half, heavy holds a 3:1 share (±1 for the
	// tie-break at equal virtual start).
	if heavy < 5 || heavy > 7 {
		t.Errorf("first 8 dispatches gave heavy %d slots, want ~6 (order %v)", heavy, order)
	}
	if heavy == 8 {
		t.Errorf("light tenant starved in first half: %v", order)
	}
}

// TestWFQStarvationFreedom: a flood from one tenant cannot starve another;
// a late arrival with no banked service leaps to the front, and every
// request eventually dispatches.
func TestWFQStarvationFreedom(t *testing.T) {
	h := newQosHarness(t, 1, QoSConfig{InteractiveQueue: 256})
	h.hold(1)
	for i := 0; i < 30; i++ {
		h.enqueue("flooder", classInteractive, 10)
	}
	for i := 0; i < 2; i++ {
		h.enqueue("victim", classInteractive, 10)
	}
	order := h.drain(32) // completing at all is the starvation-freedom half

	firstVictim := -1
	for i, name := range order {
		if name == "victim" {
			firstVictim = i
			break
		}
	}
	if firstVictim < 0 {
		t.Fatalf("victim never dispatched: %v", order)
	}
	// The victim's first request enters at the global virtual clock — far
	// below the flooder's banked virtual finish — so it must not sit
	// behind the whole backlog.
	if firstVictim > 3 {
		t.Errorf("victim's first dispatch at position %d, want near the front (order %v)", firstVictim, order)
	}
}

// TestPriorityPreemption: when both classes wait, every interactive
// request dispatches before any batch request, even batch requests that
// arrived earlier.
func TestPriorityPreemption(t *testing.T) {
	h := newQosHarness(t, 1, QoSConfig{InteractiveQueue: 64, BatchQueue: 64})
	h.hold(1)
	for i := 0; i < 3; i++ {
		h.enqueue("batcher", classBatch, 10)
	}
	for i := 0; i < 3; i++ {
		h.enqueue("clicker", classInteractive, 10)
	}
	order := h.drain(6)
	want := []string{"clicker", "clicker", "clicker", "batcher", "batcher", "batcher"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v (interactive must preempt batch)", order, want)
		}
	}
}

// TestInteractiveReserve: batch work may not occupy the reserved slots, so
// an interactive request always finds one free.
func TestInteractiveReserve(t *testing.T) {
	cfg := QoSConfig{InteractiveReserve: 1, BatchQueue: 64}
	q := newQsched(2, cfg, nil)

	// First batch job takes the one unreserved slot...
	w1, err := q.acquire(context.Background(), "batcher", classBatch, 1)
	if err != nil {
		t.Fatal(err)
	}
	// ...the second must queue even though a raw slot is free.
	second := make(chan *waiter, 1)
	go func() {
		w, err := q.acquire(context.Background(), "batcher", classBatch, 1)
		if err != nil {
			t.Errorf("queued batch acquire: %v", err)
			return
		}
		second <- w
	}()
	select {
	case <-second:
		t.Fatal("batch job occupied the interactive reserve")
	case <-time.After(20 * time.Millisecond):
	}
	// An interactive request takes the reserved slot immediately.
	wi, err := q.acquire(context.Background(), "clicker", classInteractive, 1)
	if err != nil {
		t.Fatalf("interactive request blocked by batch saturation: %v", err)
	}
	q.release(wi)
	q.release(w1)
	select {
	case w := <-second:
		q.release(w)
	case <-time.After(5 * time.Second):
		t.Fatal("queued batch job never dispatched after release")
	}
}

// TestQueueCancellation: a queued waiter whose context expires leaves the
// queue and does not consume a slot when one frees up later.
func TestQueueCancellation(t *testing.T) {
	q := newQsched(1, QoSConfig{InteractiveQueue: 8}, nil)
	held, err := q.acquire(context.Background(), "holder", classInteractive, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := q.acquire(ctx, "impatient", classInteractive, 1)
		errc <- err
	}()
	// Wait for it to queue, then abandon.
	for {
		if d := q.queueDepths(); d[classInteractive] == 1 {
			break
		}
		time.Sleep(50 * time.Microsecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("abandoned acquire: %v, want context.Canceled", err)
	}
	q.release(held)
	// The freed slot must be immediately acquirable: the canceled waiter
	// did not take it.
	w, err := q.acquire(context.Background(), "next", classInteractive, 1)
	if err != nil {
		t.Fatalf("slot leaked to canceled waiter: %v", err)
	}
	q.release(w)
}

// TestQuotaExhaustion429: a tenant at its in-flight quota sheds with 429
// and a Retry-After header while another tenant still gets slots —
// through the real HTTP stack.
func TestQuotaExhaustion429(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 4,
		QoS: QoSConfig{
			Tenants: map[string]TenantLimits{"capped": {MaxInFlight: 1}},
		},
	})
	b := newBlockingRun(s)
	h := s.Handler()

	post := func(tenant, scheduler string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
			strings.NewReader(`{"scheduler":"`+scheduler+`","frames":1}`))
		req.Header.Set("X-Tenant", tenant)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { firstDone <- post("capped", "HEF") }()
	b.waitStarted(t)

	// Second distinct point from the capped tenant: quota shed.
	w := post("capped", "ASF")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("capped tenant second request: status %d, want 429 (body %s)", w.Code, w.Body.String())
	}
	ra, err := strconv.Atoi(w.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Errorf("429 Retry-After %q, want integer >= 1", w.Header().Get("Retry-After"))
	}

	// A different tenant is unaffected: slots are free.
	other := make(chan *httptest.ResponseRecorder, 1)
	go func() { other <- post("roomy", "SJF") }()
	b.waitStarted(t)

	close(b.release)
	if w := <-firstDone; w.Code != http.StatusOK {
		t.Fatalf("capped tenant first request: status %d (body %s)", w.Code, w.Body.String())
	}
	if w := <-other; w.Code != http.StatusOK {
		t.Fatalf("other tenant: status %d (body %s)", w.Code, w.Body.String())
	}

	// The shed is attributed to the right tenant in /metrics.
	m := s.Metrics()
	if !strings.Contains(m, `rispp_tenant_shed_total{tenant="capped",reason="quota"} 1`) {
		t.Errorf("metrics missing capped-tenant quota shed:\n%s", m)
	}
}

// TestRateQuota429: cost-rate admission control sheds with a Retry-After
// derived from the token deficit.
func TestRateQuota429(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 4,
		QoS: QoSConfig{
			Tenants: map[string]TenantLimits{
				// The burst covers one cheap run; refill is so slow the
				// second request must shed.
				"metered": {CostPerSec: 0.1, Burst: 1.5},
			},
		},
	})
	h := s.Handler()
	post := func(scheduler string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
			strings.NewReader(`{"scheduler":"`+scheduler+`","frames":1}`))
		req.Header.Set("X-Tenant", "metered")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}
	if w := post("HEF"); w.Code != http.StatusOK {
		t.Fatalf("first metered request: status %d (body %s)", w.Code, w.Body.String())
	}
	w := post("ASF")
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second metered request: status %d, want 429 (body %s)", w.Code, w.Body.String())
	}
	if ra, err := strconv.Atoi(w.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("rate shed Retry-After %q, want >= 1s", w.Header().Get("Retry-After"))
	}
	if !strings.Contains(s.Metrics(), `rispp_tenant_shed_total{tenant="metered",reason="rate"} 1`) {
		t.Errorf("metrics missing rate shed:\n%s", s.Metrics())
	}
}

// TestTenantIdentification: X-Tenant wins, bearer tokens map through the
// config, unknown callers fold to "anonymous", and hostile names are
// sanitized before becoming metric labels.
func TestTenantIdentification(t *testing.T) {
	s := newTestServer(t, Config{
		QoS: QoSConfig{Tokens: map[string]string{"s3cret": "alice"}},
	})
	cases := []struct {
		name   string
		header map[string]string
		want   string
	}{
		{"x-tenant", map[string]string{"X-Tenant": "bob"}, "bob"},
		{"token", map[string]string{"Authorization": "Bearer s3cret"}, "alice"},
		{"unknown token", map[string]string{"Authorization": "Bearer nope"}, "anonymous"},
		{"none", nil, "anonymous"},
		{"hostile label", map[string]string{"X-Tenant": `evil"} {inject`}, "evil____inject"},
		{"x-tenant beats token", map[string]string{"X-Tenant": "bob", "Authorization": "Bearer s3cret"}, "bob"},
		{"capped at 32 bytes", map[string]string{"X-Tenant": "abcdefghij-abcdefghij-abcdefghij-abcdefg"}, "abcdefghij-abcdefghij-abcdefghij"},
		{"multi-byte", map[string]string{"X-Tenant": "zoë"}, "zo__"},
	}
	for _, tc := range cases {
		h := http.Header{}
		for k, v := range tc.header {
			h.Set(k, v)
		}
		if got := s.tenantOf(h); got != tc.want {
			t.Errorf("%s: tenant %q, want %q", tc.name, got, tc.want)
		}
	}

	// A clean name is the common case on every request: it must not be
	// copied.
	h := http.Header{"X-Tenant": {"tenant-a.prod_1"}}
	if n := testing.AllocsPerRun(100, func() { s.tenantOf(h) }); n != 0 {
		t.Errorf("tenantOf with a clean X-Tenant: %v allocs, want 0", n)
	}
}

// TestHotReloadLimits: UpdateQoS changes take effect for the next
// admission without restarting or disturbing in-flight work.
func TestHotReloadLimits(t *testing.T) {
	s := newTestServer(t, Config{Workers: 4})
	b := newBlockingRun(s)
	h := s.Handler()
	post := func(scheduler string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
			strings.NewReader(`{"scheduler":"`+scheduler+`","frames":1}`))
		req.Header.Set("X-Tenant", "t1")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w
	}

	// Unlimited at first: a request runs and parks.
	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- post("HEF") }()
	b.waitStarted(t)

	// Tighten to MaxInFlight 1 while that request is still running.
	s.UpdateQoS(QoSConfig{Tenants: map[string]TenantLimits{"t1": {MaxInFlight: 1}}})
	if w := post("ASF"); w.Code != http.StatusTooManyRequests {
		t.Fatalf("after reload: status %d, want 429 (body %s)", w.Code, w.Body.String())
	}

	// Loosen again: the same request now runs.
	s.UpdateQoS(QoSConfig{})
	second := make(chan *httptest.ResponseRecorder, 1)
	go func() { second <- post("ASF") }()
	b.waitStarted(t)

	close(b.release)
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("first: status %d", w.Code)
	}
	if w := <-second; w.Code != http.StatusOK {
		t.Fatalf("second after loosening: status %d", w.Code)
	}
}

// TestCostModelLearns: measured runs move the class EWMA toward the
// observed cost, and distinct cost classes stay separated.
func TestCostModelLearns(t *testing.T) {
	c := newCostModel()
	p := explore.Point{Scheduler: "HEF", Frames: 140}
	if prior := c.predict(p); prior <= 0 {
		t.Fatalf("prior cost %g, want > 0", prior)
	}
	for i := 0; i < 50; i++ {
		c.observe(p, 500*time.Microsecond)
	}
	got := c.predict(p)
	if got < 400 || got > 600 {
		t.Errorf("after observing 500µs runs, predict = %gµs, want ~500", got)
	}
	q := explore.Point{Scheduler: "software", Frames: 1}
	if c.predict(q) == got {
		t.Errorf("cost classes not separated: %q vs %q", costClass(p), costClass(q))
	}
}

// TestQoSMetricsExposition: the new SLO series render with the expected
// names and labels after traffic.
func TestQoSMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
		strings.NewReader(`{"scheduler":"software","frames":1}`))
	req.Header.Set("X-Tenant", "alice")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("simulate: status %d", w.Code)
	}
	m := s.Metrics()
	for _, series := range []string{
		`rispp_endpoint_latency_seconds_count{route="/v1/simulate"} 1`,
		`rispp_tenant_admitted_total{tenant="alice",class="interactive"} 1`,
		`rispp_qos_queue_depth{class="interactive"} 0`,
		`rispp_qos_queue_depth{class="batch"} 0`,
		`rispp_cost_class_us{class="software/f1"}`,
	} {
		if !strings.Contains(m, series) {
			t.Errorf("metrics missing %q:\n%s", series, m)
		}
	}
}

// TestAccessLog: each request emits one structured JSON line with tenant,
// route, class and status.
func TestAccessLog(t *testing.T) {
	var buf syncBuffer
	s := newTestServer(t, Config{AccessLog: &buf})
	h := s.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate",
		strings.NewReader(`{"scheduler":"software","frames":1}`))
	req.Header.Set("X-Tenant", "alice")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	line := buf.String()
	for _, frag := range []string{`"route":"/v1/simulate"`, `"tenant":"alice"`, `"class":"interactive"`, `"code":200`, `"cache":"miss"`} {
		if !strings.Contains(line, frag) {
			t.Errorf("access log missing %s: %s", frag, line)
		}
	}
}

// TestQueuedInteractiveRunsAfterRelease: with a queue configured, an
// interactive request waits for a slot instead of shedding, then runs.
func TestQueuedInteractiveRunsAfterRelease(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QoS: QoSConfig{InteractiveQueue: 8}})
	b := newBlockingRun(s)
	h := s.Handler()

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		first <- postJSON(t, h, "/v1/simulate", SimulateRequest{Point: explore.Point{Scheduler: "HEF", Frames: 1}})
	}()
	b.waitStarted(t)

	second := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		second <- postJSON(t, h, "/v1/simulate", SimulateRequest{Point: explore.Point{Scheduler: "ASF", Frames: 1}})
	}()
	// The second request queues rather than shedding; let it sit briefly.
	select {
	case w := <-second:
		t.Fatalf("queued request returned early: status %d (body %s)", w.Code, w.Body.String())
	case <-time.After(50 * time.Millisecond):
	}
	close(b.release)
	if w := <-first; w.Code != http.StatusOK {
		t.Fatalf("first: status %d", w.Code)
	}
	if w := <-second; w.Code != http.StatusOK {
		t.Fatalf("queued second: status %d (body %s)", w.Code, w.Body.String())
	}
}

// syncBuffer is a mutex-guarded buffer for concurrent log writes.
type syncBuffer struct {
	mu sync.Mutex
	b  []byte
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.b = append(s.b, p...)
	return len(p), nil
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return string(s.b)
}
