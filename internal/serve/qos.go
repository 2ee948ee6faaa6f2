package serve

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"rispp/internal/explore"
)

// This file is the multi-tenant QoS layer: who a request belongs to
// (tenant identification), whether it may run at all (admission control:
// per-tenant concurrency quotas and a cost-rate token bucket), and when it
// runs (start-time fair queueing over the simulation-slot pool with two
// priority classes). The scarce resource being arbitrated is exactly the
// paper's: a fixed pool of "fabric" slots time-shared by competing
// demands — the serving layer applies the same discipline fleet-wide that
// the run-time system applies per-cycle.

// Request priority classes. Interactive requests (/v1/simulate) are
// latency-sensitive and always dispatch before batch work; batch requests
// (/v1/explore jobs, /v1/suggest) are throughput work that queues.
const (
	classInteractive = 0
	classBatch       = 1
	numClasses       = 2
)

func className(class int) string {
	if class == classInteractive {
		return "interactive"
	}
	return "batch"
}

// TenantLimits are one tenant's QoS knobs. The zero value means
// "unlimited, weight 1" — the open default that keeps single-tenant
// deployments behaving exactly like the pre-QoS server.
type TenantLimits struct {
	// Weight is the WFQ share (default 1). A weight-3 tenant gets 3x the
	// slot time of a weight-1 tenant when both have queued demand.
	Weight int `json:"weight,omitempty"`
	// MaxInFlight caps slots held concurrently (0 = unlimited).
	MaxInFlight int `json:"max_inflight,omitempty"`
	// MaxQueue caps waiting requests per class (0 = server default).
	MaxQueue int `json:"max_queue,omitempty"`
	// CostPerSec refills the admission token bucket, in cost units
	// (predicted simulation microseconds) per second; 0 = unlimited.
	CostPerSec float64 `json:"cost_per_sec,omitempty"`
	// Burst is the bucket capacity (0 = 2 seconds of refill).
	Burst float64 `json:"burst,omitempty"`
}

func (l TenantLimits) weight() float64 {
	if l.Weight <= 0 {
		return 1
	}
	return float64(l.Weight)
}

func (l TenantLimits) burst() float64 {
	if l.Burst > 0 {
		return l.Burst
	}
	return 2 * l.CostPerSec
}

// QoSConfig is the multi-tenant policy: named tenant limits, the default
// for unknown tenants, bearer-token identities, and the pool-sharing
// knobs. The zero value reproduces the pre-QoS behavior (one anonymous
// tenant, immediate shed on saturation, no quotas).
type QoSConfig struct {
	// Tenants maps tenant name → limits.
	Tenants map[string]TenantLimits `json:"tenants,omitempty"`
	// Default applies to tenants not in Tenants.
	Default TenantLimits `json:"default,omitempty"`
	// Tokens maps "Authorization: Bearer <token>" values to tenant names.
	// Requests may also self-identify with the X-Tenant header.
	Tokens map[string]string `json:"tokens,omitempty"`
	// InteractiveQueue is the default per-tenant queue depth for
	// interactive requests when no slot is free; 0 sheds immediately
	// (the pre-QoS 429 behavior).
	InteractiveQueue int `json:"interactive_queue,omitempty"`
	// BatchQueue is the default per-tenant queue depth for batch jobs
	// (0 = 4096).
	BatchQueue int `json:"batch_queue,omitempty"`
	// InteractiveReserve keeps this many slots unavailable to batch work
	// so an interactive request never waits behind a pool full of sweep
	// jobs (0 = no reservation).
	InteractiveReserve int `json:"interactive_reserve,omitempty"`
}

// limitsFor resolves the effective limits of a tenant.
func (q QoSConfig) limitsFor(name string) TenantLimits {
	if l, ok := q.Tenants[name]; ok {
		return l
	}
	return q.Default
}

// tenantOf identifies the requesting tenant: an explicit X-Tenant header
// wins, then a configured bearer token, then the anonymous default. Names
// are sanitized (length-capped, label-safe charset) because they become
// metric label values.
func (s *Server) tenantOf(h interface{ Get(string) string }) string {
	if t := h.Get("X-Tenant"); t != "" {
		return sanitizeTenant(t)
	}
	if ah := h.Get("Authorization"); strings.HasPrefix(ah, "Bearer ") {
		if name, ok := s.qosCfg().Tokens[strings.TrimPrefix(ah, "Bearer ")]; ok {
			return sanitizeTenant(name)
		}
	}
	return "anonymous"
}

// sanitizeTenant caps t at 32 bytes and replaces every byte outside the
// label-safe set [A-Za-z0-9._-] with '_'. A clean name is returned as is.
func sanitizeTenant(t string) string {
	if len(t) > 32 {
		t = t[:32]
	}
	i := 0
	for i < len(t) && labelSafe(t[i]) {
		i++
	}
	if i == len(t) {
		return t
	}
	b := []byte(t)
	for ; i < len(b); i++ {
		if !labelSafe(b[i]) {
			b[i] = '_'
		}
	}
	return string(b)
}

func labelSafe(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == '.'
}

// shedError is an admission/scheduling rejection; handlers map it to 429
// with the embedded Retry-After hint.
type shedError struct {
	reason     string // "saturated" | "queue" | "quota" | "rate"
	retryAfter time.Duration
	detail     string
}

func (e *shedError) Error() string { return "serve: shed (" + e.reason + "): " + e.detail }

// costClass buckets a design point into the cost class its admission
// price is learned under. The dominant cost driver is the workload size
// (simulated cycles scale with Frames) and the run-time system; the class
// string is derived from the point's canonical Key() fields so equal
// points always share a class.
func costClass(p explore.Point) string {
	p = p.Normalized()
	// Frames bucket: powers-of-two-ish decades keep the class count small
	// while separating 1-frame smoke points from full 140-frame runs.
	b := 1
	for b < p.Frames && b < 1<<20 {
		b <<= 1
	}
	return p.Scheduler + "/f" + strconv.Itoa(b)
}

// costModel learns per-class simulation cost (in microseconds) from
// measured runs. Predictions drive both the WFQ service amount and the
// token-bucket admission charge; until a class has been observed the
// prior is proportional to the frame count.
type costModel struct {
	mu      sync.Mutex
	classes map[string]float64 // class → EWMA cost, µs
}

func newCostModel() *costModel { return &costModel{classes: make(map[string]float64)} }

const costEWMAAlpha = 0.2

// predict returns the admission cost of a point in µs (≥ 1).
func (c *costModel) predict(p explore.Point) float64 {
	class := costClass(p)
	c.mu.Lock()
	v, ok := c.classes[class]
	c.mu.Unlock()
	if ok {
		return v
	}
	// Prior: ~0.4µs per frame of compiled-trace walk, floored at 1µs.
	p = p.Normalized()
	prior := 0.4 * float64(p.Frames)
	if prior < 1 {
		prior = 1
	}
	return prior
}

// observe folds a measured run into the class EWMA.
func (c *costModel) observe(p explore.Point, d time.Duration) {
	us := float64(d) / float64(time.Microsecond)
	if us < 1 {
		us = 1
	}
	class := costClass(p)
	c.mu.Lock()
	if v, ok := c.classes[class]; ok {
		c.classes[class] = v + costEWMAAlpha*(us-v)
	} else {
		c.classes[class] = us
	}
	c.mu.Unlock()
}

// snapshot returns the learned classes in map form (metrics export).
func (c *costModel) snapshot() map[string]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]float64, len(c.classes))
	for k, v := range c.classes {
		out[k] = v
	}
	return out
}

// waiter is one queued acquisition. ready is closed exactly once when the
// scheduler dispatches the waiter (slot charged to its tenant).
type waiter struct {
	tenant *tenantState
	class  int
	cost   float64
	vstart float64
	ready  chan struct{}
	// state transitions under qsched.mu: waiting → dispatched | canceled.
	state int
}

const (
	waiting = iota
	dispatched
	canceled
)

// tenantState is the scheduler's per-tenant book-keeping.
type tenantState struct {
	name     string
	lim      TenantLimits
	inflight int
	vfinish  float64 // WFQ virtual finish time of the last admitted request
	bucket   float64 // admission tokens (cost units)
	bucketAt time.Time
	queues   [numClasses][]*waiter
}

// qsched arbitrates the simulation-slot pool: a start-time fair queueing
// (SFQ) scheduler with strict priority between the two classes, per-tenant
// concurrency quotas and bounded per-tenant queues. All state is under one
// mutex; dispatch work per release is O(active tenants).
type qsched struct {
	mu        sync.Mutex
	slots     int
	used      int
	batchUsed int
	cfg       QoSConfig
	vtime     float64 // global virtual time (vstart of last dispatch)
	tenants   map[string]*tenantState
	met       *metrics // per-tenant shed/admit counters; may be nil in unit tests
	now       func() time.Time
}

func newQsched(slots int, cfg QoSConfig, met *metrics) *qsched {
	return &qsched{
		slots:   slots,
		cfg:     cfg,
		tenants: make(map[string]*tenantState),
		met:     met,
		now:     time.Now,
	}
}

// maxTenantStates caps the tenant table so an attacker cycling X-Tenant
// values cannot grow server memory or metric cardinality without bound;
// past the cap all new names share one overflow tenant (default limits).
const maxTenantStates = 64

func (q *qsched) tenantLocked(name string) *tenantState {
	if ts, ok := q.tenants[name]; ok {
		return ts
	}
	if len(q.tenants) >= maxTenantStates {
		name = "_overflow"
		if ts, ok := q.tenants[name]; ok {
			return ts
		}
	}
	ts := &tenantState{name: name, lim: q.cfg.limitsFor(name), bucketAt: q.now()}
	ts.bucket = ts.lim.burst()
	q.tenants[name] = ts
	return ts
}

// setConfig hot-swaps the QoS policy: limits of existing tenants are
// re-resolved, queued work keeps its position, in-flight work is
// unaffected. Shrinking a quota never cancels running requests — it only
// gates new admissions.
func (q *qsched) setConfig(cfg QoSConfig) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cfg = cfg
	for name, ts := range q.tenants {
		old := ts.lim
		ts.lim = cfg.limitsFor(name)
		if ts.lim.burst() != old.burst() && ts.bucket > ts.lim.burst() {
			ts.bucket = ts.lim.burst()
		}
	}
	q.dispatchLocked()
}

func (q *qsched) config() QoSConfig {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.cfg
}

// refillLocked advances a tenant's token bucket to now.
func (ts *tenantState) refillLocked(now time.Time) {
	if ts.lim.CostPerSec <= 0 {
		return
	}
	dt := now.Sub(ts.bucketAt).Seconds()
	if dt > 0 {
		ts.bucket += dt * ts.lim.CostPerSec
		if max := ts.lim.burst(); ts.bucket > max {
			ts.bucket = max
		}
	}
	ts.bucketAt = now
}

// admit charges cost units against the tenant's rate bucket. It is the
// admission-control half of QoS: callers charge once per unit of accepted
// work (one simulate run, one whole sweep) before scheduling it. A nil
// error means the charge was taken.
func (q *qsched) admit(tenant string, cost float64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	ts := q.tenantLocked(tenant)
	if ts.lim.CostPerSec <= 0 {
		return nil
	}
	ts.refillLocked(q.now())
	if ts.bucket >= cost {
		ts.bucket -= cost
		return nil
	}
	deficit := cost - ts.bucket
	retry := time.Duration(deficit / ts.lim.CostPerSec * float64(time.Second))
	if retry < time.Second {
		retry = time.Second
	}
	q.shedLocked(ts.name, "rate")
	return &shedError{reason: "rate", retryAfter: retry,
		detail: fmt.Sprintf("tenant %s over cost budget (%.0f units short)", ts.name, deficit)}
}

func (q *qsched) shedLocked(tenant, reason string) {
	if q.met != nil {
		q.met.sheds.inc(tenant, reason)
	}
}

// queueCap resolves the waiting-line depth for a tenant and class.
func (q *qsched) queueCapLocked(ts *tenantState, class int) int {
	if ts.lim.MaxQueue > 0 {
		return ts.lim.MaxQueue
	}
	if class == classInteractive {
		return q.cfg.InteractiveQueue
	}
	if q.cfg.BatchQueue > 0 {
		return q.cfg.BatchQueue
	}
	return 4096
}

// eligibleLocked reports whether the tenant's head-of-line waiter in class
// could be dispatched right now (quota headroom; the caller has already
// established pool headroom for the class).
func (ts *tenantState) eligibleLocked() bool {
	return ts.lim.MaxInFlight <= 0 || ts.inflight < ts.lim.MaxInFlight
}

// headLocked returns the first non-canceled waiter of a class queue,
// compacting canceled entries.
func (ts *tenantState) headLocked(class int) *waiter {
	queue := ts.queues[class]
	for len(queue) > 0 && queue[0].state == canceled {
		queue = queue[1:]
	}
	ts.queues[class] = queue
	if len(queue) == 0 {
		return nil
	}
	return queue[0]
}

// dispatchLocked promotes waiters while slots are free: every interactive
// waiter beats every batch waiter (strict priority); within a class, the
// tenant with the smallest virtual start time wins (start-time fairness —
// weighted, starvation-free because vstart is assigned at enqueue time and
// only grows). Batch dispatch additionally respects the interactive slot
// reservation.
func (q *qsched) dispatchLocked() {
	for q.used < q.slots {
		var best *waiter
		for class := 0; class < numClasses; class++ {
			if class == classBatch && q.batchUsed >= q.slots-q.cfg.InteractiveReserve {
				break
			}
			for _, ts := range q.tenants {
				w := ts.headLocked(class)
				if w == nil || !ts.eligibleLocked() {
					continue
				}
				if best == nil || w.vstart < best.vstart ||
					(w.vstart == best.vstart && w.tenant.name < best.tenant.name) {
					best = w
				}
			}
			if best != nil {
				break // strict priority: never look at batch while interactive waits
			}
		}
		if best == nil {
			return
		}
		ts := best.tenant
		ts.queues[best.class] = ts.queues[best.class][1:]
		best.state = dispatched
		q.grantLocked(best)
		close(best.ready)
	}
}

// grantLocked charges a dispatch to the books.
func (q *qsched) grantLocked(w *waiter) {
	q.used++
	if w.class == classBatch {
		q.batchUsed++
	}
	w.tenant.inflight++
	if w.vstart > q.vtime {
		q.vtime = w.vstart
	}
	if q.met != nil {
		q.met.admits.inc(w.tenant.name, className(w.class))
	}
}

// acquire obtains one simulation slot for tenant/class work of the given
// predicted cost. It dispatches immediately when the scheduler would pick
// this request anyway; otherwise it queues (bounded per tenant) and blocks
// until dispatched or ctx is done. Interactive requests with a zero queue
// depth shed immediately — the pre-QoS behavior.
func (q *qsched) acquire(ctx context.Context, tenant string, class int, cost float64) (*waiter, error) {
	q.mu.Lock()
	ts := q.tenantLocked(tenant)
	w := &waiter{
		tenant: ts,
		class:  class,
		cost:   cost,
		ready:  make(chan struct{}),
	}
	// SFQ virtual start: after everything this tenant already admitted,
	// but never before the global virtual clock (an idle tenant does not
	// bank credit from the past).
	w.vstart = ts.vfinish
	if q.vtime > w.vstart {
		w.vstart = q.vtime
	}
	ts.vfinish = w.vstart + cost/ts.lim.weight()

	ts.queues[class] = append(ts.queues[class], w)
	q.dispatchLocked()
	if w.state == dispatched {
		q.mu.Unlock()
		return w, nil
	}
	// Not dispatchable now: enforce the waiting-line bound. The new
	// arrival is by construction the deepest entry in its tenant queue.
	depth := 0
	for _, o := range ts.queues[class] {
		if o.state == waiting {
			depth++
		}
	}
	if cap := q.queueCapLocked(ts, class); depth > cap {
		w.state = canceled
		ts.vfinish -= cost / ts.lim.weight() // un-book the service it never got
		reason := "queue"
		detail := fmt.Sprintf("tenant %s %s queue full (%d waiting)", tenant, className(class), depth-1)
		if cap == 0 {
			if ts.lim.MaxInFlight > 0 && ts.inflight >= ts.lim.MaxInFlight {
				reason, detail = "quota", fmt.Sprintf("tenant %s at max in-flight %d", tenant, ts.lim.MaxInFlight)
			} else {
				reason, detail = "saturated", fmt.Sprintf("all %d simulation slots busy", q.slots)
			}
		}
		q.shedLocked(tenant, reason)
		q.mu.Unlock()
		return nil, &shedError{reason: reason, retryAfter: time.Second, detail: detail}
	}
	q.mu.Unlock()

	select {
	case <-w.ready:
		return w, nil
	case <-ctx.Done():
		q.mu.Lock()
		if w.state == dispatched {
			// Lost the race: the slot is ours; release it and fail.
			q.mu.Unlock()
			q.release(w)
			return nil, ctx.Err()
		}
		w.state = canceled
		q.mu.Unlock()
		return nil, ctx.Err()
	}
}

// release returns a slot and lets the scheduler hand it to the best
// waiter.
func (q *qsched) release(w *waiter) {
	q.mu.Lock()
	q.used--
	if w.class == classBatch {
		q.batchUsed--
	}
	w.tenant.inflight--
	q.dispatchLocked()
	q.mu.Unlock()
}

// queueDepths reports the current waiting count per class (metrics).
func (q *qsched) queueDepths() [numClasses]int {
	q.mu.Lock()
	defer q.mu.Unlock()
	var d [numClasses]int
	for _, ts := range q.tenants {
		for class := 0; class < numClasses; class++ {
			for _, w := range ts.queues[class] {
				if w.state == waiting {
					d[class]++
				}
			}
		}
	}
	return d
}
