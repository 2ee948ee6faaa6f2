package main

import (
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rispp/internal/explore"
)

// Span is one timed interval of the traced run: a call the benchmark made
// into a module's public function, or a request a node handled. Spans of one
// sweep or request share Group; Parent links a span to the one that caused
// it. Work carries the span's unit count where one exists (SI executions of
// a simulated point, 1 for a cache hit).
type Span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Name   string        `json:"name"`
	Group  string        `json:"group"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Work   int64         `json:"work,omitempty"`
}

func (s Span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so both runs share one code path.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a started span; end records it.
type openSpan struct {
	t *tracer
	s Span
}

func (t *tracer) begin(name, group string, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, s: Span{ID: t.ids.Add(1), Parent: parent, Name: name, Group: group, Start: time.Since(t.t0)}}
}

func (o *openSpan) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

func (o *openSpan) end(work int64) {
	if o == nil {
		return
	}
	o.s.End = time.Since(o.t.t0)
	o.s.Work = work
	o.t.mu.Lock()
	o.t.spans = append(o.t.spans, o.s)
	o.t.mu.Unlock()
}

// all returns a copy of the recorded spans.
func (t *tracer) all() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeJSONL writes every span as one JSON line.
func (t *tracer) writeJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

func named(spans []Span, name string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

func inGroup(spans []Span, group string) []Span {
	var out []Span
	for _, s := range spans {
		if s.Group == group {
			out = append(out, s)
		}
	}
	return out
}

func totalDur(spans []Span) time.Duration {
	var d time.Duration
	for _, s := range spans {
		d += s.dur()
	}
	return d
}

func durations(spans []Span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.dur().Seconds()
	}
	return out
}

// covered returns how much of parent's interval the children cover. Children
// of concurrent workers overlap; the union counts each instant once, and
// anything outside the parent is clipped.
func covered(parent Span, children []Span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			total += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b - cur.a
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent Span, children []Span) time.Duration {
	return parent.dur() - covered(parent, children)
}

// timedStore is an explore.Store decorator recording a span per Get and Put.
type timedStore struct {
	inner explore.Store
	tr    *tracer
	group func() (string, int64)
}

func (s *timedStore) Get(p explore.Point) (explore.Metrics, bool) {
	g, parent := s.group()
	sp := s.tr.begin("explore.cache_get", g, parent)
	m, ok := s.inner.Get(p)
	hit := int64(0)
	if ok {
		hit = 1
	}
	sp.end(hit)
	return m, ok
}

func (s *timedStore) Put(p explore.Point, m explore.Metrics) error {
	g, parent := s.group()
	sp := s.tr.begin("explore.cache_put", g, parent)
	err := s.inner.Put(p, m)
	sp.end(0)
	return err
}

// timedTransport is an http.RoundTripper recording a span per request, from
// the send to the close of the response body, named by name(req).
type timedTransport struct {
	base  http.RoundTripper
	tr    *tracer
	name  func(*http.Request) string
	group func() (string, int64)
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	g, parent := t.group()
	sp := t.tr.begin(t.name(req), g, parent)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		sp.end(0)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp}
	return resp, nil
}

// spanBody ends its span when the body is closed.
type spanBody struct {
	io.ReadCloser
	sp   *openSpan
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.sp.end(0) })
	return err
}

// spanHandler is the node middleware: one span per request, grouped by the
// client's X-Request-Id when it sends one.
func spanHandler(h http.Handler, tr *tracer, node string) http.Handler {
	if tr == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sp := tr.begin(node+" "+r.URL.Path, r.Header.Get("X-Request-Id"), 0)
		h.ServeHTTP(w, r)
		sp.end(0)
	})
}
