package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func span(a, b int) Span { return Span{Start: ms(a), End: ms(b)} }

func TestSelfTimeAgainstOverlappingChildren(t *testing.T) {
	parent := span(0, 100)
	cases := []struct {
		name     string
		children []Span
		self     time.Duration
	}{
		{"none", nil, ms(100)},
		{"disjoint", []Span{span(10, 20), span(50, 70)}, ms(70)},
		// Two workers' spans overlap in [30,40]: the union counts it once.
		{"concurrent workers", []Span{span(10, 40), span(30, 60), span(80, 90)}, ms(40)},
		{"identical", []Span{span(20, 40), span(20, 40)}, ms(80)},
		{"nested", []Span{span(10, 90), span(20, 30)}, ms(20)},
		// Children reaching outside the parent are clipped to it.
		{"clipped", []Span{span(-10, 10), span(95, 130)}, ms(85)},
		{"outside", []Span{span(120, 130)}, ms(100)},
		{"unsorted", []Span{span(60, 80), span(0, 20), span(15, 65)}, ms(20)},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.self {
			t.Errorf("%s: self %v, want %v", c.name, got, c.self)
		}
	}
}

func TestSelfTimeFromConcurrentlyRecordedSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("explore.execute", "g", 0)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				sp := tr.begin("runner.point", "g", root.id())
				time.Sleep(time.Millisecond)
				sp.end(1)
			}
		}()
	}
	wg.Wait()
	root.end(0)
	spans := tr.all()
	ex := named(spans, "explore.execute")[0]
	kids := named(spans, "runner.point")
	if len(kids) != 20 {
		t.Fatalf("%d child spans, want 20", len(kids))
	}
	self := selfTime(ex, kids)
	if self < 0 || self > ex.dur() {
		t.Fatalf("self %v outside [0, %v]", self, ex.dur())
	}
	// Four workers overlap, so the children's summed time exceeds the
	// parent's, yet the covered part never does.
	if totalDur(kids) <= covered(ex, kids) {
		t.Fatalf("sum %v should exceed the union %v of overlapping spans", totalDur(kids), covered(ex, kids))
	}
	for _, k := range kids {
		if k.Parent != ex.ID || k.Group != "g" || k.Work != 1 {
			t.Fatalf("child span %+v lost its parent, group or work", k)
		}
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", "g", 0)
	sp.end(3)
	if sp.id() != 0 || tr.all() != nil {
		t.Fatal("a nil tracer recorded something")
	}
	h := http.NewServeMux()
	if got := spanHandler(h, nil, "n"); got != http.Handler(h) {
		t.Fatal("the untraced node handler is wrapped")
	}
}

func TestPercentileReportsSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	cases := []struct {
		n      int
		p      float64
		value  float64
		beyond int
	}{
		{1000, 0.99, 990, 10},
		{999, 0.99, 990, 9},
		{1100, 0.99, 1089, 11},
		{100, 0.5, 50, 50},
		{101, 0.5, 51, 50},
		{1, 0.99, 1, 0},
		{3, 1, 3, 0},
	}
	for _, c := range cases {
		q := percentile(seq(c.n), c.p)
		if q.Value != c.value || q.N != c.n || q.Beyond != c.beyond {
			t.Errorf("p%g of 1..%d = %+v, want value %g, n %d, %d beyond", 100*c.p, c.n, q, c.value, c.n, c.beyond)
		}
	}
	if q := percentile(nil, 0.5); !math.IsNaN(q.Value) || q.N != 0 {
		t.Errorf("empty sample: %+v", q)
	}
	if enoughBeyond(percentile(seq(999), 0.99)) == nil || enoughBeyond(percentile(seq(1000), 0.99)) != nil {
		t.Error("p99 needs at least 10 samples beyond it")
	}
}

// TestOpenLoopTimesFromDueTime drives the interactive client against a
// server that answers one request at a time in 20 ms. Requests due a
// millisecond apart queue behind each other, and their latency — timed from
// when each was due — includes that wait; the generator's own lateness is
// reported separately as send lag.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	var mu sync.Mutex
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		time.Sleep(20 * time.Millisecond)
		mu.Unlock()
		w.Write([]byte(`{}`))
	}))
	defer stub.Close()
	p := newTestPass(t)
	m := &mixNode{node: &node{url: stub.URL}, interactive: stub.Client()}
	const window = 5 * time.Millisecond
	arrivals := newMixSchedule(1, 1000).until(window) // 1 ms apart
	sims := p.runInteractive(context.Background(), m, arrivals, time.Now())
	if len(sims) < 2 {
		t.Fatalf("%d requests in the window, want several", len(sims))
	}
	var worst time.Duration
	for _, x := range sims {
		if err := statusErr(x); err != nil {
			t.Fatal(err)
		}
		if x.latency < 20*time.Millisecond || x.lag < 0 || x.lag > x.latency {
			t.Fatalf("latency %v, lag %v: want latency >= the 20 ms service and 0 <= lag <= latency", x.latency, x.lag)
		}
		worst = max(worst, x.latency)
	}
	if want := time.Duration(len(sims)) * 20 * time.Millisecond; worst < want-window {
		t.Fatalf("worst latency %v for %d queued requests: the wait behind earlier requests is missing (want >= %v)", worst, len(sims), want-window)
	}
}

func TestScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	gen := func(seed int64) ([]arrival, []batchSession) {
		s := newMixSchedule(seed, interactiveRate)
		arr := make([]arrival, 3*len(mixBlock))
		for i := range arr {
			arr[i] = s.next()
		}
		var sessions []batchSession
		for i := 0; i < 5; i++ {
			sessions = append(sessions, s.nextSession())
		}
		return arr, sessions
	}
	a1, s1 := gen(7)
	a2, s2 := gen(7)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(s1, s2) {
		t.Fatal("two generations from seed 7 differ")
	}
	b, sb := gen(8)
	if reflect.DeepEqual(a1, b) || reflect.DeepEqual(s1, sb) {
		t.Fatal("seeds 7 and 8 generate the same schedule")
	}

	// Each block of arrivals carries the class mix exactly; new workloads
	// and new configurations are never repeats.
	counts := make(map[string]int)
	seen := make(map[string]bool)
	for i, a := range a1 {
		if i > 0 && a.At <= a1[i-1].At {
			t.Fatalf("arrival %d at %v is not after %v", i, a.At, a1[i-1].At)
		}
		counts[a.Class]++
		if k := a.Point.Key(); a.Class != "popular" {
			if seen[k] {
				t.Fatalf("class %s repeated point %s", a.Class, k)
			}
			seen[k] = true
		}
		if a.Point.Frames != mixFrames || !a.Point.SeedForecasts {
			t.Fatalf("arrival %d point %s", i, a.Point.Key())
		}
	}
	want := make(map[string]int)
	for _, c := range mixBlock {
		want[c] += 3
	}
	if !reflect.DeepEqual(counts, want) {
		t.Fatalf("class counts %v, want %v", counts, want)
	}

	// Every batch session searches a workload no other session and no
	// interactive request asks for.
	workloads := map[int64]bool{7: true}
	for _, a := range a1 {
		workloads[a.Point.Seed] = true
	}
	for _, s := range s1 {
		if workloads[s.Workload] {
			t.Fatalf("batch session workload seed %d is not fresh", s.Workload)
		}
		workloads[s.Workload] = true
	}
}
