package explore

import (
	"bytes"
	"context"
	"errors"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rispp/internal/hwmodel"
)

// fakeRun is a deterministic stand-in for the simulator: cycles depend only
// on the point, with a per-call counter to observe cache behaviour.
func fakeRun(calls *atomic.Int64) RunFunc {
	return func(ctx context.Context, p Point) (Metrics, error) {
		if calls != nil {
			calls.Add(1)
		}
		cycles := int64(1_000_000 / (p.NumACs + 1))
		if p.Scheduler == "HEF" {
			cycles -= 1000
		}
		return Metrics{TotalCycles: cycles, StallCycles: cycles / 10,
			SWExecutions: int64(p.NumACs), HWExecutions: int64(p.Frames)}, nil
	}
}

func testSpec() Spec {
	return Spec{
		Schedulers: []string{"HEF", "ASF", "Molen"},
		ACs:        []int{5, 10, 15, 20},
		Frames:     []int{20},
	}
}

func TestExpandGridOrderAndDefaults(t *testing.T) {
	jobs, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 12 {
		t.Fatalf("got %d jobs, want 12", len(jobs))
	}
	// Schedulers outermost, ACs next: first four jobs are HEF over the ACs.
	for i, n := range []int{5, 10, 15, 20} {
		if jobs[i].Scheduler != "HEF" || jobs[i].NumACs != n {
			t.Errorf("job %d = %+v, want HEF/%d", i, jobs[i], n)
		}
		if !jobs[i].SeedForecasts {
			t.Errorf("job %d: SeedForecasts should default to true", i)
		}
	}
	// An empty grid with explicit points normalizes them.
	jobs, err = Spec{Points: []Point{{NumACs: 7}}}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].Scheduler != "HEF" || jobs[0].Frames != 140 {
		t.Fatalf("explicit point not normalized: %+v", jobs)
	}
}

func TestExpandDedupes(t *testing.T) {
	s := testSpec()
	s.Points = append(s.Points,
		Point{Scheduler: "HEF", NumACs: 5, Frames: 20, SeedForecasts: true}, // duplicate of grid job 0
		Point{Scheduler: "SJF", NumACs: 9, Frames: 20, SeedForecasts: true}, // new
	)
	jobs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 13 {
		t.Fatalf("got %d jobs, want 13 (12 grid + 1 new explicit)", len(jobs))
	}
	if last := jobs[len(jobs)-1]; last.Scheduler != "SJF" || last.NumACs != 9 {
		t.Fatalf("explicit point not appended: %+v", last)
	}
}

func TestExpandRejectsBadPoints(t *testing.T) {
	for _, s := range []Spec{
		{ACs: []int{-1}},
		{Frames: []int{-3}},
		{Motion: []float64{1.5}},
	} {
		if _, err := s.Expand(); err == nil {
			t.Errorf("spec %+v: expected error", s)
		}
	}
}

func TestKeyStableAndHashDistinct(t *testing.T) {
	a := Point{Scheduler: "HEF", NumACs: 10, Frames: 20, SeedForecasts: true}
	b := a
	if a.Key() != b.Key() || a.Hash() != b.Hash() {
		t.Fatal("identical points disagree")
	}
	b.NumACs = 11
	if a.Hash() == b.Hash() {
		t.Fatal("distinct points collide")
	}
	want := `{"scheduler":"HEF","acs":10,"frames":20,"seed":0,"motion":0,"scene_change":0,"seed_forecasts":true,"prefetch":false}`
	if a.Key() != want {
		t.Fatalf("canonical key changed:\n got %s\nwant %s", a.Key(), want)
	}
}

// TestNormalizedIdempotent guards the normalize-once contract the search
// driver relies on: normalizing an already-normalized point must be the
// identity, so points expanded once can be re-submitted (ExecutePoints,
// suggest observations) without drifting.
func TestNormalizedIdempotent(t *testing.T) {
	pts := []Point{
		{},
		{Scheduler: "ASF", NumACs: 7},
		{Scheduler: "Molen", NumACs: 3, Frames: 9, Seed: 4, Motion: 0.5, SceneChange: 2, SeedForecasts: true, Prefetch: true},
	}
	for _, p := range pts {
		once := p.Normalized()
		if twice := once.Normalized(); twice != once {
			t.Errorf("double normalization drifts: %+v -> %+v", once, twice)
		}
	}
	// Expand emits normalized points: re-normalizing its output is a no-op.
	jobs, err := testSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range jobs {
		if p.Normalized() != p {
			t.Errorf("Expand emitted non-normalized point %+v", p)
		}
	}
}

// TestRecordsCarryArea: every record of every sweep — simulated, cached,
// failed — carries the hwmodel area estimate, and the JSONL stream exposes
// it as the "area" field.
func TestRecordsCarryArea(t *testing.T) {
	spec := Spec{
		Schedulers: []string{"HEF", "Molen", "software"},
		ACs:        []int{5, 10},
		Frames:     []int{20},
	}
	var buf bytes.Buffer
	eng := &Engine{Run: fakeRun(nil)}
	res, err := eng.Execute(context.Background(), spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range res.Records {
		want := hwmodel.PointArea(rec.Point.Scheduler, rec.Point.NumACs)
		if rec.Area != want {
			t.Errorf("%s: area = %d, want %d", rec.Point.Key(), rec.Area, want)
		}
		if rec.Point.Scheduler == "software" && rec.Area != 0 {
			t.Errorf("software point priced %d slices", rec.Area)
		}
	}
	if !strings.Contains(buf.String(), `"area":`) {
		t.Fatal("JSONL stream lacks the area field")
	}
	// Area is derived, not cached: a warm re-run reports it identically.
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	eng.Cache = cache
	var cold, warm bytes.Buffer
	if _, err := eng.Execute(context.Background(), spec, &cold); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Execute(context.Background(), spec, &warm); err != nil {
		t.Fatal(err)
	}
	if cold.String() != warm.String() {
		t.Fatal("area broke cold/warm byte parity")
	}
	// Failed records are priced too (area is a property of the point).
	failEng := &Engine{Run: func(ctx context.Context, p Point) (Metrics, error) {
		return Metrics{}, errors.New("boom")
	}}
	res, err = failEng.Execute(context.Background(), Spec{Schedulers: []string{"HEF"}, ACs: []int{4}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec := res.Records[0]; rec.OK() || rec.Area != hwmodel.PointArea("HEF", 4) {
		t.Fatalf("failed record area = %d (err %q)", rec.Area, rec.Err)
	}
}

// TestExecutePointsMatchesExecute: running a pre-expanded job list through
// ExecutePoints yields the identical stream and summary as Execute on the
// spec — the batch path the search driver uses to avoid re-normalizing per
// batch.
func TestExecutePointsMatchesExecute(t *testing.T) {
	spec := testSpec()
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var viaSpec, viaPoints bytes.Buffer
	eng := &Engine{Run: fakeRun(nil), Workers: 4}
	rs, err := eng.Execute(context.Background(), spec, &viaSpec)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := eng.ExecutePoints(context.Background(), jobs, &viaPoints)
	if err != nil {
		t.Fatal(err)
	}
	if viaSpec.String() != viaPoints.String() {
		t.Fatal("ExecutePoints stream differs from Execute")
	}
	if rs.Summary.Total != rp.Summary.Total || rs.Summary.Simulated != rp.Summary.Simulated ||
		rs.Summary.Failed != rp.Summary.Failed || len(rs.Summary.Pareto) != len(rp.Summary.Pareto) {
		t.Fatalf("summaries differ: %+v vs %+v", rs.Summary, rp.Summary)
	}
	if _, err := (&Engine{}).ExecutePoints(context.Background(), jobs, nil); err == nil {
		t.Fatal("nil RunFunc accepted")
	}
}

// TestByteIdenticalAcrossWorkerCounts is the acceptance property: the JSONL
// stream is identical at -j 1 and -j 8.
func TestByteIdenticalAcrossWorkerCounts(t *testing.T) {
	var outputs []string
	for _, workers := range []int{1, 8} {
		var buf bytes.Buffer
		eng := &Engine{Run: fakeRun(nil), Workers: workers}
		res, err := eng.Execute(context.Background(), testSpec(), &buf)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Failed != 0 || res.Summary.Total != 12 {
			t.Fatalf("summary %+v", res.Summary)
		}
		outputs = append(outputs, buf.String())
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("JSONL differs between -j 1 and -j 8:\n%s\n---\n%s", outputs[0], outputs[1])
	}
	if n := strings.Count(outputs[0], "\n"); n != 12 {
		t.Fatalf("got %d lines, want 12", n)
	}
}

// TestCacheSkipsCompletedPoints is the second acceptance property: a cached
// re-run of an already-completed sweep performs zero new simulations, and
// an enlarged sweep only simulates the new points.
func TestCacheSkipsCompletedPoints(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	eng := &Engine{Run: fakeRun(&calls), Cache: cache}

	var cold bytes.Buffer
	if _, err := eng.Execute(context.Background(), testSpec(), &cold); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 12 {
		t.Fatalf("cold run simulated %d points, want 12", calls.Load())
	}

	calls.Store(0)
	var warm bytes.Buffer
	res, err := eng.Execute(context.Background(), testSpec(), &warm)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 0 {
		t.Fatalf("warm run simulated %d points, want 0", calls.Load())
	}
	if res.Summary.CacheHits != 12 || res.Summary.Simulated != 0 {
		t.Fatalf("warm summary %+v", res.Summary)
	}
	if cold.String() != warm.String() {
		t.Fatal("cached run not byte-identical to cold run")
	}

	// Enlarging the sweep only simulates the new points.
	grown := testSpec()
	grown.ACs = append(grown.ACs, 25)
	if _, err := eng.Execute(context.Background(), grown, nil); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("enlarged run simulated %d points, want 3 (the new AC per scheduler)", calls.Load())
	}
}

func TestCacheRejectsCorruptAndForeignEntries(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	p := Point{Scheduler: "HEF", NumACs: 3, Frames: 1}
	if err := cache.Put(p, Metrics{TotalCycles: 42}); err != nil {
		t.Fatal(err)
	}
	if m, ok := cache.Get(p); !ok || m.TotalCycles != 42 {
		t.Fatalf("round trip failed: %v %v", m, ok)
	}
	q := p
	q.NumACs = 4
	if _, ok := cache.Get(q); ok {
		t.Fatal("hit for absent point")
	}
	cache.WriteOnly = true
	if _, ok := cache.Get(p); ok {
		t.Fatal("WriteOnly cache returned a hit")
	}
}

// TestRunSetGroupsWorkloadFamilies pins the grouped dispatch: each RunSet
// call gets one workload family — points equal except in Scheduler and
// Frames — with each scheduler's points contiguous and in ascending Frames
// even when the spec lists frame counts out of order; records match the
// per-point path exactly.
func TestRunSetGroupsWorkloadFamilies(t *testing.T) {
	spec := Spec{
		Schedulers: []string{"HEF", "ASF", "Molen"},
		ACs:        []int{5, 10},
		Frames:     []int{140, 2, 120},
		Seeds:      []int64{0, 1},
	}
	want, err := (&Engine{Run: fakeRun(nil), Workers: 2}).Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		calls [][]Point
	)
	eng := &Engine{Run: fakeRun(nil), Workers: 2}
	eng.RunSet = func(ctx context.Context, ps []Point) ([]Metrics, error) {
		mu.Lock()
		calls = append(calls, append([]Point(nil), ps...))
		mu.Unlock()
		ms := make([]Metrics, len(ps))
		for i, p := range ps {
			ms[i], _ = fakeRun(nil)(ctx, p)
		}
		return ms, nil
	}
	got, err := eng.Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Error("grouped records differ from per-point records")
	}
	if len(calls) != 4 { // ACs × seeds
		t.Fatalf("%d RunSet calls, want 4 (one per AC budget and seed)", len(calls))
	}
	for _, ps := range calls {
		if len(ps) != 9 {
			t.Fatalf("group of %d points, want 9 (3 schedulers × 3 frame counts)", len(ps))
		}
		family := func(p Point) Point { p.Scheduler, p.Frames = "", 0; return p }
		done := map[string]bool{}
		for i, p := range ps {
			if family(p) != family(ps[0]) {
				t.Fatalf("group mixes families: %+v and %+v", ps[0], p)
			}
			if i == 0 || p.Scheduler != ps[i-1].Scheduler {
				if done[p.Scheduler] {
					t.Fatalf("scheduler %s is not contiguous in %+v", p.Scheduler, ps)
				}
				done[p.Scheduler] = true
				continue
			}
			if p.Frames <= ps[i-1].Frames {
				t.Fatalf("frames not ascending within %s: %+v", p.Scheduler, ps)
			}
		}
	}
}

func TestPanicRecoveryIsolatesJob(t *testing.T) {
	eng := &Engine{
		Workers: 4,
		Run: func(ctx context.Context, p Point) (Metrics, error) {
			if p.NumACs == 10 {
				panic("boom")
			}
			return Metrics{TotalCycles: int64(p.NumACs)}, nil
		},
	}
	res, err := eng.Execute(context.Background(), testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Failed != 3 {
		t.Fatalf("failed = %d, want 3 (one panicking AC value × 3 schedulers)", res.Summary.Failed)
	}
	for _, rec := range res.Records {
		if rec.Point.NumACs == 10 {
			if !strings.Contains(rec.Err, "panic: boom") {
				t.Fatalf("panic not captured: %q", rec.Err)
			}
		} else if !rec.OK() {
			t.Fatalf("healthy job failed: %+v", rec)
		}
	}
	if res.FirstErr() == nil {
		t.Fatal("FirstErr lost the failure")
	}
}

func TestCancellationStopsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, 64)
	eng := &Engine{
		Workers: 2,
		Run: func(ctx context.Context, p Point) (Metrics, error) {
			started <- struct{}{}
			<-ctx.Done()
			return Metrics{}, ctx.Err()
		},
	}
	go func() {
		<-started
		cancel()
	}()
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		res, err = eng.Execute(ctx, testSpec(), nil)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Execute did not return after cancellation")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || len(res.Records) != 12 {
		t.Fatalf("partial result missing: %+v", res)
	}
	for _, rec := range res.Records {
		if rec.OK() {
			t.Fatalf("job reported success after cancellation: %+v", rec)
		}
	}
}

func TestSummaryBestParetoSpeedups(t *testing.T) {
	eng := &Engine{Run: fakeRun(nil), Workers: 3}
	res, err := eng.Execute(context.Background(), testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Summary.BestPerACs) != 4 {
		t.Fatalf("best-per-ACs has %d rows, want 4", len(res.Summary.BestPerACs))
	}
	for i, rec := range res.Summary.BestPerACs {
		// HEF is always fastest in the fake model.
		if rec.Point.Scheduler != "HEF" {
			t.Errorf("best[%d] scheduler = %s, want HEF", i, rec.Point.Scheduler)
		}
		if i > 0 && rec.Point.NumACs <= res.Summary.BestPerACs[i-1].Point.NumACs {
			t.Error("best-per-ACs not ascending")
		}
	}
	// Cycles strictly decrease with ACs in the fake model, so the Pareto
	// front is the whole best-per-ACs set.
	if len(res.Summary.Pareto) != 4 {
		t.Fatalf("pareto has %d rows, want 4", len(res.Summary.Pareto))
	}
	rows := SpeedupVsBaseline(res.Records, "Molen")
	if len(rows) != 8 {
		t.Fatalf("speedups has %d rows, want 8 (HEF+ASF × 4 ACs)", len(rows))
	}
	for _, row := range rows {
		switch row.Point.Scheduler {
		case "HEF":
			if row.Speedup <= 1 {
				t.Errorf("HEF speedup %f, want > 1", row.Speedup)
			}
		case "ASF":
			if row.Speedup != 1 {
				t.Errorf("ASF speedup %f, want 1", row.Speedup)
			}
		}
	}
	txt := res.Format("Molen")
	for _, want := range []string{"12 jobs", "Best per Atom-Container budget", "Pareto front", "Speedups"} {
		if !strings.Contains(txt, want) {
			t.Errorf("Format output missing %q:\n%s", want, txt)
		}
	}
}

func TestParetoDropsDominatedPoints(t *testing.T) {
	res := &Result{Records: []Record{
		{Point: Point{Scheduler: "A", NumACs: 5}, Metrics: Metrics{TotalCycles: 100}},
		{Point: Point{Scheduler: "A", NumACs: 10}, Metrics: Metrics{TotalCycles: 100}}, // dominated: more ACs, same cycles
		{Point: Point{Scheduler: "A", NumACs: 15}, Metrics: Metrics{TotalCycles: 40}},
	}}
	res.summarize()
	if len(res.Summary.Pareto) != 2 {
		t.Fatalf("pareto = %+v, want the 5-AC and 15-AC points", res.Summary.Pareto)
	}
	if res.Summary.Pareto[0].Point.NumACs != 5 || res.Summary.Pareto[1].Point.NumACs != 15 {
		t.Fatalf("pareto = %+v", res.Summary.Pareto)
	}
}

func TestEngineRequiresRunFunc(t *testing.T) {
	if _, err := (&Engine{}).Execute(context.Background(), testSpec(), nil); err == nil {
		t.Fatal("nil RunFunc accepted")
	}
}

// TestOnRecordStreamOrder: the streaming hook must fire once per record,
// strictly in job order, at any worker count, and see cache-hit marks.
func TestOnRecordStreamOrder(t *testing.T) {
	spec := testSpec()
	jobs, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, 16} {
		var seen []Point
		var cached int
		eng := &Engine{
			Run:     fakeRun(nil),
			Workers: workers,
			OnRecord: func(rec Record) {
				seen = append(seen, rec.Point)
				if rec.Cached {
					cached++
				}
			},
		}
		var buf bytes.Buffer
		if _, err := eng.Execute(context.Background(), spec, &buf); err != nil {
			t.Fatal(err)
		}
		if len(seen) != len(jobs) {
			t.Fatalf("workers=%d: hook fired %d times, want %d", workers, len(seen), len(jobs))
		}
		for i := range jobs {
			if seen[i] != jobs[i] {
				t.Fatalf("workers=%d: record %d is %v, want %v (out of order)", workers, i, seen[i], jobs[i])
			}
		}
		if cached != 0 {
			t.Errorf("workers=%d: %d cache hits without a cache", workers, cached)
		}
		// The hook fires where the stream is written: the number of JSONL
		// lines must match the number of hook invocations.
		if lines := bytes.Count(buf.Bytes(), []byte("\n")); lines != len(seen) {
			t.Errorf("workers=%d: %d lines vs %d hook calls", workers, lines, len(seen))
		}
	}
}

// TestOnRecordSeesCacheHits: records answered by the cache are marked
// Cached when they reach the hook.
func TestOnRecordSeesCacheHits(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec()
	eng := &Engine{Run: fakeRun(nil), Cache: cache}
	if _, err := eng.Execute(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}
	var cached int
	eng.OnRecord = func(rec Record) {
		if rec.Cached {
			cached++
		}
	}
	if _, err := eng.Execute(context.Background(), spec, nil); err != nil {
		t.Fatal(err)
	}
	jobs, _ := spec.Expand()
	if cached != len(jobs) {
		t.Errorf("hook saw %d cache hits on a warm re-run, want %d", cached, len(jobs))
	}
}

// TestCacheWriteFailureWarnsOnce: a sweep whose cache directory breaks
// mid-flight must complete normally — every point simulated exactly once,
// no sweep-level error — and surface the failure as a per-record warning
// plus a summary count, not by aborting or re-running points.
func TestCacheWriteFailureWarnsOnce(t *testing.T) {
	dir := t.TempDir() + "/cache"
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Replace the cache directory with a regular file: every Put now fails
	// at CreateTemp, even when the test runs as root.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}

	var calls atomic.Int64
	eng := &Engine{Run: fakeRun(&calls), Cache: cache}
	var buf bytes.Buffer
	res, err := eng.Execute(context.Background(), testSpec(), &buf)
	if err != nil {
		t.Fatalf("cache write failure escalated to a sweep error: %v", err)
	}
	if calls.Load() != 12 {
		t.Fatalf("simulated %d points, want 12 (each exactly once)", calls.Load())
	}
	if res.Summary.Failed != 0 || res.Summary.Simulated != 12 {
		t.Fatalf("summary %+v", res.Summary)
	}
	if res.Summary.CacheWriteFailures != 12 {
		t.Fatalf("CacheWriteFailures = %d, want 12", res.Summary.CacheWriteFailures)
	}
	for i, rec := range res.Records {
		if !rec.OK() {
			t.Fatalf("record %d failed: %s", i, rec.Err)
		}
		if rec.CacheWarn == "" {
			t.Fatalf("record %d carries no cache warning", i)
		}
	}
	// The warning stays out of the JSONL stream (cold/warm byte-identity)
	// but shows up in the human-readable summary.
	if strings.Contains(buf.String(), "cache") {
		t.Fatal("cache warning leaked into the JSONL stream")
	}
	if !strings.Contains(res.Format(""), "12 cache writes failed") {
		t.Fatalf("Format does not surface the cache warning:\n%s", res.Format(""))
	}
}
