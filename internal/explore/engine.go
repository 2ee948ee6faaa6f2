package explore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"rispp/internal/hwmodel"
	"rispp/internal/stats"
)

// Metrics is the measured outcome of one design point.
type Metrics struct {
	TotalCycles  int64 `json:"cycles"`
	StallCycles  int64 `json:"stall_cycles"`
	SWExecutions int64 `json:"sw_execs"`
	HWExecutions int64 `json:"hw_execs"`
}

// Record pairs a design point with its outcome — one line of the JSONL
// result stream. Cached and CacheWarn are deliberately excluded from the
// serialization so that cold and warm runs of the same spec produce
// identical bytes.
type Record struct {
	Point Point `json:"point"`
	Metrics
	// Area is the estimated fabric cost of the point in Virtex-II slices
	// (hwmodel.PointArea): the Atom-Container array plus the run-time
	// system's fixed hardware. It is derived from the point — not measured
	// and not cached — so every record carries it, including failed ones,
	// and cold/warm runs stay byte-identical.
	Area int64  `json:"area"`
	Err  string `json:"err,omitempty"`

	Cached bool `json:"-"`
	// CacheWarn carries a non-fatal warning: the point simulated fine but
	// its result could not be written to the cache (a re-run will simulate
	// it again). It never affects OK().
	CacheWarn string `json:"-"`
}

// OK reports whether the job produced a usable measurement.
func (r Record) OK() bool { return r.Err == "" }

// RunFunc simulates one design point. The engine calls it from multiple
// goroutines; implementations must not share mutable state across calls.
type RunFunc func(ctx context.Context, p Point) (Metrics, error)

// RunSetFunc simulates a batch of design points of one workload family —
// points equal except in their run-time system (Scheduler) and trace length
// (Frames) — returning one Metrics per point in input order. The engine
// passes each scheduler's points contiguously in ascending Frames, so an
// implementation that runs them in order can resume a longer trace from the
// shorter sibling it has just simulated. The engine calls it from multiple
// goroutines.
type RunSetFunc func(ctx context.Context, ps []Point) ([]Metrics, error)

// Engine executes sweep specs on a bounded worker pool.
type Engine struct {
	// Run simulates one point (required).
	Run RunFunc
	// RunSet, when non-nil, batches the points of each workload family —
	// points identical except for Point.Scheduler and Point.Frames — into
	// one call, ordered by scheduler and then ascending Frames (see
	// RunSetFunc). One worker thus runs a family's systems and trace
	// lengths back to back, and rispp.Runner's RunSet resumes each longer
	// trace from the trail of its shorter sibling instead of simulating it
	// from power-on. Workers then operate on groups instead of single
	// points; records, their order, and the cache behavior are unchanged.
	// Cached points are excluded from the batch; a RunSet error fails every
	// uncached point of its group.
	RunSet RunSetFunc
	// Workers bounds the pool; <= 0 selects runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, is consulted before and populated after every
	// job, so re-running an enlarged sweep only simulates new points. It is
	// typically a *Cache (content-addressed disk files); a sweep-fabric
	// worker installs a peer-backed tiered Store instead, making the cache
	// fleet-wide. Beware of typed-nil interfaces: assign only a non-nil
	// implementation.
	Cache Store
	// OnRecord, when non-nil, is invoked for every record exactly when it
	// is streamed: strictly in job order, immediately after the record is
	// encoded to Execute's writer (or where it would have been, when no
	// writer is given). Serving layers use it to flush chunked responses
	// per line and to observe cache hits (Record.Cached is not serialized).
	// The callback runs under the engine's internal lock — it must return
	// promptly and must not call back into the engine.
	OnRecord func(Record)
}

// Summary aggregates an executed sweep.
type Summary struct {
	// Total / Simulated / CacheHits / Failed count jobs; Simulated counts
	// actual RunFunc invocations (a cached re-run reports 0).
	Total, Simulated, CacheHits, Failed int
	// CacheWriteFailures counts successfully simulated points whose cache
	// write failed (see Record.CacheWarn). The measurements themselves are
	// complete; only the warm-start cache is incomplete.
	CacheWriteFailures int
	// BestPerACs holds, per distinct Atom-Container budget, the successful
	// record with the fewest cycles (ties broken by canonical key), in
	// ascending-AC order.
	BestPerACs []Record
	// Pareto is the front over {TotalCycles, NumACs}: no other successful
	// record is at least as good in both dimensions and better in one.
	Pareto []Record
}

// Result is the outcome of Engine.Execute: all records in job order plus
// the aggregated summary.
type Result struct {
	Records []Record
	Summary Summary
}

// FirstErr returns the error of the first failed record, or nil.
func (r *Result) FirstErr() error {
	for _, rec := range r.Records {
		if !rec.OK() {
			return fmt.Errorf("explore: %s: %s", rec.Point.Key(), rec.Err)
		}
	}
	return nil
}

// Execute expands the spec and runs every job. Results stream to w (may be
// nil) as one JSON object per line, strictly in job order regardless of
// completion order, so output is byte-identical at any worker count. On
// context cancellation the completed prefix is flushed, unfinished jobs are
// marked failed, and ctx's error is returned alongside the partial result.
func (e *Engine) Execute(ctx context.Context, spec Spec, w io.Writer) (*Result, error) {
	jobs, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	return e.ExecutePoints(ctx, jobs, w)
}

// ExecutePoints runs an already-expanded job list, bypassing Spec.Expand:
// the points must be normalized (Point.Normalized) and deduplicated —
// exactly what Expand, or a search space built from one, produces. Batch
// drivers that already hold canonical points (internal/search proposes from
// a space normalized once at construction) use this to avoid re-normalizing
// every batch; everything else — streaming, ordering, grouping, caching —
// matches Execute.
func (e *Engine) ExecutePoints(ctx context.Context, jobs []Point, w io.Writer) (*Result, error) {
	if e.Run == nil {
		return nil, errors.New("explore: Engine.Run is nil")
	}
	workers := e.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	res := &Result{Records: make([]Record, len(jobs))}
	var (
		mu       sync.Mutex
		done     = make([]bool, len(jobs))
		next     int // first job index not yet streamed
		writeErr error
		enc      *json.Encoder
	)
	if w != nil {
		// One streaming encoder for the whole sweep: Encode(v) emits
		// exactly Marshal(v) plus '\n' while reusing its internal buffer,
		// so large sweeps don't allocate a fresh buffer per record.
		enc = json.NewEncoder(w)
	}
	// finish records job i and streams every contiguous completed record.
	finish := func(i int, rec Record) {
		rec.Area = hwmodel.PointArea(rec.Point.Scheduler, rec.Point.NumACs)
		mu.Lock()
		defer mu.Unlock()
		res.Records[i] = rec
		done[i] = true
		for next < len(jobs) && done[next] {
			if enc != nil && writeErr == nil {
				if err := enc.Encode(&res.Records[next]); err != nil {
					writeErr = fmt.Errorf("explore: write result: %w", err)
				}
			}
			if e.OnRecord != nil {
				e.OnRecord(res.Records[next])
			}
			next++
		}
	}

	// The unit of worker dispatch is a group of job indices. Without RunSet
	// every job is its own group; with RunSet, jobs that differ only in
	// their scheduler and frame count form one group (a workload family)
	// and go to RunSet in one call, in familyOrder.
	groups := make([][]int, 0, len(jobs))
	if e.RunSet == nil {
		for i := range jobs {
			groups = append(groups, []int{i})
		}
	} else {
		byKey := make(map[string]int, len(jobs))
		for i, p := range jobs {
			p.Scheduler, p.Frames = "", 0
			k := p.Key()
			gi, ok := byKey[k]
			if !ok {
				gi = len(groups)
				byKey[k] = gi
				groups = append(groups, nil)
			}
			groups[gi] = append(groups[gi], i)
		}
		for _, g := range groups {
			familyOrder(jobs, g)
		}
	}
	if workers > len(groups) {
		workers = len(groups)
	}

	idx := make(chan int)
	go func() {
		defer close(idx)
		for gi := range groups {
			select {
			case idx <- gi:
			case <-ctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range idx {
				if g := groups[gi]; len(g) == 1 || e.RunSet == nil {
					for _, i := range g {
						finish(i, e.runJob(ctx, jobs[i]))
					}
				} else {
					e.runGroup(ctx, jobs, g, finish)
				}
			}
		}()
	}
	wg.Wait()

	if err := ctx.Err(); err != nil {
		for i := range res.Records {
			if !done[i] {
				res.Records[i] = Record{
					Point: jobs[i],
					Area:  hwmodel.PointArea(jobs[i].Scheduler, jobs[i].NumACs),
					Err:   "skipped: " + err.Error(),
				}
			}
		}
		res.summarize()
		return res, err
	}
	res.summarize()
	return res, writeErr
}

// familyOrder sorts a group's job indices in place by scheduler, then
// ascending Frames, then job order — so each scheduler's points are
// contiguous and every shorter trace runs before the longer ones that
// extend it. Groups are small; an insertion sort keeps this allocation-free.
func familyOrder(jobs []Point, g []int) {
	less := func(a, b int) bool {
		pa, pb := &jobs[a], &jobs[b]
		if pa.Scheduler != pb.Scheduler {
			return pa.Scheduler < pb.Scheduler
		}
		if pa.Frames != pb.Frames {
			return pa.Frames < pb.Frames
		}
		return a < b
	}
	for i := 1; i < len(g); i++ {
		for j := i; j > 0 && less(g[j], g[j-1]); j-- {
			g[j], g[j-1] = g[j-1], g[j]
		}
	}
}

// runJob measures one point: cache lookup, guarded simulation, cache fill.
// A panicking RunFunc fails only its own job. A failing cache write does not
// fail the job either — the measurement is sound and is surfaced exactly
// once, as a warning on the record, rather than aborting or re-running the
// point mid-sweep.
func (e *Engine) runJob(ctx context.Context, p Point) (rec Record) {
	rec.Point = p
	if e.Cache != nil {
		if m, ok := e.Cache.Get(p); ok {
			rec.Metrics = m
			rec.Cached = true
			return rec
		}
	}
	if err := ctx.Err(); err != nil {
		rec.Err = "skipped: " + err.Error()
		return rec
	}
	m, err := e.safeRun(ctx, p)
	if err != nil {
		rec.Err = err.Error()
		return rec
	}
	rec.Metrics = m
	if e.Cache != nil {
		if err := e.Cache.Put(p, m); err != nil {
			rec.CacheWarn = err.Error()
		}
	}
	return rec
}

// runGroup measures a workload family in one RunSet call. Cache lookups,
// cancellation, and cache fills match runJob point-for-point; only the
// call into the backend is batched. An error (or panic) in RunSet fails every
// point that was in the batch.
func (e *Engine) runGroup(ctx context.Context, jobs []Point, group []int, finish func(int, Record)) {
	pending := make([]int, 0, len(group))
	for _, i := range group {
		p := jobs[i]
		if e.Cache != nil {
			if m, ok := e.Cache.Get(p); ok {
				finish(i, Record{Point: p, Metrics: m, Cached: true})
				continue
			}
		}
		pending = append(pending, i)
	}
	if len(pending) == 0 {
		return
	}
	if err := ctx.Err(); err != nil {
		for _, i := range pending {
			finish(i, Record{Point: jobs[i], Err: "skipped: " + err.Error()})
		}
		return
	}
	ps := make([]Point, len(pending))
	for k, i := range pending {
		ps[k] = jobs[i]
	}
	ms, err := e.safeRunSet(ctx, ps)
	if err == nil && len(ms) != len(ps) {
		err = fmt.Errorf("explore: RunSet returned %d metrics for %d points", len(ms), len(ps))
	}
	if err != nil {
		for _, i := range pending {
			finish(i, Record{Point: jobs[i], Err: err.Error()})
		}
		return
	}
	for k, i := range pending {
		rec := Record{Point: ps[k], Metrics: ms[k]}
		if e.Cache != nil {
			if err := e.Cache.Put(ps[k], ms[k]); err != nil {
				rec.CacheWarn = err.Error()
			}
		}
		finish(i, rec)
	}
}

func (e *Engine) safeRunSet(ctx context.Context, ps []Point) (ms []Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return e.RunSet(ctx, ps)
}

func (e *Engine) safeRun(ctx context.Context, p Point) (m Metrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return e.Run(ctx, p)
}

// summarize fills Result.Summary from the records.
func (r *Result) summarize() {
	s := &r.Summary
	s.Total = len(r.Records)
	best := make(map[int]Record)
	for _, rec := range r.Records {
		switch {
		case !rec.OK():
			s.Failed++
		case rec.Cached:
			s.CacheHits++
		default:
			s.Simulated++
		}
		if rec.CacheWarn != "" {
			s.CacheWriteFailures++
		}
		if !rec.OK() {
			continue
		}
		if b, ok := best[rec.Point.NumACs]; !ok || rec.TotalCycles < b.TotalCycles ||
			(rec.TotalCycles == b.TotalCycles && rec.Point.Key() < b.Point.Key()) {
			best[rec.Point.NumACs] = rec
		}
	}
	acs := make([]int, 0, len(best))
	for n := range best {
		acs = append(acs, n)
	}
	sort.Ints(acs)
	for _, n := range acs {
		s.BestPerACs = append(s.BestPerACs, best[n])
	}
	// The Pareto front over {cycles, ACs} is the strictly improving chain
	// of the per-AC bests in ascending-AC order.
	var minCycles int64
	for i, rec := range s.BestPerACs {
		if i == 0 || rec.TotalCycles < minCycles {
			s.Pareto = append(s.Pareto, rec)
			minCycles = rec.TotalCycles
		}
	}
}

// SpeedupRow is one line of a speedup-vs-baseline table: a design point and
// how much faster it ran than the baseline scheduler at otherwise identical
// knobs.
type SpeedupRow struct {
	Point   Point
	Speedup float64
}

// SpeedupVsBaseline compares every successful record against the record
// with the same knobs but the baseline scheduler. Rows are ordered by
// canonical key; points without a baseline counterpart (and the baseline
// itself) are omitted.
func SpeedupVsBaseline(records []Record, baseline string) []SpeedupRow {
	base := make(map[string]Record)
	for _, rec := range records {
		if rec.OK() && rec.Point.Scheduler == baseline {
			p := rec.Point
			p.Scheduler = ""
			base[p.Key()] = rec
		}
	}
	var rows []SpeedupRow
	for _, rec := range records {
		if !rec.OK() || rec.Point.Scheduler == baseline {
			continue
		}
		p := rec.Point
		p.Scheduler = ""
		b, ok := base[p.Key()]
		if !ok || rec.TotalCycles == 0 {
			continue
		}
		rows = append(rows, SpeedupRow{Point: rec.Point, Speedup: stats.SpeedupValue(b.TotalCycles, rec.TotalCycles)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Point.Key() < rows[j].Point.Key() })
	return rows
}

// Format renders the sweep summary as text: job counts, the best-per-AC
// table, the Pareto front and (when baseline names a scheduler present in
// the sweep) the speedup table.
func (r *Result) Format(baseline string) string {
	out := fmt.Sprintf("%d jobs: %d simulated, %d cached, %d failed\n",
		r.Summary.Total, r.Summary.Simulated, r.Summary.CacheHits, r.Summary.Failed)
	if n := r.Summary.CacheWriteFailures; n > 0 {
		out += fmt.Sprintf("warning: %d cache writes failed; those points will re-simulate on resume\n", n)
	}
	if len(r.Summary.BestPerACs) > 0 {
		tb := &stats.Table{Header: []string{"#ACs", "best scheduler", "cycles", "stall", "hw share"}}
		for _, rec := range r.Summary.BestPerACs {
			hwShare := 0.0
			if t := rec.SWExecutions + rec.HWExecutions; t > 0 {
				hwShare = 100 * float64(rec.HWExecutions) / float64(t)
			}
			tb.AddRow(fmt.Sprint(rec.Point.NumACs), rec.Point.Scheduler,
				fmt.Sprint(rec.TotalCycles), fmt.Sprint(rec.StallCycles),
				fmt.Sprintf("%.1f%%", hwShare))
		}
		out += "\nBest per Atom-Container budget:\n" + tb.String()
	}
	if len(r.Summary.Pareto) > 0 {
		tb := &stats.Table{Header: []string{"#ACs", "scheduler", "cycles"}}
		for _, rec := range r.Summary.Pareto {
			tb.AddRow(fmt.Sprint(rec.Point.NumACs), rec.Point.Scheduler, fmt.Sprint(rec.TotalCycles))
		}
		out += "\nPareto front {cycles, ACs}:\n" + tb.String()
	}
	if rows := SpeedupVsBaseline(r.Records, baseline); len(rows) > 0 {
		tb := &stats.Table{Header: []string{"scheduler", "#ACs", "frames", "speedup vs " + baseline}}
		for _, row := range rows {
			tb.AddRow(row.Point.Scheduler, fmt.Sprint(row.Point.NumACs),
				fmt.Sprint(row.Point.Frames), fmt.Sprintf("%.2f", row.Speedup))
		}
		out += "\nSpeedups:\n" + tb.String()
	}
	return out
}
