package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/stats"
)

// gridSystems are the run-time systems of the paper's Fig. 7 / Table 2.
var gridSystems = []string{"FSFR", "ASF", "SJF", "HEF", "Molen", "software"}

const (
	gridRestarts    = 8 // restart sweeps per step
	gridColdEvery   = 6 // steps per cold sweep
	gridResimSample = 6 // points re-simulated through a fresh Runner
	// servedBelow separates trail-served points (~µs) from simulated ones
	// (milliseconds at 120 frames) when counting simulated SI executions.
	servedBelow = 200 * time.Microsecond
)

// gridSpec is the paper's design space: six systems × 5–24 Atom Containers
// × {120, 140} frames with seeded forecasts, 240 points. seed is the H.264
// workload seed (0 = the paper's sequence).
func gridSpec(seed int64) explore.Spec {
	var acs []int
	for n := 5; n <= 24; n++ {
		acs = append(acs, n)
	}
	return explore.Spec{
		Schedulers:    gridSystems,
		ACs:           acs,
		Frames:        []int{120, 140},
		Seeds:         []int64{seed},
		SeedForecasts: []bool{true},
	}
}

// sweepRef is the sweep a traced call belongs to: its group id and the
// span of the call that caused it. Engine workers and HTTP transports read
// it while the benchmark moves it from sweep to sweep.
type sweepRef struct {
	mu     sync.Mutex
	group  string
	parent int64
}

func (s *sweepRef) set(group string, parent int64) {
	s.mu.Lock()
	s.group, s.parent = group, parent
	s.mu.Unlock()
}

func (s *sweepRef) get() (string, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.group, s.parent
}

// gridRun is the paper-grid workload: the Fig. 7 / Table 2 grid driven the
// way `risppexplore -cache` drives it — explore.Engine over one
// rispp.Runner with Run, RunSet and a disk cache on nproc workers. Every
// gridColdEvery-th step runs a cold sweep (fresh Runner, empty cache dir);
// every step runs restart sweeps from fresh Runners over the last filled
// cache dir. A cold sweep takes seconds and a restart milliseconds, so the
// restarts sample every round while the cold sweeps stay within the run.
type gridRun struct {
	p             *pass
	spec          explore.Spec
	points        int
	steps         int
	cold, restart []float64
	first         []byte
	dir           string        // the cache dir the last cold sweep filled
	last          *rispp.Runner // kept alive for the retained-heap reading
	counters      []runnerCounters
}

func (g *gridRun) setup(context.Context) error {
	g.spec = gridSpec(g.p.cfg.seed)
	pts, err := g.spec.Expand()
	g.points = len(pts)
	return err
}

// step records the set-up time of everything it times: the cold sweep's
// Runner, cache dir and engine, and each restart's.
func (g *gridRun) step(ctx context.Context, _ time.Duration) error {
	var setup time.Duration
	if g.steps%gridColdEvery == 0 {
		d, err := g.coldSweep(ctx)
		if err != nil {
			return err
		}
		setup += d
		runtime.GC() // the cold sweep's garbage is not the restarts' to collect
	}
	g.steps++
	for k := 0; k < gridRestarts; k++ {
		d, err := g.restartSweep(ctx)
		if err != nil {
			return err
		}
		setup += d
	}
	g.p.setup[paperGrid] = append(g.p.setup[paperGrid], setup)
	return ctx.Err()
}

// coldSweep runs the grid through a fresh Runner into an empty cache dir,
// which it keeps for the restarts, and returns its set-up time.
func (g *gridRun) coldSweep(ctx context.Context) (time.Duration, error) {
	p := g.p
	t0 := time.Now()
	if g.dir != "" {
		os.RemoveAll(g.dir) //nolint:errcheck // scratch space; the run dir is removed at exit too
	}
	dir, err := os.MkdirTemp(p.cfg.scratch, "grid-*")
	if err != nil {
		return 0, err
	}
	g.dir = dir
	cache, err := explore.OpenCache(dir)
	if err != nil {
		return 0, err
	}
	rn := rispp.NewRunner(rispp.Config{})
	group := fmt.Sprintf("grid-cold-%d", len(g.cold))
	cur := &sweepRef{}
	eng := p.gridEngine(rn, cache, cur)
	setup := time.Since(t0)

	var buf bytes.Buffer
	var res *explore.Result
	d := p.timed(paperGrid, func() {
		sp := p.tr.begin("explore.execute", group, 0)
		cur.set(group, sp.id())
		res, err = eng.Execute(ctx, g.spec, &buf)
		sp.end(0)
	})
	g.cold = append(g.cold, d.Seconds())
	p.ops.check("paper-grid cold sweep", sweepErr(res, err, 0))
	if g.first == nil {
		g.first = buf.Bytes()
	} else {
		p.ops.check("paper-grid cold sweep matches the first", sameStream(g.first, buf.Bytes()))
	}
	g.counters = append(g.counters, countersOf(rn))
	g.last = rn
	return setup, nil
}

// restartSweep runs the grid from a fresh Runner over the filled cache dir,
// as a restarted `risppexplore -cache` would, and returns its set-up time.
func (g *gridRun) restartSweep(ctx context.Context) (time.Duration, error) {
	p := g.p
	t0 := time.Now()
	cache, err := explore.OpenCache(g.dir)
	if err != nil {
		return 0, err
	}
	group := fmt.Sprintf("grid-restart-%d", len(g.restart))
	cur := &sweepRef{}
	eng := p.gridEngine(rispp.NewRunner(rispp.Config{}), cache, cur)
	setup := time.Since(t0)
	var buf bytes.Buffer
	var res *explore.Result
	d := p.timed(paperGrid, func() {
		sp := p.tr.begin("explore.execute", group, 0)
		cur.set(group, sp.id())
		res, err = eng.Execute(ctx, g.spec, &buf)
		sp.end(0)
	})
	g.restart = append(g.restart, d.Seconds())
	p.ops.check("paper-grid restart sweep", sweepErr(res, err, g.points))
	p.ops.check("paper-grid restart stream matches cold", sameStream(g.first, buf.Bytes()))
	return setup, nil
}

func (g *gridRun) close() { g.last = nil }

func (g *gridRun) finish(ctx context.Context) {
	p := g.p
	p.e2e["grid_cold_s"] = median(g.cold)
	p.e2e["grid_restart_ms"] = 1000 * median(g.restart)
	p.notes["grid_cold_s"] = fmt.Sprintf("median of %d cold sweeps of %d points", len(g.cold), g.points)
	p.notes["grid_restart_ms"] = fmt.Sprintf("median of %d restart sweeps", len(g.restart))
	recs, err := decodeRecords(g.first)
	p.ops.check("paper-grid stream decodes", err)
	if err == nil {
		p.resimulateGrid(ctx, recs)
		if p.cfg.seed == 0 {
			p.ops.check("paper-grid reproduces Table 2", checkTable2(recs))
		}
	}
	if p.tr != nil {
		p.gridLayers(g.counters)
	}
}

// gridEngine builds the engine risppexplore builds (rispp.Explorer), keeping
// the Runner in hand. Traced, Run and RunSet are wrapped in spans and the
// cache in a timing decorator; a RunSet group is passed to RunSet one point
// at a time — the Runner runs delta-eligible groups point by point anyway —
// so each point gets its own span.
func (p *pass) gridEngine(rn *rispp.Runner, cache *explore.Cache, cur *sweepRef) *explore.Engine {
	eng := &explore.Engine{Workers: p.cfg.nproc, Run: rn.EngineRun(), RunSet: rn.EngineRunSet(), Cache: cache}
	tr := p.tr
	if tr == nil {
		return eng
	}
	run, runSet := eng.Run, eng.RunSet
	eng.Run = func(ctx context.Context, pt explore.Point) (explore.Metrics, error) {
		group, parent := cur.get()
		sp := tr.begin("runner.run", group, parent)
		m, err := run(ctx, pt)
		sp.end(m.SWExecutions + m.HWExecutions)
		return m, err
	}
	eng.RunSet = func(ctx context.Context, ps []explore.Point) ([]explore.Metrics, error) {
		group, parent := cur.get()
		set := tr.begin("runner.runset", group, parent)
		defer set.end(0)
		ms := make([]explore.Metrics, 0, len(ps))
		for _, pt := range ps {
			sp := tr.begin("runner.point", group, set.id())
			m, err := runSet(ctx, []explore.Point{pt})
			if err != nil {
				sp.end(0)
				return nil, err
			}
			sp.end(m[0].SWExecutions + m[0].HWExecutions)
			ms = append(ms, m[0])
		}
		return ms, nil
	}
	eng.Cache = &timedStore{inner: cache, tr: tr, group: cur.get}
	return eng
}

// sweepErr checks an engine sweep: no error, no failed record, and — for a
// restart (hits > 0) — every point answered by the cache.
func sweepErr(res *explore.Result, err error, hits int) error {
	switch {
	case err != nil:
		return err
	case res.Summary.Failed > 0:
		return res.FirstErr()
	case hits > 0 && res.Summary.CacheHits != hits:
		return fmt.Errorf("%d of %d points were cache hits", res.Summary.CacheHits, hits)
	}
	return nil
}

// sameStream compares two JSONL streams byte for byte and names the first
// line that differs.
func sameStream(want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Errorf("line %d differs: want %.120s, got %.120s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Errorf("stream has %d lines, want %d", len(gl)-1, len(wl)-1)
}

func decodeRecords(stream []byte) ([]explore.Record, error) {
	var recs []explore.Record
	sc := bufio.NewScanner(bytes.NewReader(stream))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var r explore.Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("record %d: %w", len(recs)+1, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// resimulateGrid re-runs a seeded sample of records through a fresh Runner
// with delta-resimulation off and compares the metrics field for field.
func (p *pass) resimulateGrid(ctx context.Context, recs []explore.Record) {
	rng := rand.New(rand.NewSource(p.cfg.seed))
	run := rispp.NewRunner(rispp.Config{DisableDelta: true}).EngineRun()
	for _, i := range rng.Perm(len(recs))[:min(gridResimSample, len(recs))] {
		r := recs[i]
		m, err := run(ctx, r.Point)
		if err == nil {
			err = sameMetrics(r.Metrics, m)
		}
		p.ops.check("paper-grid re-simulation of "+r.Point.Key(), err)
	}
}

func sameMetrics(got, want explore.Metrics) error {
	if got != want {
		return fmt.Errorf("metrics %+v, fresh run gives %+v", got, want)
	}
	return nil
}

// checkTable2 recomputes the paper's Table 2 headline from the 140-frame
// records: HEF vs Molen 1.69× on average over 5–24 ACs, and its maximum
// 2.19× at 24 ACs (EXPERIMENTS.md).
func checkTable2(recs []explore.Record) error {
	cycles := map[string]map[int]int64{"HEF": {}, "Molen": {}}
	for _, r := range recs {
		if m, ok := cycles[r.Point.Scheduler]; ok && r.Point.Frames == 140 {
			m[r.Point.NumACs] = r.TotalCycles
		}
	}
	var sum, best float64
	bestACs := 0
	for n := 5; n <= 24; n++ {
		h, m := cycles["HEF"][n], cycles["Molen"][n]
		if h == 0 || m == 0 {
			return fmt.Errorf("no HEF/Molen record at %d ACs", n)
		}
		s := stats.SpeedupValue(m, h)
		sum += s
		if s > best {
			best, bestACs = s, n
		}
	}
	avg := fmt.Sprintf("%.2f", sum/20)
	if avg != "1.69" || fmt.Sprintf("%.2f", best) != "2.19" || bestACs != 24 {
		return fmt.Errorf("HEF vs Molen average %s, max %.2f at %d ACs; want 1.69, 2.19 at 24", avg, best, bestACs)
	}
	return nil
}

// runnerCounters are a Runner's exported counters after a cold sweep.
type runnerCounters struct {
	serves, resumes, records, poolHits, poolMisses int64
}

func countersOf(rn *rispp.Runner) runnerCounters {
	var c runnerCounters
	c.serves, c.resumes, c.records = rn.DeltaStats()
	c.poolHits, c.poolMisses = rn.RuntimePoolStats()
	return c
}

// gridLayers reduces the traced sweeps to the runner and explore rows, each
// the mean per cold (or restart) sweep.
func (p *pass) gridLayers(counters []runnerCounters) {
	spans := p.tr.all()
	var (
		busy, self, put, restartSelf, get time.Duration
		calls, misses, hits               int
		simNS, simSI                      int64
		nCold, nRestart                   int
	)
	for _, ex := range named(spans, "explore.execute") {
		g := inGroup(spans, ex.Group)
		top := append(named(g, "runner.runset"), named(g, "runner.run")...)
		switch {
		case strings.HasPrefix(ex.Group, "grid-cold-"):
			nCold++
			busy += totalDur(top)
			calls += len(top)
			self += selfTime(ex, top)
			put += totalDur(named(g, "explore.cache_put"))
			for _, s := range named(g, "explore.cache_get") {
				if s.Work == 0 {
					misses++
				}
			}
			for _, s := range append(named(g, "runner.point"), named(g, "runner.run")...) {
				if s.dur() >= servedBelow {
					simNS += s.dur().Nanoseconds()
					simSI += s.Work
				}
			}
		case strings.HasPrefix(ex.Group, "grid-restart-"):
			nRestart++
			restartSelf += selfTime(ex, top)
			gets := named(g, "explore.cache_get")
			get += totalDur(gets)
			for _, s := range gets {
				hits += int(s.Work)
			}
		}
	}
	var sum runnerCounters
	for _, c := range counters {
		sum.serves += c.serves
		sum.resumes += c.resumes
		sum.records += c.records
		sum.poolHits += c.poolHits
		sum.poolMisses += c.poolMisses
	}
	perCold := func(x float64) float64 { return x / float64(max(nCold, 1)) }
	perRestart := func(x float64) float64 { return x / float64(max(nRestart, 1)) }
	n := float64(max(len(counters), 1))
	l := p.layer
	l["runner.busy_s"] = perCold(busy.Seconds())
	l["runner.calls"] = perCold(float64(calls))
	l["runner.delta_records"] = float64(sum.records) / n
	l["runner.delta_resumes"] = float64(sum.resumes) / n
	l["runner.delta_serves"] = float64(sum.serves) / n
	l["runner.pool_hits"] = float64(sum.poolHits) / n
	l["runner.pool_misses"] = float64(sum.poolMisses) / n
	l["runner.ns_per_simulated_si"] = float64(simNS) / float64(max(simSI, 1))
	l["explore.self_ms"] = perCold(1000 * self.Seconds())
	l["explore.cache_put_ms"] = perCold(1000 * put.Seconds())
	l["explore.cache_misses"] = perCold(float64(misses))
	l["explore.restart_self_ms"] = perRestart(1000 * restartSelf.Seconds())
	l["explore.cache_get_ms"] = perRestart(1000 * get.Seconds())
	l["explore.cache_hits"] = perRestart(float64(hits))
	p.notes["runner.rows"] = fmt.Sprintf("means over %d cold and %d restart sweeps", nCold, nRestart)
}
