// Package rispp is the public API of the RISPP run-time-system library: a
// reproduction of "Run-time System for an Extensible Embedded Processor
// with Dynamic Instruction Set" (Bauer, Shafique, Kreutz, Henkel — DATE
// 2008).
//
// A RISPP processor executes Special Instructions (SIs) that are composed
// at run time from reconfigurable data paths (Atoms) loaded into Atom
// Containers. The library bundles the formal Molecule model, the H.264
// dynamic instruction set of the paper's Table 1, the online monitor, the
// Molecule selection, the Special Instruction Scheduler (FSFR, ASF, SJF and
// the paper's HEF), a Molen-like baseline, and a cycle-level simulator.
//
// Quick start:
//
//	res, err := rispp.Run(rispp.Config{Scheduler: "HEF", NumACs: 10})
//	if err != nil { ... }
//	fmt.Println(res.TotalCycles)
//
// See examples/ for complete programs and bench_test.go for the harness
// regenerating every table and figure of the paper.
package rispp

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"rispp/internal/bitstream"
	"rispp/internal/core"
	"rispp/internal/explore"
	"rispp/internal/isa"
	"rispp/internal/membus"
	"rispp/internal/molen"
	"rispp/internal/oracle"
	"rispp/internal/reconfig"
	"rispp/internal/scenario"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

// Schedulers lists the SI-Scheduler names accepted by Config.Scheduler, in
// the paper's order. Additionally, Config.Scheduler accepts "Molen" (the
// baseline reconfigurable system) and "software" (plain base processor).
var Schedulers = sched.Names

// Config describes one simulated system + workload combination.
type Config struct {
	// ISA is the dynamic instruction set; nil selects the paper's H.264
	// encoder ISA (Table 1).
	ISA *isa.ISA
	// Workload is the trace to execute; nil selects the paper's 140-frame
	// CIF H.264 encode.
	Workload *workload.Trace
	// Scheduler selects the run-time system: one of Schedulers for RISPP
	// ("HEF" if empty), "Molen" for the baseline, or "software".
	Scheduler string
	// NumACs is the number of Atom Containers (ignored for "software").
	NumACs int

	// SeedForecasts, when true, seeds the execution-count forecasts from
	// the first occurrence of each hot spot in the trace — the design-time
	// estimation of the paper's toolchain. Almost always desirable.
	SeedForecasts bool
	// Eviction selects the Atom Container eviction policy (RISPP only).
	Eviction reconfig.EvictionPolicy
	// MonitorShift sets the forecast smoothing α = 2^-shift.
	MonitorShift uint
	// Timing overrides the reconfiguration timing calibration (zero value:
	// 100 MHz clock, avg Atom reload 874.03 µs).
	Timing reconfig.Timing
	// ExhaustiveSelection switches RISPP to the exponential reference
	// Molecule selection (ablation; small SI sets per hot spot only).
	ExhaustiveSelection bool
	// Bitstreams optionally drives the reconfiguration port from generated
	// partial-bitstream images (see internal/bitstream).
	Bitstreams *bitstream.Repository
	// Prefetch enables reconfiguration prefetching for the predicted next
	// hot spot while the port would otherwise idle (extension, RISPP only).
	Prefetch bool
	// Bus, when non-nil, models contention on the shared memory bus: Atom
	// reload times stretch by the DMA's squeezed share and the trace's glue
	// cycles by the core's slowdown (see internal/membus).
	Bus *membus.Config

	// Collect controls measurement artifacts (histograms, timelines).
	Collect sim.Options

	// DisableDelta turns off delta-resimulation in Runner-based paths
	// (RunPoint and everything built on it: the engine adapters, Explorer,
	// the serving layer): every point then simulates from power-on even
	// when a recorded checkpoint trail could serve it. Results are
	// identical either way; the knob exists for benchmarking the raw
	// simulator and for tests that pin runtime-pool behavior.
	DisableDelta bool
}

func (c *Config) setDefaults() {
	if c.ISA == nil {
		c.ISA = isa.H264()
	}
	if c.Workload == nil {
		c.Workload = workload.H264(workload.H264Config{})
	}
	if c.Scheduler == "" {
		c.Scheduler = "HEF"
	}
	if c.Bus != nil {
		if c.Timing == (reconfig.Timing{}) {
			c.Timing = reconfig.DefaultTiming()
		}
		c.Timing = c.Bus.Timing(c.Timing)
		c.Workload = c.Bus.ApplyToTrace(c.Workload)
		c.Bus = nil // applied
	}
}

// NewRuntime builds the runtime described by the config without running it;
// useful for custom simulation loops.
func NewRuntime(cfg Config) (sim.Runtime, error) {
	cfg.setDefaults()
	switch cfg.Scheduler {
	case "software":
		return sim.Software(cfg.ISA), nil
	case "Molen", "molen":
		rt := molen.New(molen.Config{
			ISA:          cfg.ISA,
			NumACs:       cfg.NumACs,
			Timing:       cfg.Timing,
			MonitorShift: cfg.MonitorShift,
		})
		if cfg.SeedForecasts {
			rt.SeedFromTrace(cfg.Workload)
		}
		return rt, nil
	default:
		s, err := sched.New(cfg.Scheduler)
		if err != nil {
			return nil, fmt.Errorf("rispp: %w", err)
		}
		mgr := core.NewManager(core.Config{
			ISA:                 cfg.ISA,
			NumACs:              cfg.NumACs,
			Scheduler:           s,
			Timing:              cfg.Timing,
			Eviction:            cfg.Eviction,
			MonitorShift:        cfg.MonitorShift,
			ExhaustiveSelection: cfg.ExhaustiveSelection,
			Bitstreams:          cfg.Bitstreams,
			Prefetch:            cfg.Prefetch,
		})
		if cfg.SeedForecasts {
			mgr.SeedFromTrace(cfg.Workload)
		}
		return mgr, nil
	}
}

// Run simulates the configured system on the configured workload.
func Run(cfg Config) (*sim.Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation and deadline support: the simulator
// checks the context between events (Atom-load completions and phase
// boundaries), so even a billions-of-cycles run stops promptly.
func RunContext(ctx context.Context, cfg Config) (*sim.Result, error) {
	cfg.setDefaults()
	rt, err := NewRuntime(cfg)
	if err != nil {
		return nil, err
	}
	// sim.RunContext compiles the trace, which validates it against the ISA.
	return sim.RunContext(ctx, cfg.Workload, cfg.ISA, rt, cfg.Collect)
}

// Runner materializes explore.Points as full simulation runs over a base
// Config, sharing per-run scratch across calls: traces are compiled once
// per distinct workload-knob combination (the compiled form is immutable
// and race-free to share) and sim.Result buffers are recycled through a
// sync.Pool, so a steady stream of points re-pays neither trace lowering
// nor result allocation per run. A Runner is safe for concurrent use; both
// the exploration engine (Explorer) and the HTTP serving layer
// (internal/serve) run their points through one.
//
// When base.Workload is nil, the point's workload knobs (frames, seed,
// motion variability, scene change) build the H.264 trace — or, when the
// point names a scenario, the scenario generator of internal/scenario
// builds the trace and the run executes under that scenario's (possibly
// merged multi-app) ISA. A non-nil base.Workload is used verbatim for
// every point and excludes scenario points — in that case do not share an
// explore.Cache across different traces, since the point key only
// describes the knobs.
// Runtimes are pooled too: runtime construction allocates the full arena
// set (monitor tables, Atom Container array, scheduler scratch), while a
// reused runtime is Reset in place by the simulator and re-runs without
// allocating. The pool is keyed by everything that distinguishes one
// runtime build from another under a fixed base config — scheduler, #ACs,
// forecast seeding, prefetching, and the workload knobs (forecast seeds
// derive from the trace).
type Runner struct {
	base     Config
	memo     bool      // trace memo + runtime pool are sound (no Bus rewrite)
	results  sync.Pool // *sim.Result, reused across runs
	compiled sync.Map  // workKey → *workload.Compiled

	runtimes             sync.Map // runtimeKey → *runtimePool
	poolHits, poolMisses atomic.Int64

	// trails holds completed delta-resimulation trails (sim.Trail) keyed by
	// everything that distinguishes runs EXCEPT the container budget and the
	// frame count — the two axes trails transfer across. Only complete
	// trails are stored, and a complete trail is immutable, so reading one
	// needs no lock.
	trails                               sync.Map // trailKey → *trailSet
	deltaServes, deltaResumes, deltaRecs atomic.Int64
}

// workKey identifies a distinct workload under a fixed base config: which
// generator produced the trace (the H.264 generator when scenario is
// empty, the named scenario of internal/scenario otherwise) and the knobs
// it ran with. Scenario traces use only the Frames and Seed knobs; the
// H.264-only knobs stay zero in their keys.
type workKey struct {
	scenario string
	knobs    workload.H264Config
}

// trailKey is runtimeKey minus the budget axis and the frame count: two
// runs with equal trail keys differ at most in NumACs and in how many
// frames of one workload family they run — the differences
// delta-resimulation bridges. The frame count is only a candidate filter:
// whether a shorter run's trail really prefixes a longer trace is decided
// by sim, per compiled-trace pair (workload.Compiled.Extends).
type trailKey struct {
	scheduler     string
	seedForecasts bool
	prefetch      bool
	work          workKey // knobs.Frames zeroed
}

// trailEntry is one stored trail with the point coordinates it serves.
type trailEntry struct {
	frames, budget int
	t              *sim.Trail
}

// trailSet holds the recorded trails of one trail class. entries is
// append-only, so a reader copies the slice header under the mutex and then
// walks the entries without it: stored entries never change, and the
// trails are immutable once stored.
type trailSet struct {
	mu      sync.Mutex
	entries []trailEntry
}

// deepest returns the stored trail that skips the most leading phases of
// ct for a run at budget with opts, and that depth (0 and nil when none is
// usable). A depth of len(ct.Phases) is a full skip (Trail.Serve); the walk
// stops at the first one. Selection allocates nothing.
func (ts *trailSet) deepest(ct *workload.Compiled, budget int, opts sim.Options) (*sim.Trail, int) {
	ts.mu.Lock()
	entries := ts.entries
	ts.mu.Unlock()
	var best *sim.Trail
	depth := 0
	for i := range entries {
		t := entries[i].t
		if d := t.ResumeDepth(ct, budget, opts); d > depth {
			best, depth = t, d
			if d == len(ct.Phases) {
				break
			}
		}
	}
	return best, depth
}

// store records the complete trail for (frames, budget), first-wins: under
// concurrent recording of the same point the earliest trail sticks and
// later ones are dropped (all are field-exact equivalent).
func (ts *trailSet) store(frames, budget int, t *sim.Trail) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, e := range ts.entries {
		if e.frames == frames && e.budget == budget {
			return
		}
	}
	ts.entries = append(ts.entries, trailEntry{frames: frames, budget: budget, t: t})
}

// runtimePool is a per-key free list of idle runtimes. Unlike sync.Pool it
// holds strong references: a runtime arena is a deliberate, bounded cache
// (the list can never exceed the peak number of concurrent runs per key),
// and dropping it on every GC — which the construction garbage of the
// resulting misses itself triggers — would defeat the cache exactly when
// it is needed.
type runtimePool struct {
	mu   sync.Mutex
	free []sim.Runtime
}

// maxPooledPerKey bounds each free list as a safety net; in practice the
// list size equals the peak concurrency on the key (a handful).
const maxPooledPerKey = 32

func (p *runtimePool) get() (sim.Runtime, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		rt := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return rt, true
	}
	return nil, false
}

func (p *runtimePool) put(rt sim.Runtime) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < maxPooledPerKey {
		p.free = append(p.free, rt)
	}
}

// runtimeKey identifies a pool of interchangeable runtimes: two builds with
// equal keys (under one Runner, whose remaining config fields are fixed)
// are behaviorally identical after Reset.
type runtimeKey struct {
	scheduler     string
	numACs        int
	seedForecasts bool
	prefetch      bool
	work          workKey
}

// NewRunner builds a Runner over the base config. Trace memoization and the
// runtime pool are disabled when base.Bus is set, because the Bus transform
// rewrites the trace after the workload knobs are applied — equal knobs
// would no longer imply an equal compiled trace (or equal forecast seeds)
// per config. The default ISA is resolved once here: building the H.264
// Molecule library per point would dwarf a pooled run's cost.
func NewRunner(base Config) *Runner {
	if base.ISA == nil {
		base.ISA = isa.H264()
	}
	return &Runner{base: base, memo: base.Bus == nil}
}

// RuntimePoolStats reports how often a RunPoint runtime request was served
// from the pool (hit) versus built fresh (miss). With the pool disabled
// (base.Bus set) every request counts as a miss. Points served entirely
// from a checkpoint trail never request a runtime and therefore count as
// neither; with delta-resimulation on, a repeated point is such a serve,
// so hits come mostly from DisableDelta and histogram/timeline runs.
func (r *Runner) RuntimePoolStats() (hits, misses int64) {
	return r.poolHits.Load(), r.poolMisses.Load()
}

// DeltaStats reports how RunPoint requests were satisfied by the
// delta-resimulation layer: serves completed without simulating at all
// (a recorded trail transferred end to end), resumes re-simulated only a
// suffix of the trace, and records simulated from power-on while recording
// a new trail. Requests with delta off (DisableDelta, ineligible Collect
// options, or a Bus-rewritten workload) count as none of the three.
func (r *Runner) DeltaStats() (serves, resumes, records int64) {
	return r.deltaServes.Load(), r.deltaResumes.Load(), r.deltaRecs.Load()
}

// deltaOn reports whether delta-resimulation applies to runs of cfg: the
// memo must be sound (trail identity relies on the same keying as the
// runtime pool) and the collected artifacts checkpointable.
func (r *Runner) deltaOn(cfg *Config) bool {
	return r.memo && !cfg.DisableDelta && sim.DeltaEligible(cfg.Collect)
}

// trailSetFor returns the (lazily created) trail set of cfg's trail class.
func (r *Runner) trailSetFor(cfg *Config, key workKey) *trailSet {
	key.knobs.Frames = 0
	tk := trailKey{
		scheduler:     cfg.Scheduler,
		seedForecasts: cfg.SeedForecasts,
		prefetch:      cfg.Prefetch,
		work:          key,
	}
	v, ok := r.trails.Load(tk)
	if !ok {
		v, _ = r.trails.LoadOrStore(tk, new(trailSet))
	}
	return v.(*trailSet)
}

// runPointDelta is RunPoint through the delta-resimulation layer: serve the
// point from a recorded trail when one transfers end to end (no runtime at
// all), otherwise resume from the deepest transferable rung among all the
// class's trails — other budgets of this trace, and trails of shorter
// traces this one verifiably extends — falling back to a full recording
// run, and store the resulting trail so future requests for this point
// full-skip.
func (r *Runner) runPointDelta(ctx context.Context, cfg *Config, key workKey, ct *workload.Compiled, res *sim.Result) error {
	ts := r.trailSetFor(cfg, key)
	best, depth := ts.deepest(ct, cfg.NumACs, cfg.Collect)
	if best != nil && depth == len(ct.Phases) {
		served, err := best.Serve(ct, cfg.NumACs, cfg.Collect, res)
		if served {
			if err == nil {
				r.deltaServes.Add(1)
			}
			return err
		}
	}

	rt, pool, err := r.runtime(cfg, runtimeKey{
		scheduler:     cfg.Scheduler,
		numACs:        cfg.NumACs,
		seedForecasts: cfg.SeedForecasts,
		prefetch:      cfg.Prefetch,
		work:          key,
	}, ct)
	if err != nil {
		return err
	}
	crt, ok := rt.(sim.Checkpointable)
	if !ok { // custom runtime without checkpoint support
		err = sim.RunCompiled(ctx, ct, rt, cfg.Collect, res)
		r.putRuntime(pool, rt)
		return err
	}
	rec := new(sim.Trail)
	resumed := false
	if best != nil {
		resumed, err = sim.ResumeCompiled(ctx, ct, crt, cfg.Collect, res, best, rec)
	}
	if !resumed {
		err = sim.RunCompiledTrail(ctx, ct, crt, cfg.Collect, res, rec)
	}
	r.putRuntime(pool, rt)
	if err != nil {
		return err // rec incomplete → discarded
	}
	if resumed {
		r.deltaResumes.Add(1)
	} else {
		r.deltaRecs.Add(1)
	}
	ts.store(key.knobs.Frames, cfg.NumACs, rec)
	return nil
}

// runtime returns a runtime for cfg, pooled under key when sound. A non-nil
// pool must be handed back via putRuntime once the run completes — even a
// failed run, since Reset restores power-on state regardless. ct is the
// compiled trace the run executes; a runtime built on a pool miss seeds its
// forecasts from ct.Trace rather than regenerating the workload.
func (r *Runner) runtime(cfg *Config, key runtimeKey, ct *workload.Compiled) (sim.Runtime, *runtimePool, error) {
	if !r.memo {
		r.poolMisses.Add(1)
		rt, err := NewRuntime(*cfg)
		return rt, nil, err
	}
	v, ok := r.runtimes.Load(key)
	if !ok {
		v, _ = r.runtimes.LoadOrStore(key, new(runtimePool))
	}
	pool := v.(*runtimePool)
	if rt, ok := pool.get(); ok {
		r.poolHits.Add(1)
		return rt, pool, nil
	}
	r.poolMisses.Add(1)
	if cfg.Workload == nil {
		cfg.Workload = ct.Trace // forecast seeding reads the trace
	}
	rt, err := NewRuntime(*cfg)
	if err != nil {
		return nil, nil, err
	}
	return rt, pool, nil
}

func (r *Runner) putRuntime(pool *runtimePool, rt sim.Runtime) {
	if pool != nil {
		pool.put(rt)
	}
}

// pointConfig materializes point p over the base config and returns it with
// the workload memo key (zeroed when the base pins a shared trace). When
// memoization is on, cfg.Workload is left nil for generator-driven traces:
// generating the trace is only necessary on a compile-memo miss, and
// materializeWorkload fills it in exactly there; a runtime-pool miss seeds
// from the memoized compiled trace instead. The steady state — warm memo,
// warm pool — therefore touches neither the ISA builder nor the trace
// generator, and a cold runtime build does not regenerate the trace.
//
// A point naming a scenario swaps in that scenario's ISA (the merged
// instruction set of a multi-app scenario is a different Atom space than
// the base ISA) and uses only the Frames and Seed knobs; it is rejected
// when the base pins a workload or an unknown scenario is named.
func (r *Runner) pointConfig(p explore.Point, collect sim.Options) (Config, workKey, error) {
	cfg := r.base // base.ISA is pre-resolved by NewRunner
	cfg.Scheduler = p.Scheduler
	cfg.NumACs = p.NumACs
	cfg.SeedForecasts = p.SeedForecasts
	cfg.Prefetch = p.Prefetch
	cfg.Collect = collect
	if cfg.Scheduler == "" {
		cfg.Scheduler = "HEF"
	}
	var key workKey
	switch {
	case p.Scenario != "":
		if cfg.Workload != nil {
			return cfg, key, fmt.Errorf("rispp: point %s names a scenario but the base config pins a workload", p.Key())
		}
		if p.Motion != 0 || p.SceneChange != 0 {
			return cfg, key, fmt.Errorf("rispp: point %s combines scenario %q with H.264 knobs", p.Key(), p.Scenario)
		}
		sc, ok := scenario.Find(p.Scenario)
		if !ok {
			return cfg, key, fmt.Errorf("rispp: unknown scenario %q", p.Scenario)
		}
		key = workKey{scenario: p.Scenario, knobs: workload.H264Config{Frames: p.Frames, Seed: p.Seed}}
		cfg.ISA = sc.ISA()
		if !r.memo {
			cfg.Workload = sc.Trace(p.Frames, p.Seed)
		}
	case cfg.Workload != nil:
		// Single shared trace, one memo slot: key stays zero.
	default:
		key.knobs = workload.H264Config{
			Frames:            p.Frames,
			Seed:              p.Seed,
			MotionVariability: p.Motion,
			SceneChangeFrame:  p.SceneChange,
		}
		if !r.memo {
			cfg.Workload = workload.H264(key.knobs)
		}
	}
	if cfg.Bus != nil {
		cfg.setDefaults() // applies the Bus transform to timing and trace
	}
	return cfg, key, nil
}

// materializeWorkload generates the generator-driven trace if pointConfig
// left it lazy (memo on, no pinned base workload). A scenario key always
// resolves: pointConfig already verified the name.
func materializeWorkload(cfg *Config, key workKey) {
	if cfg.Workload != nil {
		return
	}
	if key.scenario != "" {
		sc, _ := scenario.Find(key.scenario)
		cfg.Workload = sc.Trace(key.knobs.Frames, key.knobs.Seed)
		return
	}
	cfg.Workload = workload.H264(key.knobs)
}

// GetResult returns a pooled Result for RunPoint; return it with PutResult
// once its values have been read, so later runs reuse its buffers.
func (r *Runner) GetResult() *sim.Result {
	if res, ok := r.results.Get().(*sim.Result); ok {
		return res
	}
	return new(sim.Result)
}

// PutResult recycles a Result obtained from GetResult. The caller must not
// retain any reference into it afterwards.
func (r *Runner) PutResult(res *sim.Result) { r.results.Put(res) }

// compile lowers cfg's workload, memoizing per workload key when sound.
func (r *Runner) compile(cfg *Config, key workKey) (*workload.Compiled, error) {
	if r.memo {
		if v, ok := r.compiled.Load(key); ok {
			return v.(*workload.Compiled), nil
		}
	}
	materializeWorkload(cfg, key)
	ct, err := workload.Compile(cfg.Workload, cfg.ISA)
	if err != nil {
		return nil, err
	}
	if r.memo {
		if v, loaded := r.compiled.LoadOrStore(key, ct); loaded {
			ct = v.(*workload.Compiled)
		}
	}
	return ct, nil
}

// RunPoint simulates design point p into the caller-owned res (typically
// from GetResult), collecting the artifacts selected by collect. The
// runtime comes from the runtime pool (built fresh on a miss) and is
// returned to it afterwards; the compiled trace comes from the memo when
// possible. On error res holds partial state and must not be interpreted
// (it is still safe to PutResult).
func (r *Runner) RunPoint(ctx context.Context, p explore.Point, collect sim.Options, res *sim.Result) error {
	cfg, key, err := r.pointConfig(p, collect)
	if err != nil {
		return err
	}
	ct, err := r.compile(&cfg, key)
	if err != nil {
		return err
	}
	if r.deltaOn(&cfg) {
		return r.runPointDelta(ctx, &cfg, key, ct, res)
	}
	rt, pool, err := r.runtime(&cfg, runtimeKey{
		scheduler:     cfg.Scheduler,
		numACs:        cfg.NumACs,
		seedForecasts: cfg.SeedForecasts,
		prefetch:      cfg.Prefetch,
		work:          key,
	}, ct)
	if err != nil {
		return err
	}
	err = sim.RunCompiled(ctx, ct, rt, cfg.Collect, res)
	r.putRuntime(pool, rt)
	return err
}

// Explorer wires the design-space exploration engine of internal/explore to
// this library: every explore.Point is materialized as a Config and
// simulated on a bounded worker pool, through a shared Runner (see Runner
// for the workload semantics and the scratch-sharing guarantees). The
// engine's RunSet hook is wired too, so the points of one workload family
// (equal except in scheduler and frame count) reach a worker together; the
// Runner runs them one after another, exactly as it runs single points,
// and each longer trace resumes from its shorter sibling's trail.
func Explorer(base Config, workers int, cache *explore.Cache) *explore.Engine {
	return explorer(base, workers, cache, false)
}

// CheckedExplorer is Explorer with every simulated point validated by the
// reference oracle (internal/oracle.Check): conservation of executions,
// phase structure, the exact cycle identity, and the software upper bound.
// A point that simulates but violates an invariant comes back as an error
// rather than a silently wrong metric — the mode adaptive search uses, so
// a guided optimizer can never exploit a simulator bug.
func CheckedExplorer(base Config, workers int, cache *explore.Cache) *explore.Engine {
	return explorer(base, workers, cache, true)
}

func explorer(base Config, workers int, cache *explore.Cache, check bool) *explore.Engine {
	rn := NewRunner(base)
	eng := &explore.Engine{
		Workers: workers,
		Run:     rn.engineRun(check),
		RunSet:  rn.engineRunSet(check),
	}
	if cache != nil { // avoid a typed-nil Store interface
		eng.Cache = cache
	}
	return eng
}

// EngineRun adapts the Runner to the exploration engine's job signature:
// each call runs the point into a pooled Result and condenses it to
// explore.Metrics.
func (r *Runner) EngineRun() explore.RunFunc { return r.engineRun(false) }

// EngineRunSet adapts the Runner to the engine's grouped signature: the
// points of one workload family run one after another in the given order,
// each exactly as EngineRun would run it. In the engine's order (each
// scheduler's points in ascending frames) a longer trace finds the trail
// of the shorter one just recorded and extends it.
func (r *Runner) EngineRunSet() explore.RunSetFunc { return r.engineRunSet(false) }

func (r *Runner) engineRun(check bool) explore.RunFunc {
	return func(ctx context.Context, p explore.Point) (explore.Metrics, error) {
		return r.runMetrics(ctx, p, check)
	}
}

func (r *Runner) engineRunSet(check bool) explore.RunSetFunc {
	return func(ctx context.Context, ps []explore.Point) ([]explore.Metrics, error) {
		ms := make([]explore.Metrics, len(ps))
		for i, p := range ps {
			m, err := r.runMetrics(ctx, p, check)
			if err != nil {
				return nil, err
			}
			ms[i] = m
		}
		return ms, nil
	}
}

// runMetrics runs point p into a pooled Result and condenses it to
// explore.Metrics; with check set, the Result must first pass the oracle
// invariants. The trace for the check comes from the compile memo, so the
// only added cost is the oracle's linear walk over the result.
func (r *Runner) runMetrics(ctx context.Context, p explore.Point, check bool) (explore.Metrics, error) {
	res := r.GetResult()
	defer r.PutResult(res)
	if err := r.RunPoint(ctx, p, r.base.Collect, res); err != nil {
		return explore.Metrics{}, err
	}
	if check {
		cfg, key, err := r.pointConfig(p, r.base.Collect)
		if err != nil {
			return explore.Metrics{}, err
		}
		ct, err := r.compile(&cfg, key)
		if err != nil {
			return explore.Metrics{}, err
		}
		if err := oracle.Check(ct.Trace, cfg.ISA, res); err != nil {
			return explore.Metrics{}, fmt.Errorf("rispp: point %s: %w", p.Key(), err)
		}
	}
	return explore.Metrics{
		TotalCycles:  res.TotalCycles,
		StallCycles:  res.StallCycles,
		SWExecutions: res.TotalSWExecutions(),
		HWExecutions: res.TotalHWExecutions(),
	}, nil
}

// Sweep runs the given schedulers over a range of Atom Container counts
// (the Figure 7 / Table 2 experiment) and returns results indexed
// [scheduler][numACs]. The points run concurrently through the exploration
// engine; the simulator is deterministic, so results are identical to a
// sequential sweep.
func Sweep(base Config, schedulers []string, acs []int) (map[string]map[int]int64, error) {
	spec := explore.Spec{
		Schedulers:    schedulers,
		ACs:           acs,
		SeedForecasts: []bool{base.SeedForecasts},
		Prefetch:      []bool{base.Prefetch},
	}
	res, err := Explorer(base, 0, nil).Execute(context.Background(), spec, nil)
	if err != nil {
		return nil, fmt.Errorf("rispp: sweep: %w", err)
	}
	if err := res.FirstErr(); err != nil {
		return nil, fmt.Errorf("rispp: sweep: %w", err)
	}
	out := make(map[string]map[int]int64, len(schedulers))
	for _, rec := range res.Records {
		if out[rec.Point.Scheduler] == nil {
			out[rec.Point.Scheduler] = make(map[int]int64, len(acs))
		}
		out[rec.Point.Scheduler][rec.Point.NumACs] = rec.TotalCycles
	}
	return out, nil
}
