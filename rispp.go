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
	// CIF H.264 encode. The simulator reads its bursts in place
	// (workload.Compile), and a Runner keeps the compiled form, so the
	// trace is read-only once handed over: clone it before changing it.
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
	// when its own checkpoint trail could serve it or a shorter trace's
	// trail could be extended to it. Results are identical either way; the
	// knob exists for benchmarking the raw simulator and for reference runs
	// that must simulate every point.
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
	c.applyBus()
}

// applyBus folds c.Bus into the reconfiguration timing and, when set, the
// workload, then clears it so it applies once. It returns the applied Bus
// (nil when none was set) for stretching traces generated later.
func (c *Config) applyBus() *membus.Config {
	bus := c.Bus
	if bus == nil {
		return nil
	}
	if c.Timing == (reconfig.Timing{}) {
		c.Timing = reconfig.DefaultTiming()
	}
	c.Timing = bus.Timing(c.Timing)
	if c.Workload != nil {
		c.Workload = bus.ApplyToTrace(c.Workload)
	}
	c.Bus = nil
	return bus
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
// merged multi-app) ISA. A non-nil base.Workload (stretched by base.Bus, if
// set) is used for every point and excludes scenario points — in that case
// do not share an explore.Cache across different traces, since the point
// key only describes the knobs.
//
// A Runner keeps no runtimes: each simulated run builds its own with
// NewRuntime and drops it when the run ends. Unless Config.DisableDelta is
// set, every eligible run leaves a checkpoint trail (sim.Trail) instead: a
// repeat of the point is served from it without building a runtime, and a
// longer trace of the same workload family at the same budget resumes from
// it (see DeltaStats).
type Runner struct {
	base     Config         // Bus already applied (see NewRunner)
	bus      *membus.Config // stretches every trace the Runner generates
	results  sync.Pool      // *sim.Result, reused across runs
	compiled sync.Map       // workKey → *workload.Compiled
	built    atomic.Int64   // runtimes built by RunPoint

	// trails holds completed delta-resimulation trails (sim.Trail) by
	// workload family: a trail serves its own point and extends to longer
	// traces of its family, both at its own budget. Only complete trails
	// are stored, and a complete trail is immutable, so reading one needs
	// no lock.
	trails                               sync.Map // runtimeKey → *trailSet
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

// trailEntry is one stored trail with the frame count it recorded.
type trailEntry struct {
	frames int
	t      *sim.Trail
}

// trailSet holds the recorded trails of one runtime key's workload family,
// one per frame count. The frame count is only a candidate filter: whether
// a shorter run's trail really prefixes a longer trace is decided by sim,
// per compiled-trace pair (workload.Compiled.Extends). entries is
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

// store records the complete trail for frames, first-wins: under
// concurrent recording of the same point the earliest trail sticks and
// later ones are dropped (all are field-exact equivalent).
func (ts *trailSet) store(frames int, t *sim.Trail) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for _, e := range ts.entries {
		if e.frames == frames {
			return
		}
	}
	ts.entries = append(ts.entries, trailEntry{frames: frames, t: t})
}

// runtimeKey identifies a trail set: everything that distinguishes one
// runtime build from another under one Runner (whose remaining config
// fields are fixed), with the frame count zeroed, so one key covers every
// trace length of a workload family.
type runtimeKey struct {
	scheduler     string
	numACs        int
	seedForecasts bool
	prefetch      bool
	work          workKey
}

// NewRunner builds a Runner over the base config. A base.Bus is applied
// once here: it stretches the reconfiguration timing and a pinned
// base.Workload, and the Runner stretches every trace it generates the same
// way. The Bus is base-only, so equal workload knobs still give an equal
// stretched trace, and the stretch leaves burst counts — hence forecast
// seeds — alone; the trace memo and trails apply unchanged.
// The default ISA is resolved once here: building the H.264 Molecule
// library per point would dwarf a run's cost.
func NewRunner(base Config) *Runner {
	if base.ISA == nil {
		base.ISA = isa.H264()
	}
	bus := base.applyBus()
	return &Runner{base: base, bus: bus}
}

// RuntimePoolStats reports 0 hits and, as misses, the number of runtimes
// RunPoint has built: one per simulated run (a record, a resume, or any run
// with delta-resimulation off), none for a point served from its trail. A
// Runner keeps no runtime between runs, so nothing is ever reused; the
// method keeps the former pool counters' shape for callers that read them.
func (r *Runner) RuntimePoolStats() (hits, misses int64) {
	return 0, r.built.Load()
}

// DeltaStats reports how RunPoint requests were satisfied by the
// delta-resimulation layer: serves completed without simulating at all
// (the point's own trail), resumes simulated only the phases a shorter
// trace's trail lacked, and records simulated from power-on while
// recording a new trail. Requests with delta off (DisableDelta or
// ineligible Collect options) count as none of the three.
func (r *Runner) DeltaStats() (serves, resumes, records int64) {
	return r.deltaServes.Load(), r.deltaResumes.Load(), r.deltaRecs.Load()
}

// deltaOn reports whether delta-resimulation applies to runs of cfg: it
// must not be disabled and the collected artifacts must be checkpointable.
func (r *Runner) deltaOn(cfg *Config) bool {
	return !cfg.DisableDelta && sim.DeltaEligible(cfg.Collect)
}

// trailSetFor returns the (lazily created) trail set of the workload family
// a run of cfg on work belongs to.
func (r *Runner) trailSetFor(cfg *Config, work workKey) *trailSet {
	work.knobs.Frames = 0
	key := runtimeKey{
		scheduler:     cfg.Scheduler,
		numACs:        cfg.NumACs,
		seedForecasts: cfg.SeedForecasts,
		prefetch:      cfg.Prefetch,
		work:          work,
	}
	v, ok := r.trails.Load(key)
	if !ok {
		v, _ = r.trails.LoadOrStore(key, new(trailSet))
	}
	return v.(*trailSet)
}

// runPointDelta is RunPoint through the delta-resimulation layer: serve the
// point from its own recorded trail (no runtime at all), otherwise resume
// from the trail of the longest shorter trace this one verifiably extends,
// falling back to a full recording run, and store the resulting trail so
// future requests for this point are served.
func (r *Runner) runPointDelta(ctx context.Context, cfg *Config, work workKey, ct *workload.Compiled, res *sim.Result) error {
	ts := r.trailSetFor(cfg, work)
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

	rt, err := r.newRuntime(cfg, ct)
	if err != nil {
		return err
	}
	crt := rt.(sim.Checkpointable) // every runtime NewRuntime builds is
	rec := new(sim.Trail)
	resumed := false
	if best != nil {
		resumed, err = sim.ResumeCompiled(ctx, ct, crt, cfg.Collect, res, best, rec)
	}
	if !resumed {
		err = sim.RunCompiledTrail(ctx, ct, crt, cfg.Collect, res, rec)
	}
	if err != nil {
		return err // rec incomplete → discarded
	}
	if resumed {
		r.deltaResumes.Add(1)
	} else {
		r.deltaRecs.Add(1)
	}
	ts.store(work.knobs.Frames, rec)
	return nil
}

// newRuntime builds the runtime for one run of cfg over the compiled trace
// ct; the run owns it and drops it when it ends. Forecast seeding reads
// ct.Trace rather than regenerating the workload.
func (r *Runner) newRuntime(cfg *Config, ct *workload.Compiled) (sim.Runtime, error) {
	if cfg.Workload == nil {
		cfg.Workload = ct.Trace
	}
	rt, err := NewRuntime(*cfg)
	if err == nil {
		r.built.Add(1)
	}
	return rt, err
}

// pointConfig materializes point p over the base config and returns it with
// the workload memo key (zeroed when the base pins a shared trace).
// cfg.Workload is left nil for generator-driven traces: generating the
// trace is only necessary on a compile-memo miss, and materializeWorkload
// fills it in exactly there; a runtime build seeds its forecasts from the
// memoized compiled trace instead. A run on a warm memo therefore touches
// neither the ISA builder nor the trace generator.
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
	switch cfg.Scheduler {
	case "":
		cfg.Scheduler = "HEF"
	case "software":
		// NumACs is ignored for software, so every budget shares one trail.
		cfg.NumACs = 0
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
	case cfg.Workload != nil:
		// Single shared trace, one memo slot: key stays zero.
	default:
		key.knobs = workload.H264Config{
			Frames:            p.Frames,
			Seed:              p.Seed,
			MotionVariability: p.Motion,
			SceneChangeFrame:  p.SceneChange,
		}
	}
	return cfg, key, nil
}

// materializeWorkload generates the generator-driven trace pointConfig left
// lazy (no pinned base workload), stretched by the base Bus if one is set.
// A scenario key always resolves: pointConfig already verified the name.
func (r *Runner) materializeWorkload(cfg *Config, key workKey) {
	if cfg.Workload != nil {
		return
	}
	if key.scenario != "" {
		sc, _ := scenario.Find(key.scenario)
		cfg.Workload = sc.Trace(key.knobs.Frames, key.knobs.Seed)
	} else {
		cfg.Workload = workload.H264(key.knobs)
	}
	if r.bus != nil {
		cfg.Workload = r.bus.ApplyToTrace(cfg.Workload)
	}
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

// compile lowers cfg's workload, memoized per workload key.
func (r *Runner) compile(cfg *Config, key workKey) (*workload.Compiled, error) {
	if v, ok := r.compiled.Load(key); ok {
		return v.(*workload.Compiled), nil
	}
	r.materializeWorkload(cfg, key)
	ct, err := workload.Compile(cfg.Workload, cfg.ISA)
	if err != nil {
		return nil, err
	}
	if v, loaded := r.compiled.LoadOrStore(key, ct); loaded {
		ct = v.(*workload.Compiled)
	}
	return ct, nil
}

// RunPoint simulates design point p into the caller-owned res (typically
// from GetResult), collecting the artifacts selected by collect. A point
// its own trail serves builds no runtime; any other run builds one and
// drops it when it ends. The compiled trace comes from the memo when
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
	rt, err := r.newRuntime(&cfg, ct)
	if err != nil {
		return err
	}
	return sim.RunCompiled(ctx, ct, rt, cfg.Collect, res)
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
