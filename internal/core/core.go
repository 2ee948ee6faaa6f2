// Package core implements the RISPP Run-Time Manager (paper Section 3.1):
// the component that (I) controls SI execution — dispatching to composed
// Molecules in the Atom Containers or trapping to the base instruction set —
// (II) observes SI execution frequencies through the online monitor, and
// (III) determines the Atom re-loading decisions by running the Molecule
// selection and the Special Instruction Scheduler at every hot-spot entry.
//
// Manager implements sim.Runtime and is the system the paper's proposed HEF
// scheduler (and the FSFR/ASF/SJF reference strategies) plugs into.
package core

import (
	"fmt"

	"rispp/internal/bitstream"
	"rispp/internal/isa"
	"rispp/internal/molecule"
	"rispp/internal/monitor"
	"rispp/internal/reconfig"
	"rispp/internal/sched"
	"rispp/internal/selection"
	"rispp/internal/workload"
)

// Config assembles a RISPP run-time system.
type Config struct {
	ISA       *isa.ISA
	NumACs    int             // number of Atom Containers
	Scheduler sched.Scheduler // SI Scheduler (required)

	Timing       reconfig.Timing         // zero value → reconfig.DefaultTiming()
	Eviction     reconfig.EvictionPolicy // Atom Container eviction policy
	MonitorShift uint                    // forecast smoothing α = 2^-shift
	Seed         int64                   // randomized eviction seed

	// Bitstreams, when set, makes the reconfiguration port read the
	// partial-bitstream sizes from the generated images instead of the
	// ISA's nominal byte counts (they agree by construction; this wires the
	// bitstream repository into the load path end to end).
	Bitstreams *bitstream.Repository

	// ExhaustiveSelection switches the greedy Molecule selection for the
	// exponential reference selection (ablation; small SI sets only).
	ExhaustiveSelection bool

	// Prefetch enables reconfiguration prefetching (an extension beyond the
	// paper): once the current hot spot's selection is fully composed and
	// the port idles, Atoms for the predicted next hot spot start loading.
	// The hot-spot rotation is learned online by the monitor.
	Prefetch bool
}

// Manager is the RISPP Run-Time Manager. It is not safe for concurrent use;
// run independent simulations with independent Managers.
type Manager struct {
	cfg  Config
	name string // "RISPP/<scheduler>", precomputed so Name is alloc-free
	mon  *monitor.Monitor

	array  *reconfig.Array
	port   *reconfig.Port
	needed molecule.Vector // sup of the current selection, protected from eviction

	seeds map[isa.SIID]int64 // initial forecasts, reapplied on Reset

	// Reusable arenas: the per-hot-spot selection/scheduling pipeline runs
	// entirely in this storage, so steady-state operation (and Reset, which
	// keeps it all) performs no allocations.
	selScratch   *selection.Scratch
	schedScratch *sched.Scratch
	cands        []selection.Candidate
	spotSIs      map[isa.HotSpotID][]*isa.SI // per-Manager cache of ISA.HotSpotSIs

	lastSpot   isa.HotSpotID
	started    bool
	prefetched bool
	now        int64 // latest simulation time the Manager has observed
	budget     int   // current container budget (≤ NumACs); see SetBudget

	// Per-SI caches over the Atom Container state, invalidated by bumping
	// gen whenever the array mutates (install, reset, restore). The
	// simulator reads Latency and reports Record once per SI per event, but
	// the oracle's reference interpreter calls both once per SI execution,
	// while the array only changes per completed reconfiguration; the cache
	// collapses that Molecule re-scan to one per SI per reconfiguration.
	gen      uint64
	latGen   []uint64  // per SI: gen the cache entry was computed at
	lat      []int32   // per SI: current latency
	touchIdx [][]int32 // per SI: slots Record must stamp for LRU recency

	// Selections counts hot-spot entries that selected at least one
	// Molecule; Requests records the most recent selection.
	Selections int
	Requests   []sched.Request
	// Prefetches counts prefetch schedules issued for upcoming hot spots.
	Prefetches int
	// StaleLoads counts completed reconfigurations that were discarded
	// because a hot-spot switch superseded their schedule and the new
	// selection had already claimed every Atom Container.
	StaleLoads int
}

// NewManager builds a Run-Time Manager from the config. It panics on an
// incomplete config — construction is program setup, not a recoverable path.
func NewManager(cfg Config) *Manager {
	if cfg.ISA == nil {
		panic("core: Config.ISA is required")
	}
	if cfg.Scheduler == nil {
		panic("core: Config.Scheduler is required")
	}
	if cfg.NumACs < 0 {
		panic("core: negative NumACs")
	}
	if cfg.Timing == (reconfig.Timing{}) {
		cfg.Timing = reconfig.DefaultTiming()
	}
	m := &Manager{cfg: cfg, name: "RISPP/" + cfg.Scheduler.Name(), seeds: make(map[isa.SIID]int64)}
	m.Reset()
	return m
}

// Name identifies the runtime as RISPP with its scheduler, e.g.
// "RISPP/HEF".
func (m *Manager) Name() string { return m.name }

// Seed installs an initial execution-count forecast for an SI (e.g. from a
// design-time profiling run). Seeds survive Reset.
func (m *Manager) Seed(si isa.SIID, expected int64) {
	m.seeds[si] = expected
	m.mon.Seed(si, expected)
}

// SeedFromTrace seeds the forecasts from the first occurrence of every hot
// spot in the trace — the offline estimation flow of the paper's toolchain.
func (m *Manager) SeedFromTrace(tr *workload.Trace) {
	seen := make(map[isa.HotSpotID]bool)
	for i := range tr.Phases {
		p := &tr.Phases[i]
		if seen[p.HotSpot] {
			continue
		}
		seen[p.HotSpot] = true
		per := make(map[isa.SIID]int64)
		for _, b := range p.Bursts {
			per[b.SI] += int64(b.Count)
		}
		for si, n := range per {
			m.Seed(si, n)
		}
	}
}

// Reset returns the system to its power-on state: empty Atom Containers,
// idle reconfiguration port, forecasts reset to the seeds. All backing
// storage (monitor tables, container array, port queue, selection and
// scheduling arenas) is kept and recycled, so Reset followed by a run
// allocates nothing in the steady state.
func (m *Manager) Reset() {
	is := m.cfg.ISA
	if m.mon == nil {
		m.mon = monitor.New(is, m.cfg.MonitorShift)
		m.array = reconfig.NewArray(m.cfg.NumACs, is.Dim(), m.cfg.Eviction, m.cfg.Seed)
		m.port = reconfig.NewPort(is, m.cfg.Timing)
		if repo := m.cfg.Bitstreams; repo != nil {
			m.port.SetSizeSource(func(a isa.AtomID) int { return len(repo.Image(a)) })
		}
		m.needed = molecule.New(is.Dim())
		m.selScratch = selection.NewScratch()
		m.schedScratch = sched.NewScratch()
		m.spotSIs = make(map[isa.HotSpotID][]*isa.SI)
		m.latGen = make([]uint64, len(is.SIs))
		m.lat = make([]int32, len(is.SIs))
		m.touchIdx = make([][]int32, len(is.SIs))
	} else {
		m.mon.Reset()
		m.array.Reset(m.cfg.Seed)
		m.port.Reset()
		m.needed.Zero()
	}
	for si, n := range m.seeds {
		m.mon.Seed(si, n)
	}
	m.started = false
	m.prefetched = false
	m.budget = m.cfg.NumACs
	m.gen++ // invalidate the per-SI latency/touch caches
	m.Selections = 0
	m.Requests = m.Requests[:0]
	m.Prefetches = 0
	m.StaleLoads = 0
}

// hotSpotSIs returns the SIs of hot spot h, cached per Manager: the ISA is
// immutable but shared across goroutines, so the cache lives here. The
// cache survives Reset — it is derived purely from the ISA.
func (m *Manager) hotSpotSIs(h isa.HotSpotID) []*isa.SI {
	sis, ok := m.spotSIs[h]
	if !ok {
		sis = m.cfg.ISA.HotSpotSIs(h)
		m.spotSIs[h] = sis
	}
	return sis
}

// SetBudget constrains how many Atom Containers the Molecule selection may
// use from the next hot-spot entry on — the run-time system's response to
// varying constraints (thermal throttling, a co-scheduled accelerator
// claiming fabric area). The physical containers stay; only the selection
// budget shrinks, so already loaded Atoms keep working until displaced.
// Values are clamped to [0, NumACs]; Reset restores the full fabric.
func (m *Manager) SetBudget(n int) {
	if n < 0 {
		n = 0
	}
	if n > m.cfg.NumACs {
		n = m.cfg.NumACs
	}
	m.budget = n
}

// Budget returns the current selection budget.
func (m *Manager) Budget() int { return m.budget }

// EnterHotSpot forecasts the upcoming hot spot, selects Molecules, runs the
// SI Scheduler and (re)programs the reconfiguration port.
func (m *Manager) EnterHotSpot(h isa.HotSpotID, now int64) {
	is := m.cfg.ISA
	if m.started {
		m.mon.RecordTransition(m.lastSpot, h)
	}
	m.lastSpot = h
	m.started = true
	m.prefetched = false
	m.now = now
	cands := m.cands[:0]
	for _, si := range m.hotSpotSIs(h) {
		cands = append(cands, selection.Candidate{SI: si, Expected: m.mon.Expected(h, si.ID)})
	}
	m.cands = cands
	m.mon.EnterHotSpot(h)

	var reqs []sched.Request
	if m.cfg.ExhaustiveSelection {
		var err error
		reqs, err = selection.Exhaustive(cands, m.budget, is.Dim(), 0)
		if err != nil {
			panic(fmt.Sprintf("core: exhaustive selection: %v", err))
		}
	} else {
		reqs = selection.GreedyInto(cands, m.budget, is.Dim(), m.selScratch)
	}
	m.Requests = reqs
	if len(reqs) > 0 {
		m.Selections++
	}
	selection.SupInto(reqs, m.needed)
	seq := sched.ScheduleInto(m.cfg.Scheduler, m.schedScratch, reqs, m.array.Loaded())
	m.port.Schedule(now, seq)
}

// LeaveHotSpot finalizes the monitor's counters for the hot spot.
func (m *Manager) LeaveHotSpot(now int64) { m.mon.LeaveHotSpot() }

// refreshSI recomputes the cached latency and touch-slot list of si against
// the current container state. One Molecule scan serves both: the fastest
// available Molecule determines the latency, and its Atom slots are the
// ones Record must stamp for LRU recency.
func (m *Manager) refreshSI(si isa.SIID) {
	loaded := m.array.Loaded()
	s := m.cfg.ISA.SI(si)
	if mol, ok := s.FastestAvailable(loaded); ok {
		m.lat[si] = int32(mol.Latency)
		m.touchIdx[si] = m.array.AppendTouchSlots(m.touchIdx[si][:0], mol.Atoms)
	} else {
		m.lat[si] = int32(s.SWLatency)
		m.touchIdx[si] = m.touchIdx[si][:0]
	}
	m.latGen[si] = m.gen
}

// Latency returns the per-execution latency of si: the fastest Molecule
// composed from the currently loaded Atoms, or the trap latency. Served
// from the per-SI cache; the Molecule scan reruns only after the container
// array actually changed.
func (m *Manager) Latency(si isa.SIID) int {
	if m.latGen[si] != m.gen {
		m.refreshSI(si)
	}
	return int(m.lat[si])
}

// Record reports executions to the monitor and refreshes Atom recency. The
// slots to stamp come from the same cache as Latency, so a burst of
// executions between reconfigurations costs one array scan total instead
// of one per call.
func (m *Manager) Record(si isa.SIID, n int64, now int64) {
	m.now = now
	m.mon.Record(si, n)
	if m.latGen[si] != m.gen {
		m.refreshSI(si)
	}
	m.array.TouchSlots(m.touchIdx[si], now)
}

// NextEvent returns the completion time of the Atom currently loading.
// With prefetching enabled, an idle port is immediately reprogrammed with
// Atom loads for the predicted next hot spot.
func (m *Manager) NextEvent() (int64, bool) {
	if m.cfg.Prefetch && m.started && !m.prefetched && !m.port.Busy() {
		m.schedulePrefetch(m.now)
	}
	return m.port.NextCompletion()
}

// Advance installs the Atom that finished loading at time t. The port
// cannot abort an in-flight bitstream, so a hot-spot switch can complete an
// Atom that the new selection has no room for: every container already
// claimed by the new sup. Such a stale Atom is discarded rather than
// evicting a protected one — it is provably redundant, because if the
// selection still lacked instances of its type, at least one container
// would be evictable (|sup| ≤ #ACs). With prefetching enabled, the moment
// the current hot spot's loads drain, the predicted next hot spot's Atoms
// are scheduled to keep the port busy.
func (m *Manager) Advance(t int64) {
	atom, at := m.port.Complete()
	m.now = at
	if m.array.CanInstall(m.needed) {
		m.array.Install(atom, m.needed, at)
		m.gen++ // container contents changed; latency/touch caches are stale
	} else {
		m.StaleLoads++
	}
	if m.cfg.Prefetch && !m.prefetched && !m.port.Busy() {
		m.schedulePrefetch(at)
	}
}

// schedulePrefetch selects Molecules for the predicted next hot spot that
// fit alongside the current hot spot's protected Atoms and programs the
// idle port with their loading sequence. One prefetch round per hot spot.
func (m *Manager) schedulePrefetch(now int64) {
	m.prefetched = true
	next, ok := m.mon.PredictNext(m.lastSpot)
	if !ok || next == m.lastSpot {
		return
	}
	is := m.cfg.ISA
	// The prefetch path allocates (it is an off-by-default extension beyond
	// the paper); the arenas above stay dedicated to the hot path.
	var cands []selection.Candidate
	for _, si := range m.hotSpotSIs(next) {
		cands = append(cands, selection.Candidate{SI: si, Expected: m.mon.Expected(next, si.ID)})
	}
	reqs := selection.Greedy(cands, m.budget, is.Dim())
	// Keep only Molecules whose joint requirement with the current
	// (protected) Atoms still fits the containers.
	kept := reqs[:0]
	sup := m.needed.Clone()
	for _, r := range reqs {
		joint := sup.Sup(r.Selected.Atoms)
		if joint.Determinant() > m.cfg.NumACs {
			continue
		}
		sup = joint
		kept = append(kept, r)
	}
	if len(kept) == 0 {
		return
	}
	seq := m.cfg.Scheduler.Schedule(kept, m.array.Loaded())
	if len(seq) == 0 {
		return
	}
	m.port.Schedule(now, seq)
	m.Prefetches++
}

// --- delta-resimulation checkpointing (sim.Checkpointable) ---------------

// State is an opaque checkpoint of a Manager at a phase boundary, produced
// by SaveState and consumed by RestoreState. A State restores only into a
// Manager built from the same config, NumACs included.
type State struct {
	mon    monitor.State
	array  reconfig.ArrayState
	port   reconfig.PortState
	needed molecule.Vector

	lastSpot   isa.HotSpotID
	started    bool
	prefetched bool
	now        int64

	selections int
	prefetches int
	staleLoads int
}

// ContainerBudget returns the physical container count, the budget a trail
// recorded on this Manager serves.
func (m *Manager) ContainerBudget() int { return m.cfg.NumACs }

// NewState allocates an empty checkpoint arena for SaveState.
func (m *Manager) NewState() any { return new(State) }

// SaveState deep-copies the Manager's complete mutable state into dst (a
// *State from NewState). Must be called at a phase boundary — after
// LeaveHotSpot, before the next EnterHotSpot. The arenas inside dst are
// reused across saves.
func (m *Manager) SaveState(dst any) {
	s := dst.(*State)
	m.mon.SaveInto(&s.mon)
	m.array.SaveInto(&s.array)
	m.port.SaveInto(&s.port)
	if cap(s.needed) < len(m.needed) {
		s.needed = m.needed.Clone()
	} else {
		s.needed = s.needed[:len(m.needed)]
		s.needed.CopyFrom(m.needed)
	}
	s.lastSpot = m.lastSpot
	s.started = m.started
	s.prefetched = m.prefetched
	s.now = m.now
	s.selections = m.Selections
	s.prefetches = m.Prefetches
	s.staleLoads = m.StaleLoads
}

// RestoreState overwrites the Manager's state with a saved one, replacing
// the Reset a fresh run would perform. The selection budget returns to the
// full fabric (SetBudget does not survive a restore) and Requests is
// cleared — both are rebuilt by the next EnterHotSpot. Only the run that
// owns the Manager may restore it; see ARCHITECTURE.md on checkpoint
// ownership.
func (m *Manager) RestoreState(src any) {
	s := src.(*State)
	m.mon.RestoreFrom(&s.mon)
	m.array.RestoreFrom(&s.array, m.cfg.Seed)
	m.port.RestoreFrom(&s.port)
	m.needed.CopyFrom(s.needed)
	m.lastSpot = s.lastSpot
	m.started = s.started
	m.prefetched = s.prefetched
	m.now = s.now
	m.budget = m.cfg.NumACs
	m.gen++ // container contents replaced; caches are stale
	m.Selections = s.selections
	m.Requests = m.Requests[:0]
	m.Prefetches = s.prefetches
	m.StaleLoads = s.staleLoads
}

// Loaded exposes the current Atom availability (for inspection/tests).
func (m *Manager) Loaded() molecule.Vector { return m.array.Loaded().Clone() }

// Monitor exposes the online monitor (for inspection/tests).
func (m *Manager) Monitor() *monitor.Monitor { return m.mon }

// AtomLoads returns the number of completed Atom reconfigurations.
func (m *Manager) AtomLoads() int { return m.port.Loads }

// Evictions returns the number of Atoms displaced from the containers.
func (m *Manager) Evictions() int { return m.array.Evictions }
