// Package molen implements the state-of-the-art baseline the paper compares
// against (Section 5, Table 2): a Molen-like reconfigurable processor
// system with a dynamic instruction set but a single, monolithic
// implementation per Special Instruction.
//
// Differences to RISPP, per the paper's characterization of [19]/[21]:
//
//   - One implementation per SI: an SI is either fully reconfigured (then it
//     runs at its selected Molecule's latency) or it executes in software.
//     There are no intermediate upgrade steps.
//   - The implementations are monolithic custom computing units, so no
//     hardware is shared between SIs: each resident SI occupies containers
//     equal to its implementation size.
//   - The reconfiguration sequence is explicitly predetermined (set/execute
//     instructions emitted at compile time): at every hot-spot entry the
//     required units are loaded in fixed program order.
//
// For a fair comparison the same hardware accelerators are provided: the
// implementations are the very Molecules the RISPP selection would pick,
// loaded through the same reconfiguration-port timing.
package molen

import (
	"rispp/internal/isa"
	"rispp/internal/monitor"
	"rispp/internal/reconfig"
	"rispp/internal/sched"
	"rispp/internal/selection"
)

// Config assembles the baseline system.
type Config struct {
	ISA          *isa.ISA
	NumACs       int // container capacity, in Atom-sized units
	Timing       reconfig.Timing
	MonitorShift uint
	// ForecastSeeds, when non-nil, is every SI's design-time estimate by SI
	// id (workload.Compiled.Seeds: Molen fixes its reconfigurations at
	// compile time from profiling), read in place; Reset restores it.
	ForecastSeeds []int64
}

// unit is one monolithic SI implementation resident in (or loading into)
// the reconfigurable fabric. The zero unit means "not resident".
type unit struct {
	mol      isa.Molecule
	size     int // containers occupied (reserved at load start)
	loaded   int // atoms of the bitstream already configured
	active   bool
	complete bool
	lastUse  int64
}

// Runtime is the Molen-like baseline; it implements sim.Runtime.
type Runtime struct {
	cfg Config
	mon *monitor.Monitor

	units []unit     // indexed by SIID; active marks resident/loading units
	queue []isa.SIID // SIs waiting for the port, program order
	qhead int        // consumed prefix of queue (keeps the backing array)

	inflight   isa.SIID
	hasInflite bool
	completeAt int64
	portFree   int64

	// Loads counts completed unit reconfigurations (whole SIs).
	Loads int
	// AtomLoads counts individual Atom-sized bitstream loads.
	AtomLoads int

	// Reusable arenas for the per-hot-spot selection, recycled across calls
	// and Resets so steady-state operation performs no allocations.
	cands     []selection.Candidate
	protected []bool // indexed by SIID: member of the current selection
	selChosen []*isa.Molecule
	selCurLat []int
	selReqs   []sched.Request
	spotSIs   map[isa.HotSpotID][]*isa.SI // per-Runtime cache of ISA.HotSpotSIs
}

// New builds the baseline runtime.
func New(cfg Config) *Runtime {
	if cfg.ISA == nil {
		panic("molen: Config.ISA is required")
	}
	if cfg.Timing == (reconfig.Timing{}) {
		cfg.Timing = reconfig.DefaultTiming()
	}
	r := &Runtime{cfg: cfg}
	r.Reset()
	return r
}

// Name identifies the baseline.
func (r *Runtime) Name() string { return "Molen" }

// Reset returns the fabric to power-on state. All backing storage (monitor
// tables, unit table, queue, selection arenas) is kept and recycled, so
// Reset followed by a run allocates nothing in the steady state.
func (r *Runtime) Reset() {
	if r.mon == nil {
		r.mon = monitor.New(r.cfg.ISA, r.cfg.MonitorShift, r.cfg.ForecastSeeds)
		r.units = make([]unit, len(r.cfg.ISA.SIs))
		r.protected = make([]bool, len(r.cfg.ISA.SIs))
		r.spotSIs = make(map[isa.HotSpotID][]*isa.SI)
	} else {
		r.mon.Reset()
		for i := range r.units {
			r.units[i] = unit{}
		}
	}
	r.queue = r.queue[:0]
	r.qhead = 0
	r.hasInflite = false
	r.completeAt = 0
	r.portFree = 0
	r.Loads = 0
	r.AtomLoads = 0
}

// hotSpotSIs returns the SIs of hot spot h, cached per Runtime: the ISA is
// immutable but shared across goroutines, so the cache lives here. It
// survives Reset — it is derived purely from the ISA.
func (r *Runtime) hotSpotSIs(h isa.HotSpotID) []*isa.SI {
	sis, ok := r.spotSIs[h]
	if !ok {
		sis = r.cfg.ISA.HotSpotSIs(h)
		r.spotSIs[h] = sis
	}
	return sis
}

// resident returns the containers currently occupied (reserved).
func (r *Runtime) resident() int {
	n := 0
	for i := range r.units {
		if r.units[i].active {
			n += r.units[i].size
		}
	}
	return n
}

// EnterHotSpot selects one implementation per SI of the hot spot (greedy,
// additive cost — monolithic units share nothing) and programs the fixed
// load sequence. Units of other hot spots are evicted LRU as capacity
// demands.
func (r *Runtime) EnterHotSpot(h isa.HotSpotID, now int64) {
	cands := r.cands[:0]
	for _, si := range r.hotSpotSIs(h) {
		cands = append(cands, selection.Candidate{SI: si, Expected: r.mon.Expected(h, si.ID)})
	}
	r.cands = cands
	r.mon.EnterHotSpot(h)
	reqs := r.selectAdditive(cands, r.cfg.NumACs)

	// The hot-spot switch replaces the predetermined load sequence. An
	// in-flight bitstream chunk cannot be aborted: the port stays busy
	// until it finishes, but its unit is abandoned. All incomplete units
	// free their containers.
	if r.hasInflite {
		r.portFree = r.completeAt
		r.hasInflite = false
	}
	r.queue = r.queue[:0]
	r.qhead = 0
	for si := range r.units {
		if u := &r.units[si]; u.active && !u.complete {
			*u = unit{}
		}
	}

	// Keep complete resident units that match the selection; everything
	// needed but absent is (re)loaded in fixed program order (ascending SI
	// id — the order the compiler emitted the set instructions). Units of
	// the current selection are protected from eviction.
	for i := range r.protected {
		r.protected[i] = false
	}
	for _, q := range reqs {
		r.protected[q.SI.ID] = true
	}
	for _, q := range reqs {
		if u := &r.units[q.SI.ID]; u.active {
			if u.mol.Atoms.Equal(q.Selected.Atoms) {
				u.lastUse = now
				continue
			}
			*u = unit{} // different implementation selected
		}
		r.enqueue(q.SI.ID, q.Selected, now)
	}
}

// enqueue reserves capacity (evicting LRU units of other hot spots) and
// queues the unit for the port. Units of the current selection (r.protected)
// are never victims. If capacity cannot be freed the SI stays in software.
func (r *Runtime) enqueue(si isa.SIID, mol isa.Molecule, now int64) {
	size := mol.Determinant()
	for r.resident()+size > r.cfg.NumACs {
		victim := -1
		var oldest int64
		// Ascending scan with strict <: among the least recently used units
		// the smallest SIID wins, matching the previous map iteration with
		// its explicit tie-break.
		for vsi := range r.units {
			u := &r.units[vsi]
			if !u.active || r.protected[vsi] {
				continue
			}
			if victim < 0 || u.lastUse < oldest {
				victim, oldest = vsi, u.lastUse
			}
		}
		if victim < 0 {
			return // nothing evictable; SI remains in software
		}
		r.units[victim] = unit{}
	}
	r.units[si] = unit{mol: mol, size: size, active: true, lastUse: now}
	r.queue = append(r.queue, si)
	if now > r.portFree {
		r.portFree = now
	}
}

// LeaveHotSpot finalizes monitoring.
func (r *Runtime) LeaveHotSpot(now int64) { r.mon.LeaveHotSpot() }

// Latency: the selected implementation if fully reconfigured, software
// otherwise — Molen systems "cannot upgrade during run time".
func (r *Runtime) Latency(si isa.SIID) int {
	if u := &r.units[si]; u.active && u.complete {
		return u.mol.Latency
	}
	return r.cfg.ISA.SI(si).SWLatency
}

// Record feeds the monitor.
func (r *Runtime) Record(si isa.SIID, n int64, now int64) {
	r.mon.Record(si, n)
	if u := &r.units[si]; u.active {
		u.lastUse = now
	}
}

func (r *Runtime) start() {
	for !r.hasInflite {
		if r.qhead >= len(r.queue) {
			return
		}
		si := r.queue[r.qhead]
		u := &r.units[si]
		if !u.active || u.complete {
			r.qhead++
			continue
		}
		// Load the next atom-sized bitstream chunk of the unit. A
		// monolithic implementation's bitstream is the concatenation of
		// its data paths' bitstreams; we charge the same per-atom times
		// the RISPP fabric pays.
		atom := nthAtom(u.mol, u.loaded)
		dur := r.cfg.Timing.LoadCycles(r.cfg.ISA.Atom(atom).BitstreamBytes)
		r.inflight = si
		r.hasInflite = true
		r.completeAt = r.portFree + dur
		return
	}
}

// nthAtom returns the n-th Atom (in vector order) of a Molecule.
func nthAtom(m isa.Molecule, n int) isa.AtomID {
	for i, c := range m.Atoms {
		if n < c {
			return isa.AtomID(i)
		}
		n -= c
	}
	panic("molen: atom index out of range")
}

// NextEvent returns the next per-atom load completion.
func (r *Runtime) NextEvent() (int64, bool) {
	r.start()
	if !r.hasInflite {
		return 0, false
	}
	return r.completeAt, true
}

// Advance completes the in-flight atom chunk; when the unit's last chunk is
// configured the SI becomes available at full (selected) performance.
func (r *Runtime) Advance(t int64) {
	r.start()
	if !r.hasInflite {
		panic("molen: Advance on idle port")
	}
	r.portFree = r.completeAt
	r.hasInflite = false
	r.AtomLoads++
	si := r.inflight
	if u := &r.units[si]; u.active && !u.complete {
		u.loaded++
		if u.loaded == u.size {
			u.complete = true
			r.Loads++
		}
	}
}

// selectAdditive is the greedy selection with additive container cost: no
// Atom sharing between monolithic units. It runs in the Runtime's arenas;
// the returned requests are only valid until the next call.
func (r *Runtime) selectAdditive(cands []selection.Candidate, numACs int) []sched.Request {
	if cap(r.selChosen) < len(cands) {
		r.selChosen = make([]*isa.Molecule, len(cands))
		r.selCurLat = make([]int, len(cands))
	} else {
		r.selChosen = r.selChosen[:len(cands)]
		r.selCurLat = r.selCurLat[:len(cands)]
		for i := range r.selChosen {
			r.selChosen[i] = nil
		}
	}
	chosen, curLat := r.selChosen, r.selCurLat
	used := 0
	for i, c := range cands {
		curLat[i] = c.SI.SWLatency
	}
	for {
		bestI, bestJ := -1, -1
		var bestNum, bestDen int64
		for i, c := range cands {
			if c.Expected <= 0 {
				continue
			}
			base := 0
			if chosen[i] != nil {
				base = chosen[i].Determinant()
			}
			for j := range c.SI.Molecules {
				m := &c.SI.Molecules[j]
				if m.Latency >= curLat[i] {
					continue
				}
				cost := int64(m.Determinant() - base)
				if cost <= 0 {
					continue // monolithic re-synthesis never shrinks below current
				}
				if used+int(cost) > numACs {
					continue
				}
				gain := c.Expected * int64(curLat[i]-m.Latency)
				if bestI < 0 || gain*bestDen > bestNum*cost {
					bestI, bestJ, bestNum, bestDen = i, j, gain, cost
				}
			}
		}
		if bestI < 0 {
			break
		}
		prev := 0
		if chosen[bestI] != nil {
			prev = chosen[bestI].Determinant()
		}
		chosen[bestI] = &cands[bestI].SI.Molecules[bestJ]
		curLat[bestI] = chosen[bestI].Latency
		used += chosen[bestI].Determinant() - prev
	}
	reqs := r.selReqs[:0]
	for i, c := range cands {
		if chosen[i] != nil {
			reqs = append(reqs, sched.Request{SI: c.SI, Selected: *chosen[i], Expected: c.Expected})
		}
	}
	r.selReqs = reqs
	return reqs
}

// --- delta-resimulation checkpointing (sim.Checkpointable) ---------------

// State is an opaque checkpoint of the baseline at a phase boundary. A
// State restores only into a Runtime built from the same config, NumACs
// included.
type State struct {
	mon        monitor.State
	units      []unit
	queue      []isa.SIID // unconsumed suffix
	inflight   isa.SIID
	hasInflite bool
	completeAt int64
	portFree   int64
	loads      int
	atomLoads  int
}

// ContainerBudget returns the container capacity, the budget a trail
// recorded on this runtime serves.
func (r *Runtime) ContainerBudget() int { return r.cfg.NumACs }

// NewState allocates an empty checkpoint arena for SaveState.
func (r *Runtime) NewState() any { return new(State) }

// SaveState deep-copies the runtime's mutable state into dst (a *State from
// NewState). Must be called at a phase boundary.
func (r *Runtime) SaveState(dst any) {
	s := dst.(*State)
	r.mon.SaveInto(&s.mon)
	s.units = append(s.units[:0], r.units...)
	s.queue = append(s.queue[:0], r.queue[r.qhead:]...)
	s.inflight = r.inflight
	s.hasInflite = r.hasInflite
	s.completeAt = r.completeAt
	s.portFree = r.portFree
	s.loads = r.Loads
	s.atomLoads = r.AtomLoads
}

// RestoreState overwrites the runtime's state with a saved one, replacing
// the Reset a fresh run would perform. The protected marks need no capture:
// they are rewritten before use on every hot-spot entry.
func (r *Runtime) RestoreState(src any) {
	s := src.(*State)
	r.mon.RestoreFrom(&s.mon)
	copy(r.units, s.units)
	r.queue = append(r.queue[:0], s.queue...)
	r.qhead = 0
	r.inflight = s.inflight
	r.hasInflite = s.hasInflite
	r.completeAt = s.completeAt
	r.portFree = s.portFree
	r.Loads = s.loads
	r.AtomLoads = s.atomLoads
}
