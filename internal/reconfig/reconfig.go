// Package reconfig models the reconfigurable fabric of a RISPP processor:
// the Atom Containers (ACs) holding loaded Atoms, the single partial-
// reconfiguration port that re-loads one Atom at a time (SelectMap/ICAP in
// the paper's prototype), and the eviction of Atoms when all containers are
// occupied.
package reconfig

import (
	"fmt"
	"math/rand"

	"rispp/internal/isa"
	"rispp/internal/molecule"
)

// Cycle is a point in time or a duration, measured in processor clock
// cycles.
type Cycle = int64

// Default timing calibration. The paper's prototype reconfigures partial
// bitstreams of on average 60,488 bytes in on average 874.03 µs; with a
// 100 MHz processor clock this corresponds to an effective reconfiguration
// bandwidth of 69,205,863 bytes/s (the nominal SelectMap figure is 66 MB/s).
const (
	DefaultClockHz      = 100_000_000
	DefaultBandwidthBps = 69_205_863
)

// Timing converts bitstream sizes into reconfiguration latencies.
type Timing struct {
	ClockHz      int64
	BandwidthBps int64
}

// DefaultTiming returns the calibration used throughout the paper
// reproduction (100 MHz clock, avg Atom reload = 874.03 µs).
func DefaultTiming() Timing {
	return Timing{ClockHz: DefaultClockHz, BandwidthBps: DefaultBandwidthBps}
}

// LoadCycles returns the number of clock cycles needed to load a partial
// bitstream of the given size through the reconfiguration port.
func (t Timing) LoadCycles(bitstreamBytes int) Cycle {
	if t.ClockHz <= 0 || t.BandwidthBps <= 0 {
		panic("reconfig: Timing not initialized")
	}
	// cycles = bytes / bandwidth * clock, rounded to nearest.
	return (int64(bitstreamBytes)*t.ClockHz + t.BandwidthBps/2) / t.BandwidthBps
}

// Microseconds converts a cycle count to microseconds under this timing.
func (t Timing) Microseconds(c Cycle) float64 {
	return float64(c) / float64(t.ClockHz) * 1e6
}

// EvictionPolicy selects the victim Atom when a new Atom must be loaded into
// a fully occupied container array.
type EvictionPolicy int

const (
	// EvictLRU evicts the least recently used evictable Atom (default).
	EvictLRU EvictionPolicy = iota
	// EvictFIFO evicts the evictable Atom loaded longest ago.
	EvictFIFO
	// EvictRandom evicts a uniformly random evictable Atom (seeded).
	EvictRandom
)

func (p EvictionPolicy) String() string {
	switch p {
	case EvictLRU:
		return "LRU"
	case EvictFIFO:
		return "FIFO"
	case EvictRandom:
		return "random"
	}
	return fmt.Sprintf("EvictionPolicy(%d)", int(p))
}

type slot struct {
	atom     isa.AtomID
	occupied bool
	loadedAt Cycle
	usedAt   Cycle
}

// Array models the Atom Containers. It tracks which Atom instance occupies
// which container, the aggregate availability vector, and use recency for
// eviction.
type Array struct {
	dim    int
	slots  []slot
	loaded molecule.Vector
	policy EvictionPolicy
	rng    *rand.Rand      // lazily (re)seeded; only EvictRandom ever draws
	source *countingSource // rng's source

	// Evictions counts Atoms displaced to make room for new loads.
	Evictions int
}

// NewArray creates an Atom Container array with n containers for an
// Atom-type space of dimension dim.
func NewArray(n, dim int, policy EvictionPolicy, seed int64) *Array {
	a := &Array{
		dim:    dim,
		slots:  make([]slot, n),
		loaded: molecule.New(dim),
		policy: policy,
	}
	a.seedRNG(seed)
	return a
}

// countingSource is the eviction RNG's source: it counts the values drawn
// since seeding, so a restored array can fast-forward a reseeded source to
// where the saved one stood.
type countingSource struct {
	src   rand.Source
	draws int64
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// seedRNG (re)establishes the deterministic eviction RNG. Only EvictRandom
// ever draws from it, so the other policies skip the seeding entirely —
// rand.Seed walks the full 607-word LFG state and showed up at ~6% of a
// steady-state HEF run when paid on every Reset.
func (a *Array) seedRNG(seed int64) {
	if a.policy != EvictRandom {
		a.rng, a.source = nil, nil
		return
	}
	if a.rng == nil {
		a.source = &countingSource{src: rand.NewSource(seed)}
		a.rng = rand.New(a.source)
		return
	}
	a.rng.Seed(seed)
}

// Reset empties every container and restarts the eviction RNG from seed,
// reusing the backing storage — behaviorally identical to NewArray with the
// same parameters, but allocation-free in the steady state.
func (a *Array) Reset(seed int64) {
	for i := range a.slots {
		a.slots[i] = slot{}
	}
	a.loaded.Zero()
	a.seedRNG(seed)
	a.Evictions = 0
}

// Size returns the number of Atom Containers.
func (a *Array) Size() int { return len(a.slots) }

// Loaded returns the current availability vector a (shared; callers must
// not modify it).
func (a *Array) Loaded() molecule.Vector { return a.loaded }

// Free returns the number of unoccupied containers.
func (a *Array) Free() int {
	free := 0
	for _, s := range a.slots {
		if !s.occupied {
			free++
		}
	}
	return free
}

// AppendTouchSlots appends to dst the indices of the occupied slots holding
// an Atom type the Molecule vector atoms uses: the slots an execution of
// that Molecule refreshes for LRU eviction. Callers that execute the same
// Molecule many times between array mutations (the Manager's per-burst
// Record path) precompute this list once per mutation and stamp it through
// TouchSlots on every execution.
func (a *Array) AppendTouchSlots(dst []int32, atoms molecule.Vector) []int32 {
	for i := range a.slots {
		s := &a.slots[i]
		if s.occupied && atoms[int(s.atom)] > 0 {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

// TouchSlots stamps the given slot indices with now; idx must come from
// AppendTouchSlots with no Install/Reset in between.
func (a *Array) TouchSlots(idx []int32, now Cycle) {
	for _, i := range idx {
		a.slots[i].usedAt = now
	}
}

// CanInstall reports whether Install can place one more Atom: a free
// container exists, or some occupied container holds a spare instance not
// protected by needed. It returns false when every container is claimed by
// needed — a state only a superseded load schedule can run into, since the
// Molecule selection keeps |sup(needed)| ≤ #ACs. Callers with potentially
// stale loads (the reconfiguration port cannot abort an in-flight bitstream)
// must check CanInstall and discard the Atom instead of calling Install.
func (a *Array) CanInstall(needed molecule.Vector) bool {
	for _, s := range a.slots {
		if !s.occupied || a.loaded[int(s.atom)] > needed[int(s.atom)] {
			return true
		}
	}
	return false
}

// Install places a freshly reconfigured Atom into the array at time now. If
// every container is occupied, a victim is evicted first; Atoms whose type
// count is still required by needed are protected from eviction. Install
// panics if no victim exists — callers must guarantee |sup(needed)| ≤ #ACs
// (which the Molecule selection establishes) or guard with CanInstall.
func (a *Array) Install(atom isa.AtomID, needed molecule.Vector, now Cycle) {
	idx := -1
	for i := range a.slots {
		if !a.slots[i].occupied {
			idx = i
			break
		}
	}
	if idx < 0 {
		idx = a.victim(needed)
		evicted := a.slots[idx].atom
		a.loaded[int(evicted)]--
		a.Evictions++
	}
	a.slots[idx] = slot{atom: atom, occupied: true, loadedAt: now, usedAt: now}
	a.loaded[int(atom)]++
}

// ArrayState is an opaque deep copy of an Array's mutable state, produced
// by SaveInto and consumed by RestoreFrom. The arenas inside are reused
// across saves.
type ArrayState struct {
	slots     []slot
	loaded    molecule.Vector
	evictions int
	draws     int64 // values the eviction RNG had produced since seeding
}

// SaveInto copies the array's complete mutable state into dst.
func (a *Array) SaveInto(dst *ArrayState) {
	dst.slots = append(dst.slots[:0], a.slots...)
	if cap(dst.loaded) < a.dim {
		dst.loaded = a.loaded.Clone()
	} else {
		dst.loaded = dst.loaded[:a.dim]
		dst.loaded.CopyFrom(a.loaded)
	}
	dst.evictions = a.Evictions
	dst.draws = 0
	if a.source != nil {
		dst.draws = a.source.draws
	}
}

// RestoreFrom overwrites the array's state with one saved from an array of
// the same size, policy and seed. The eviction RNG is reseeded and
// fast-forwarded past the values the saved array had drawn, so a restored
// EvictRandom array picks the same victims the saved one would have.
func (a *Array) RestoreFrom(src *ArrayState, seed int64) {
	if len(src.slots) != len(a.slots) {
		panic("reconfig: RestoreFrom: saved array has a different container count")
	}
	copy(a.slots, src.slots)
	a.loaded.CopyFrom(src.loaded)
	a.Evictions = src.evictions
	a.seedRNG(seed)
	for i := int64(0); i < src.draws; i++ {
		a.source.Int63()
	}
}

// PortState is an opaque deep copy of a Port's mutable state, produced by
// (*Port).SaveInto and consumed by RestoreFrom. The pending arena is reused
// across saves.
type PortState struct {
	inflight   isa.AtomID
	hasInflite bool
	completeAt Cycle
	pending    []isa.AtomID // unconsumed queue suffix
	readyAt    Cycle
	loads      int
	busyCycles Cycle
}

// SaveInto copies the port's complete mutable state into dst. Only the
// unconsumed part of the queue is captured.
func (p *Port) SaveInto(dst *PortState) {
	dst.inflight = p.inflight
	dst.hasInflite = p.hasInflite
	dst.completeAt = p.completeAt
	dst.pending = append(dst.pending[:0], p.pending[p.phead:]...)
	dst.readyAt = p.readyAt
	dst.loads = p.Loads
	dst.busyCycles = p.BusyCycles
}

// RestoreFrom overwrites the port's state with a saved one; the size source
// and timing are construction-time configuration and stay untouched.
func (p *Port) RestoreFrom(src *PortState) {
	p.inflight = src.inflight
	p.hasInflite = src.hasInflite
	p.completeAt = src.completeAt
	p.pending = append(p.pending[:0], src.pending...)
	p.phead = 0
	p.readyAt = src.readyAt
	p.Loads = src.loads
	p.BusyCycles = src.busyCycles
}

// victim picks the container to clear according to the eviction policy. A
// slot is evictable if removing its Atom still leaves at least needed[type]
// instances of that type loaded.
func (a *Array) victim(needed molecule.Vector) int {
	spare := func(s slot) bool {
		return a.loaded[int(s.atom)] > needed[int(s.atom)]
	}
	switch a.policy {
	case EvictRandom:
		var cands []int
		for i, s := range a.slots {
			if s.occupied && spare(s) {
				cands = append(cands, i)
			}
		}
		if len(cands) == 0 {
			panic("reconfig: no evictable Atom Container (selection overcommitted)")
		}
		return cands[a.rng.Intn(len(cands))]
	default:
		best := -1
		var bestStamp Cycle
		for i, s := range a.slots {
			if !s.occupied || !spare(s) {
				continue
			}
			stamp := s.usedAt
			if a.policy == EvictFIFO {
				stamp = s.loadedAt
			}
			if best < 0 || stamp < bestStamp {
				best, bestStamp = i, stamp
			}
		}
		if best < 0 {
			panic("reconfig: no evictable Atom Container (selection overcommitted)")
		}
		return best
	}
}

// Port models the single reconfiguration port: Atom loads are serialized,
// one partial bitstream at a time. A new schedule replaces any pending loads
// but an in-flight reconfiguration always completes (partial bitstreams
// cannot be aborted midway).
type Port struct {
	is     *isa.ISA
	timing Timing
	sizeOf func(isa.AtomID) int // bitstream bytes per Atom

	inflight   isa.AtomID
	hasInflite bool
	completeAt Cycle
	pending    []isa.AtomID
	phead      int   // consumed prefix of pending (keeps the backing array)
	readyAt    Cycle // time the port becomes free to start the next load

	// Loads counts completed Atom reconfigurations.
	Loads int
	// BusyCycles accumulates cycles the port spent loading.
	BusyCycles Cycle
}

// NewPort creates an idle reconfiguration port for the given ISA. Load
// durations derive from the ISA's bitstream sizes; SetSizeSource can plug
// in an actual bitstream repository instead.
func NewPort(is *isa.ISA, timing Timing) *Port {
	return &Port{is: is, timing: timing, sizeOf: func(a isa.AtomID) int {
		return is.Atom(a).BitstreamBytes
	}}
}

// Reset returns the port to idle with nothing queued, reusing the pending
// buffer and keeping the size source — behaviorally identical to a freshly
// constructed Port with the same ISA and timing.
func (p *Port) Reset() {
	p.hasInflite = false
	p.completeAt = 0
	p.pending = p.pending[:0]
	p.phead = 0
	p.readyAt = 0
	p.Loads = 0
	p.BusyCycles = 0
}

// SetSizeSource overrides where the port reads partial-bitstream sizes
// from, e.g. a bitstream.Repository holding the generated images.
func (p *Port) SetSizeSource(sizeOf func(isa.AtomID) int) {
	if sizeOf == nil {
		panic("reconfig: nil size source")
	}
	p.sizeOf = sizeOf
}

// Schedule replaces the pending load sequence at time now. The in-flight
// load, if any, still completes first.
func (p *Port) Schedule(now Cycle, atoms []isa.AtomID) {
	p.pending = append(p.pending[:0], atoms...)
	p.phead = 0
	if now > p.readyAt {
		p.readyAt = now
	}
}

// Busy reports whether a reconfiguration is in flight or queued.
func (p *Port) Busy() bool { return p.hasInflite || len(p.pending) > p.phead }

func (p *Port) start() {
	if p.hasInflite || len(p.pending) <= p.phead {
		return
	}
	atom := p.pending[p.phead]
	p.phead++
	dur := p.timing.LoadCycles(p.sizeOf(atom))
	p.inflight = atom
	p.hasInflite = true
	p.completeAt = p.readyAt + dur
	p.BusyCycles += dur
}

// NextCompletion returns the time the next Atom finishes loading. ok is
// false when the port is idle with nothing queued.
func (p *Port) NextCompletion() (at Cycle, ok bool) {
	p.start()
	if !p.hasInflite {
		return 0, false
	}
	return p.completeAt, true
}

// Complete pops the in-flight load; it must only be called once simulation
// time has reached NextCompletion. It returns the loaded Atom and the
// completion time.
func (p *Port) Complete() (isa.AtomID, Cycle) {
	p.start()
	if !p.hasInflite {
		panic("reconfig: Complete on idle port")
	}
	atom, at := p.inflight, p.completeAt
	p.hasInflite = false
	p.readyAt = at
	p.Loads++
	return atom, at
}
