// Package monitor implements the online monitoring of SI execution
// frequencies that feeds the RISPP run-time system (paper Section 3.1,
// task II of the Run-Time Manager; the lightweight implementation follows
// the self-adaptive scheme of reference [24]).
//
// During each execution of a hot spot the monitor counts how often every SI
// executes. When the hot spot is left, the measured value is compared with
// the previous expectation and the expectation for the next execution
// iteration of this hot spot is updated. To stay implementable as a small
// hardware block, the update uses a binary-shift exponential smoothing
//
//	expected += (measured - expected) >> Shift
//
// i.e. a smoothing factor α = 2^-Shift, avoiding multipliers and dividers.
package monitor

import (
	"fmt"

	"rispp/internal/isa"
)

// DefaultShift gives α = 0.5: fast adaptation to scene changes while still
// damping single-frame outliers.
const DefaultShift = 1

// Monitor tracks per-hot-spot SI execution counts and maintains the
// expected executions used by Molecule selection and the SI Scheduler.
type Monitor struct {
	is    *isa.ISA
	shift uint
	seeds []int64 // initial expectation per SI, read-only; nil for none

	expected   map[isa.HotSpotID][]int64 // per hot spot: expectation per SI
	counts     []int64                   // live counters of the current hot spot
	current    isa.HotSpotID
	inSpot     bool
	successors map[isa.HotSpotID]map[isa.HotSpotID]int // hot-spot rotation

	// ObservedSpots counts completed hot-spot executions per hot spot.
	ObservedSpots map[isa.HotSpotID]int
	// AbsError accumulates |measured − previous expectation| per SI across
	// all hot-spot executions; used to evaluate forecast quality.
	AbsError int64
	// Samples counts the (hot spot, SI) forecast comparisons behind AbsError.
	Samples int
}

// New creates a monitor for the given ISA with smoothing α = 2^-shift and
// seeds, when non-nil, as every SI's initial expectation by SI id (from an
// offline profiling run, e.g. workload.Compiled.Seeds; read in place). It
// panics on a seed table of another length.
func New(is *isa.ISA, shift uint, seeds []int64) *Monitor {
	if seeds != nil && len(seeds) != len(is.SIs) {
		panic(fmt.Sprintf("monitor: %d forecast seeds for %d SIs", len(seeds), len(is.SIs)))
	}
	m := &Monitor{
		is:            is,
		shift:         shift,
		seeds:         seeds,
		expected:      make(map[isa.HotSpotID][]int64),
		counts:        make([]int64, len(is.SIs)),
		ObservedSpots: make(map[isa.HotSpotID]int),
	}
	m.applySeeds()
	return m
}

// Reset returns the monitor to its power-on state — seeded expectations
// only, no observed hot spots, no learned rotation — without freeing any
// backing storage: expectation vectors are zeroed in place and maps are
// cleared, so a steady-state Reset+relearn cycle over the same hot spots
// allocates nothing. Behaviorally identical to a freshly constructed
// Monitor.
func (m *Monitor) Reset() {
	for _, e := range m.expected {
		for i := range e {
			e[i] = 0
		}
	}
	for i := range m.counts {
		m.counts[i] = 0
	}
	m.current = 0
	m.inSpot = false
	for _, row := range m.successors {
		clear(row)
	}
	clear(m.ObservedSpots)
	m.AbsError = 0
	m.Samples = 0
	m.applySeeds()
}

// applySeeds installs the seeds as expectations. Unseeded (zero) SIs start
// cold: the first execution of their hot spot adopts its measurement.
func (m *Monitor) applySeeds() {
	for si, n := range m.seeds {
		if n != 0 {
			m.ensure(m.is.SIs[si].HotSpot)[si] = n
		}
	}
}

func (m *Monitor) ensure(h isa.HotSpotID) []int64 {
	if e, ok := m.expected[h]; ok {
		return e
	}
	e := make([]int64, len(m.is.SIs))
	m.expected[h] = e
	return e
}

// EnterHotSpot starts counting SI executions for hot spot h. Entering a new
// hot spot while another is active finalizes the previous one first.
// O(1): counters were zeroed lazily when the previous hot spot was left.
func (m *Monitor) EnterHotSpot(h isa.HotSpotID) {
	if m.inSpot {
		m.LeaveHotSpot()
	}
	m.current = h
	m.inSpot = true
}

// Record counts n executions of SI si within the current hot spot.
func (m *Monitor) Record(si isa.SIID, n int64) {
	if !m.inSpot {
		panic("monitor: Record outside a hot spot")
	}
	m.counts[si] += n
}

// LeaveHotSpot finalizes the current hot spot execution: the expectation
// of every SI that executed this round or was expected to is updated from
// its measured count, and the counters are zeroed for the next hot spot.
// SIs with neither a count nor an expectation keep their zero forecast and
// add no forecast-error sample.
func (m *Monitor) LeaveHotSpot() {
	if !m.inSpot {
		return
	}
	e := m.ensure(m.current)
	first := m.ObservedSpots[m.current] == 0
	for si, n := range m.counts {
		if n == 0 && e[si] == 0 {
			continue
		}
		diff := n - e[si]
		if diff < 0 {
			m.AbsError += -diff
		} else {
			m.AbsError += diff
		}
		m.Samples++
		if first && e[si] == 0 {
			// Cold start: adopt the first measurement outright instead of
			// halving toward it.
			e[si] = n
		} else {
			// Arithmetic shift: negative diffs round toward −∞, so the
			// expectation can always decay back to zero.
			e[si] += diff >> m.shift
		}
		m.counts[si] = 0
	}
	m.ObservedSpots[m.current]++
	m.inSpot = false
}

// Expected returns the expected number of executions of SI si the next time
// hot spot h runs. Unobserved, unseeded SIs forecast zero.
func (m *Monitor) Expected(h isa.HotSpotID, si isa.SIID) int64 {
	if e, ok := m.expected[h]; ok {
		return e[si]
	}
	return 0
}

// MeanAbsError reports the average absolute forecast error per sample.
func (m *Monitor) MeanAbsError() float64 {
	if m.Samples == 0 {
		return 0
	}
	return float64(m.AbsError) / float64(m.Samples)
}

func (m *Monitor) String() string {
	return fmt.Sprintf("monitor(α=2^-%d, spots=%v)", m.shift, m.ObservedSpots)
}

// State is an opaque deep copy of a Monitor's learned state, produced by
// SaveInto at a phase boundary (between hot spots) and consumed by
// RestoreFrom. Arenas inside are reused across saves.
type State struct {
	expected   map[isa.HotSpotID][]int64
	successors map[isa.HotSpotID]map[isa.HotSpotID]int
	observed   map[isa.HotSpotID]int
	current    isa.HotSpotID
	absError   int64
	samples    int
}

// SaveInto copies the monitor's learned state into dst. Must be called
// between hot spots (after LeaveHotSpot): live counters are then all zero
// and need not be captured.
func (m *Monitor) SaveInto(dst *State) {
	if m.inSpot {
		panic("monitor: SaveInto inside a hot spot")
	}
	if dst.expected == nil {
		dst.expected = make(map[isa.HotSpotID][]int64)
		dst.observed = make(map[isa.HotSpotID]int)
	}
	for h := range dst.expected {
		if _, ok := m.expected[h]; !ok {
			delete(dst.expected, h)
		}
	}
	for h, e := range m.expected {
		de := dst.expected[h]
		if cap(de) < len(e) {
			de = make([]int64, len(e))
		}
		de = de[:len(e)]
		copy(de, e)
		dst.expected[h] = de
	}
	if m.successors != nil && dst.successors == nil {
		dst.successors = make(map[isa.HotSpotID]map[isa.HotSpotID]int)
	}
	for h, row := range dst.successors {
		if _, ok := m.successors[h]; !ok {
			delete(dst.successors, h)
		} else {
			clear(row)
		}
	}
	for h, row := range m.successors {
		drow := dst.successors[h]
		if drow == nil {
			drow = make(map[isa.HotSpotID]int, len(row))
			dst.successors[h] = drow
		}
		for to, n := range row {
			drow[to] = n
		}
	}
	clear(dst.observed)
	for h, n := range m.ObservedSpots {
		dst.observed[h] = n
	}
	dst.current = m.current
	dst.absError = m.AbsError
	dst.samples = m.Samples
}

// RestoreFrom overwrites the monitor's learned state with a saved one. Keys
// the monitor has learned since the save are zeroed in place rather than
// deleted — a zero expectation vector is behaviorally identical to an
// absent one — so steady-state restores allocate nothing.
func (m *Monitor) RestoreFrom(src *State) {
	for h, e := range m.expected {
		if _, ok := src.expected[h]; !ok {
			for i := range e {
				e[i] = 0
			}
		}
	}
	for h, se := range src.expected {
		e := m.ensure(h)
		copy(e, se)
	}
	for i := range m.counts {
		m.counts[i] = 0
	}
	m.inSpot = false
	m.current = src.current
	for h, row := range m.successors {
		if _, ok := src.successors[h]; !ok {
			clear(row)
		}
	}
	for h, srow := range src.successors {
		if m.successors == nil {
			m.successors = make(map[isa.HotSpotID]map[isa.HotSpotID]int)
		}
		row := m.successors[h]
		if row == nil {
			row = make(map[isa.HotSpotID]int, len(srow))
			m.successors[h] = row
		} else {
			clear(row)
		}
		for to, n := range srow {
			row[to] = n
		}
	}
	clear(m.ObservedSpots)
	for h, n := range src.observed {
		m.ObservedSpots[h] = n
	}
	m.AbsError = src.absError
	m.Samples = src.samples
}

// Successor prediction: the monitor also learns the hot-spot rotation
// (ME → EE → LF → ME … in the H.264 encoder) so the Run-Time Manager can
// prefetch Atoms for the upcoming hot spot while the reconfiguration port
// would otherwise idle.

// RecordTransition counts an observed hot-spot transition from → to. The
// Manager calls it on every hot-spot switch.
func (m *Monitor) RecordTransition(from, to isa.HotSpotID) {
	if m.successors == nil {
		m.successors = make(map[isa.HotSpotID]map[isa.HotSpotID]int)
	}
	row := m.successors[from]
	if row == nil {
		row = make(map[isa.HotSpotID]int)
		m.successors[from] = row
	}
	row[to]++
}

// PredictNext returns the most frequently observed successor of hot spot h.
// ok is false when h has no recorded successor yet.
func (m *Monitor) PredictNext(h isa.HotSpotID) (next isa.HotSpotID, ok bool) {
	row := m.successors[h]
	best := -1
	for to, n := range row {
		if n > best || (n == best && to < next) {
			best, next, ok = n, to, true
		}
	}
	return next, ok
}
