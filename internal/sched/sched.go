// Package sched implements the Special Instruction Scheduler of the RISPP
// run-time system (paper Section 4): given the Molecules selected for the
// upcoming hot spot and the currently available Atoms, it determines the
// Atom loading sequence (the scheduling function SF of equation (1)).
//
// The package provides the three reference strategies the paper compares —
// First Select First Reconfigure (FSFR), Avoid Software First (ASF) and
// Smallest Job First (SJF) — and the paper's proposed Highest Efficiency
// First (HEF) algorithm (Figure 6), plus an exhaustive clairvoyant-rate
// scheduler used to measure HEF's optimality gap on small instances.
package sched

import (
	"fmt"

	"rispp/internal/isa"
	"rispp/internal/molecule"
)

// Request asks the scheduler to compose one selected Molecule. Expected is
// the monitor's forecast of SI executions in the upcoming hot spot; it
// weighs the upgrade priority.
type Request struct {
	SI       *isa.SI
	Selected isa.Molecule
	Expected int64
}

// Scheduler determines the Atom loading sequence for a set of requests.
// Implementations must be deterministic.
type Scheduler interface {
	Name() string
	// Schedule returns the ordered Atom loads (Unit-Molecules, condition
	// (2) of the paper applied to the upgrade steps actually chosen) that
	// compose the requested Molecules, given the Atoms in avail are already
	// loaded.
	Schedule(reqs []Request, avail molecule.Vector) []isa.AtomID
}

// Names lists the built-in scheduler names in the paper's presentation
// order.
var Names = []string{"FSFR", "ASF", "SJF", "HEF"}

// New returns the scheduler with the given name (case-sensitive, one of
// Names, or the ablation variant "HEF-unnorm").
func New(name string) (Scheduler, error) {
	switch name {
	case "FSFR":
		return fsfr{}, nil
	case "ASF":
		return asf{}, nil
	case "SJF":
		return sjf{}, nil
	case "HEF":
		return hef{normalize: true}, nil
	case "HEF-unnorm":
		// Ablation: the benefit without the ÷|a ⊖ o| relativization of
		// Figure 6 line 20 — greedy on raw expected improvement.
		return hef{normalize: false}, nil
	}
	return nil, fmt.Errorf("sched: unknown scheduler %q (want one of %v)", name, Names)
}

// Scratch is the reusable arena of the scheduling engine: every slice the
// scheduling loop of Figure 6 needs, grown on demand and recycled across
// calls. A run-time system that owns a Scratch and schedules through
// ScheduleInto performs no allocations in the steady state. A Scratch is
// not safe for concurrent use; the schedulers themselves stay stateless.
type Scratch struct {
	avail   molecule.Vector
	bestLat []int   // indexed by SIID
	reqIdx  []int32 // indexed by SIID; -1 = SI not requested
	out     []isa.AtomID
	cands   []isa.Molecule
	ids     []isa.SIID
	reqs    []Request // the request set of the current call (borrowed)
}

// NewScratch returns an empty Scratch; it sizes itself from the first
// ScheduleInto call and grows as needed.
func NewScratch() *Scratch { return &Scratch{} }

// prepare sizes the arena for one scheduling call and seeds the per-SI
// state from the requests.
func (sc *Scratch) prepare(reqs []Request, avail molecule.Vector) {
	if cap(sc.avail) < avail.Len() {
		sc.avail = avail.Clone()
	} else {
		sc.avail = sc.avail[:avail.Len()]
		sc.avail.CopyFrom(avail)
	}
	nSIs := 0
	for i := range reqs {
		if n := int(reqs[i].SI.ID) + 1; n > nSIs {
			nSIs = n
		}
	}
	if cap(sc.bestLat) < nSIs {
		sc.bestLat = make([]int, nSIs)
		sc.reqIdx = make([]int32, nSIs)
	} else {
		sc.bestLat = sc.bestLat[:nSIs]
		sc.reqIdx = sc.reqIdx[:nSIs]
	}
	for i := range sc.reqIdx {
		sc.reqIdx[i] = -1
	}
	for i := range reqs {
		r := &reqs[i]
		sc.reqIdx[r.SI.ID] = int32(i)
		sc.bestLat[r.SI.ID] = r.SI.LatencyWith(avail)
	}
	sc.out = sc.out[:0]
	sc.cands = sc.cands[:0]
	sc.ids = sc.ids[:0]
}

// state is the shared scheduling engine state mirroring Figure 6: the Atoms
// already available or scheduled (a), and per SI the latency of the fastest
// available/scheduled Molecule (bestLatency). It is the Scratch itself —
// returning the same pointer keeps newState allocation-free.
type state = Scratch

func newState(sc *Scratch, reqs []Request, avail molecule.Vector) *state {
	sc.prepare(reqs, avail)
	sc.reqs = reqs
	return sc
}

func (st *state) byID(si isa.SIID) *Request { return &st.reqs[st.reqIdx[si]] }
func (st *state) bestLatOf(si isa.SIID) int { return st.bestLat[si] }

// commit schedules Molecule m: its additionally required Atoms a ⊖ m are
// appended to the loading sequence (in ascending Atom-type order) and the
// state is advanced (line 26–28 of Figure 6) — all in place.
func (st *state) commit(m isa.Molecule) {
	a := st.avail
	for i, c := range m.Atoms {
		for d := c - a[i]; d > 0; d-- {
			st.out = append(st.out, isa.AtomID(i))
		}
		if c > a[i] {
			a[i] = c
		}
	}
	if m.Latency < st.bestLat[m.SI] {
		st.bestLat[m.SI] = m.Latency
	}
}

// candidates computes M′ of equation (3): for every request, all Molecules
// of the same SI that are ≤ the selected Molecule. The result is in a
// deterministic canonical order (by SI, then slowest first), assembled in
// the scratch arena; the stable insertion sort (candidate sets are small)
// yields exactly the order sort.SliceStable produced.
func (st *state) candidates() []isa.Molecule {
	out := st.cands[:0]
	for _, r := range st.reqs {
		for _, o := range r.SI.Molecules {
			if o.Atoms.Leq(r.Selected.Atoms) {
				out = append(out, o)
			}
		}
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && candLess(&out[j], &out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	st.cands = out
	return out
}

func candLess(a, b *isa.Molecule) bool {
	if a.SI != b.SI {
		return a.SI < b.SI
	}
	return a.Latency > b.Latency
}

// clean applies equation (4): drop candidates that are already available
// with the current (available ∪ scheduled) Atoms, and candidates that are
// not faster than the best available/scheduled Molecule of their SI.
func clean(cands []isa.Molecule, st *state) []isa.Molecule {
	out := cands[:0]
	for _, o := range cands {
		if o.Atoms.Leq(st.avail) {
			continue // o ≤ a: no additional Atoms required
		}
		if o.Latency >= st.bestLatOf(o.SI) {
			continue // no latency improvement
		}
		out = append(out, o)
	}
	return out
}

// importance ranks an SI for FSFR/ASF ordering: expected executions times
// the potential improvement the selected Molecule offers over the current
// state.
func importance(r *Request, st *state) int64 {
	improve := int64(st.bestLatOf(r.SI.ID) - r.Selected.Latency)
	if improve < 0 {
		improve = 0
	}
	return r.Expected * improve
}

// orderSIs returns the request SIs most-important-first (deterministic:
// ties broken by SI ID, so the order is unique and the in-place insertion
// sort reproduces the previous sort.SliceStable exactly).
func orderSIs(reqs []Request, st *state) []isa.SIID {
	ids := st.ids[:0]
	for i := range reqs {
		ids = append(ids, reqs[i].SI.ID)
	}
	less := func(a, b isa.SIID) bool {
		ia, ib := importance(st.byID(a), st), importance(st.byID(b), st)
		if ia != ib {
			return ia > ib
		}
		return a < b
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && less(ids[j], ids[j-1]); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	st.ids = ids
	return ids
}

// smallestStep picks, among the candidates of SI si (or all SIs if si < 0),
// the Molecule with the fewest additionally required Atoms; ties are broken
// by the bigger performance improvement, then canonically. It returns the
// index into cands or -1.
func smallestStep(cands []isa.Molecule, st *state, si isa.SIID) int {
	best := -1
	var bestAdd, bestImprove int
	for i, o := range cands {
		if si >= 0 && o.SI != si {
			continue
		}
		add := st.avail.SubDet(o.Atoms)
		improve := st.bestLatOf(o.SI) - o.Latency
		if best < 0 || add < bestAdd || (add == bestAdd && improve > bestImprove) {
			best, bestAdd, bestImprove = i, add, improve
		}
	}
	return best
}

// run drives the generic scheduling loop of Figure 6 with a pluggable
// choice function. choose returns the index of the next Molecule to
// schedule, or -1 to stop.
func run(sc *Scratch, reqs []Request, avail molecule.Vector, choose func(cands []isa.Molecule, st *state) int) []isa.AtomID {
	st := newState(sc, reqs, avail)
	cands := st.candidates()
	for {
		cands = clean(cands, st)
		if len(cands) == 0 {
			break
		}
		i := choose(cands, st)
		if i < 0 {
			break
		}
		st.commit(cands[i])
	}
	return st.out
}

// ScheduleInto runs scheduler s with a caller-owned Scratch, so run-time
// systems that schedule at every hot-spot entry can do so allocation-free.
// The returned sequence aliases the Scratch and is only valid until its
// next use — callers must copy it (reconfig.Port.Schedule does). Schedulers
// that do not support scratch execution (e.g. the exhaustive reference)
// fall back to their plain Schedule.
func ScheduleInto(s Scheduler, sc *Scratch, reqs []Request, avail molecule.Vector) []isa.AtomID {
	if ss, ok := s.(scratchScheduler); ok {
		return ss.schedule(sc, reqs, avail)
	}
	return s.Schedule(reqs, avail)
}

// scratchScheduler is implemented by the built-in strategies: scheduling
// into caller-owned scratch with results identical to Schedule.
type scratchScheduler interface {
	schedule(sc *Scratch, reqs []Request, avail molecule.Vector) []isa.AtomID
}

// --- FSFR: First Select First Reconfigure -------------------------------

// fsfr reconfigures the most important SI's selected Molecule completely
// before starting the next SI. The Atoms of one SI load in plain ascending
// type order — FSFR makes no effort to pass through intermediate Molecules,
// they become available only incidentally ("it strictly upgrades one SI
// after the other", Section 5).
type fsfr struct{}

func (fsfr) Name() string { return "FSFR" }

func (s fsfr) Schedule(reqs []Request, avail molecule.Vector) []isa.AtomID {
	return s.schedule(NewScratch(), reqs, avail)
}

func (fsfr) schedule(sc *Scratch, reqs []Request, avail molecule.Vector) []isa.AtomID {
	st := newState(sc, reqs, avail)
	for _, si := range orderSIs(reqs, st) {
		st.commit(st.byID(si).Selected)
	}
	return st.out
}

// --- ASF: Avoid Software First -------------------------------------------

// asf first loads one accelerating Molecule for every SI (so no SI is stuck
// in software), then continues along the FSFR path.
type asf struct{}

func (asf) Name() string { return "ASF" }

func (s asf) Schedule(reqs []Request, avail molecule.Vector) []isa.AtomID {
	return s.schedule(NewScratch(), reqs, avail)
}

func (asf) schedule(sc *Scratch, reqs []Request, avail molecule.Vector) []isa.AtomID {
	st := newState(sc, reqs, avail)
	cands := st.candidates()
	order := orderSIs(reqs, st)
	// Phase 1: one accelerating Molecule per SI — the nearest upgrade step
	// (fewest additional Atoms) — in plain program order, so no SI stays at
	// its slow (software or stale leftover) implementation for long. This
	// spends reconfiguration time on every SI, "even though some of them
	// are significantly less often executed than others are" (Section 5) —
	// the very drawback that lets FSFR overtake ASF at high AC counts.
	for i := range reqs {
		cands = clean(cands, st)
		if j := smallestStep(cands, st, reqs[i].SI.ID); j >= 0 {
			st.commit(cands[j])
		}
	}
	// Phase 2: follow the FSFR path for the remaining upgrades.
	for _, si := range order {
		st.commit(st.byID(si).Selected)
	}
	return st.out
}

// --- SJF: Smallest Job First ----------------------------------------------

// sjf first loads the smallest Molecule for each SI (like ASF), then always
// schedules the candidate requiring the fewest additional Atoms; ties go to
// the bigger performance improvement.
type sjf struct{}

func (sjf) Name() string { return "SJF" }

func (s sjf) Schedule(reqs []Request, avail molecule.Vector) []isa.AtomID {
	return s.schedule(NewScratch(), reqs, avail)
}

func (sjf) schedule(sc *Scratch, reqs []Request, avail molecule.Vector) []isa.AtomID {
	st := newState(sc, reqs, avail)
	cands := st.candidates()
	for _, si := range orderSIs(reqs, st) {
		if _, ok := st.byID(si).SI.FastestAvailable(st.avail); ok {
			continue
		}
		cands = clean(cands, st)
		if i := smallestStep(cands, st, si); i >= 0 {
			st.commit(cands[i])
		}
	}
	for {
		cands = clean(cands, st)
		if len(cands) == 0 {
			break
		}
		i := smallestStep(cands, st, -1)
		if i < 0 {
			break
		}
		st.commit(cands[i])
	}
	return st.out
}

// --- HEF: Highest Efficiency First (Figure 6) -----------------------------

// hef schedules, in every step, the Molecule candidate with the highest
// benefit
//
//	benefit(o) = expected(SI(o)) · (bestLatency(SI(o)) − latency(o)) / |a ⊖ o|
//
// i.e. the performance improvement weighted by expected executions and
// relativized by the number of additionally required Atoms. The
// unnormalized ablation variant drops the division (every candidate's
// denominator is 1), showing why the per-Atom relativization matters.
type hef struct {
	normalize bool
}

func (s hef) Name() string {
	if s.normalize {
		return "HEF"
	}
	return "HEF-unnorm"
}

func (s hef) Schedule(reqs []Request, avail molecule.Vector) []isa.AtomID {
	return s.schedule(NewScratch(), reqs, avail)
}

func (s hef) schedule(sc *Scratch, reqs []Request, avail molecule.Vector) []isa.AtomID {
	return run(sc, reqs, avail, func(cands []isa.Molecule, st *state) int {
		best := -1
		var bestNum, bestDen int64 // benefit as fraction bestNum/bestDen
		for i, o := range cands {
			r := st.byID(o.SI)
			num := r.Expected * int64(st.bestLatOf(o.SI)-o.Latency)
			den := int64(1)
			if s.normalize {
				den = int64(st.avail.SubDet(o.Atoms))
			}
			// Division-free comparison num/den > bestNum/bestDen, valid
			// because the number of additionally required Atoms is always
			// > 0 after cleaning (paper Section 5, Table 3 discussion).
			if best < 0 {
				if num > 0 {
					best, bestNum, bestDen = i, num, den
				}
				continue
			}
			if num*bestDen > bestNum*den {
				best, bestNum, bestDen = i, num, den
			}
		}
		return best
	})
}

// BenefitFloat computes the HEF benefit with a floating-point division; it
// exists to prove the division-free integer comparison makes identical
// decisions (ablation + unit test).
func BenefitFloat(expected int64, bestLat, lat, addAtoms int) float64 {
	if addAtoms <= 0 {
		return 0
	}
	return float64(expected) * float64(bestLat-lat) / float64(addAtoms)
}

// Valid checks that a loading sequence is a valid schedule in the sense of
// conditions (1) and (2) applied to the upgrade-step strategy of Section
// 4.3: after loading the sequence on top of avail, every requested SI runs
// at the latency of its selected Molecule, and no Atom was loaded beyond
// the requirement of sup(M) ⊖ avail.
func Valid(seq []isa.AtomID, reqs []Request, avail molecule.Vector) error {
	a := avail.Clone()
	loaded := molecule.New(avail.Len())
	for _, atom := range seq {
		u := molecule.Unit(int(atom), a.Len())
		a = a.Add(u)
		loaded = loaded.Add(u)
	}
	sup := molecule.New(avail.Len())
	for _, r := range reqs {
		sup = sup.Sup(r.Selected.Atoms)
		if got, want := r.SI.LatencyWith(a), r.Selected.Latency; got > want {
			return fmt.Errorf("sched: SI %q reaches latency %d, selected Molecule promises %d", r.SI.Name, got, want)
		}
	}
	if limit := avail.Sub(sup); !loaded.Leq(limit) {
		return fmt.Errorf("sched: sequence loads %v, exceeding the requirement %v", loaded, limit)
	}
	return nil
}
