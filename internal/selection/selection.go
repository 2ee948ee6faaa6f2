// Package selection implements the Molecule selection step of the RISPP
// Run-Time Manager (task III in paper Section 3.1): before a hot spot
// executes, one Molecule per Special Instruction is chosen such that all
// selected Molecules together fit into the available Atom Containers,
// i.e. NA = |sup(M)| ≤ #ACs.
//
// The paper treats the selection details as out of scope ("The details of
// the selection are beyond the scope of this paper") but depends on it; this
// package provides a greedy profit/cost selection — the natural choice given
// the shared-Atom cost structure — plus an exhaustive reference selection
// for small instances.
package selection

import (
	"fmt"

	"rispp/internal/isa"
	"rispp/internal/molecule"
	"rispp/internal/sched"
)

// Candidate is one SI of the upcoming hot spot together with its forecast
// execution count.
type Candidate struct {
	SI       *isa.SI
	Expected int64
}

// Scratch is the reusable arena of the greedy selection: every slice
// GreedyInto needs, grown on demand and recycled across calls. Not safe for
// concurrent use.
type Scratch struct {
	chosen []*isa.Molecule
	curLat []int
	sup    molecule.Vector
	reqs   []sched.Request
}

// NewScratch returns an empty Scratch; it sizes itself on first use.
func NewScratch() *Scratch { return &Scratch{} }

// Greedy selects Molecules by repeatedly committing the upgrade with the
// best profit = expected · latency-improvement per additionally required
// Atom (Atoms shared with already committed Molecules are free), while the
// joint sup fits into numACs containers. SIs whose smallest Molecule does
// not fit (or whose forecast is zero) remain in software and yield no
// request.
func Greedy(cands []Candidate, numACs, dim int) []sched.Request {
	return GreedyInto(cands, numACs, dim, NewScratch())
}

// GreedyInto is Greedy with a caller-owned Scratch: allocation-free in the
// steady state. The returned requests alias the Scratch and are only valid
// until its next use.
func GreedyInto(cands []Candidate, numACs, dim int, sc *Scratch) []sched.Request {
	if cap(sc.chosen) < len(cands) {
		sc.chosen = make([]*isa.Molecule, len(cands))
		sc.curLat = make([]int, len(cands))
	} else {
		sc.chosen = sc.chosen[:len(cands)]
		sc.curLat = sc.curLat[:len(cands)]
		for i := range sc.chosen {
			sc.chosen[i] = nil
		}
	}
	chosen, curLat := sc.chosen, sc.curLat // nil chosen = software
	for i, c := range cands {
		curLat[i] = c.SI.SWLatency
	}
	if cap(sc.sup) < dim {
		sc.sup = molecule.New(dim)
	} else {
		sc.sup = sc.sup[:dim]
		sc.sup.Zero()
	}
	sup := sc.sup
	supDet := 0

	for {
		bestI, bestJ := -1, -1
		bestFree := false
		var bestNum, bestDen int64 // profit gain/cost as a fraction
		for i, c := range cands {
			if c.Expected <= 0 {
				continue
			}
			for j := range c.SI.Molecules {
				m := &c.SI.Molecules[j]
				if m.Latency >= curLat[i] {
					continue
				}
				newSupDet := sup.SupDet(m.Atoms)
				if newSupDet > numACs {
					continue
				}
				gain := c.Expected * int64(curLat[i]-m.Latency)
				cost := int64(newSupDet - supDet)
				free := cost == 0 // upgrade entirely through shared Atoms
				better := false
				switch {
				case bestI < 0:
					better = true
				case free != bestFree:
					better = free // infinite profit dominates
				case free:
					better = gain > bestNum
				default:
					// gain/cost > bestNum/bestDen, division-free.
					better = gain*bestDen > bestNum*cost
				}
				if better {
					bestI, bestJ, bestFree = i, j, free
					bestNum, bestDen = gain, cost
				}
			}
		}
		if bestI < 0 {
			break
		}
		chosen[bestI] = &cands[bestI].SI.Molecules[bestJ]
		curLat[bestI] = chosen[bestI].Latency
		sup.SupInPlace(chosen[bestI].Atoms)
		supDet = sup.Determinant()
	}

	reqs := sc.reqs[:0]
	for i, c := range cands {
		if chosen[i] != nil {
			reqs = append(reqs, sched.Request{SI: c.SI, Selected: *chosen[i], Expected: c.Expected})
		}
	}
	sc.reqs = reqs
	return reqs
}

// Exhaustive enumerates every combination of one Molecule (or software) per
// SI and returns the combination maximizing the total expected gain under
// the container constraint. It is exponential in the number of SIs and
// exists as the reference for evaluating Greedy; maxCombos bounds the
// search (0 means DefaultMaxCombos).
func Exhaustive(cands []Candidate, numACs, dim, maxCombos int) ([]sched.Request, error) {
	if maxCombos == 0 {
		maxCombos = DefaultMaxCombos
	}
	combos := 1
	for _, c := range cands {
		combos *= len(c.SI.Molecules) + 1
		if combos > maxCombos {
			return nil, fmt.Errorf("selection: %d combinations exceed limit %d", combos, maxCombos)
		}
	}

	choice := make([]int, len(cands)) // -1 = software
	best := make([]int, len(cands))
	var bestGain int64 = -1

	var walk func(i int, sup molecule.Vector, gain int64)
	walk = func(i int, sup molecule.Vector, gain int64) {
		if i == len(cands) {
			if gain > bestGain {
				bestGain = gain
				copy(best, choice)
			}
			return
		}
		choice[i] = -1
		walk(i+1, sup, gain)
		if cands[i].Expected <= 0 {
			return
		}
		for j := range cands[i].SI.Molecules {
			m := &cands[i].SI.Molecules[j]
			newSup := sup.Sup(m.Atoms)
			if newSup.Determinant() > numACs {
				continue
			}
			choice[i] = j
			g := cands[i].Expected * int64(cands[i].SI.SWLatency-m.Latency)
			walk(i+1, newSup, gain+g)
		}
	}
	walk(0, molecule.New(dim), 0)

	var reqs []sched.Request
	for i, j := range best {
		if j >= 0 {
			reqs = append(reqs, sched.Request{SI: cands[i].SI, Selected: cands[i].SI.Molecules[j], Expected: cands[i].Expected})
		}
	}
	return reqs, nil
}

// DefaultMaxCombos bounds the exhaustive selection search.
const DefaultMaxCombos = 1 << 22

// Gain computes the total expected cycle savings of a selection relative to
// pure software execution.
func Gain(reqs []sched.Request) int64 {
	var g int64
	for _, r := range reqs {
		g += r.Expected * int64(r.SI.SWLatency-r.Selected.Latency)
	}
	return g
}

// Sup returns the joint Meta-Molecule of a selection; its determinant is
// the NA of the paper (must be ≤ #ACs).
func Sup(reqs []sched.Request, dim int) molecule.Vector {
	s := molecule.New(dim)
	SupInto(reqs, s)
	return s
}

// SupInto computes the joint Meta-Molecule of a selection into dst
// (overwritten), allocation-free.
func SupInto(reqs []sched.Request, dst molecule.Vector) {
	dst.Zero()
	for _, r := range reqs {
		dst.SupInPlace(r.Selected.Atoms)
	}
}
