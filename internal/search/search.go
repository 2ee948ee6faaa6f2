// Package search drives adaptive multi-objective design-space search over
// the exploration engine of internal/explore: instead of enumerating a
// grid, a seeded Strategy proposes small batches of design points, a
// Driver evaluates them through the engine under an evaluation budget, and
// an incremental cycles-vs-area Pareto front (area priced by
// internal/hwmodel) guides the next proposals.
//
// Everything is deterministic: strategies derive all randomness from one
// seed, batches are proposed and evaluated in canonical order, and the
// Driver writes a replayable JSONL journal — seed, spec, every proposed
// and observed point, and the final front — so any run reproduces
// byte-exactly from its parameters and any journal replays byte-exactly
// from its lines.
//
// Three strategies ship behind the one Strategy interface:
//
//   - random: a seeded uniform permutation of the space — the baseline
//     every guided strategy must match or dominate at equal budget.
//   - halving: successive halving over the coordinate lattice — evaluate a
//     coarse sublattice, keep the better half by Pareto rank, halve the
//     stride around the survivors, repeat until stride one. Modeled on the
//     rung-based pruning of design-space-exploration tools (ByoRISC).
//   - evolve: ISEGEN-style iterative improvement — a population walks the
//     lattice by single-axis mutation and axis-wise crossover of
//     Pareto-ranked parents, with seeded random restarts to escape local
//     optima.
package search

import (
	"fmt"
	"sort"

	"rispp/internal/explore"
	"rispp/internal/hwmodel"
)

// Eval is the observed outcome of one visited design point: the engine's
// measured metrics plus the hwmodel area estimate — the two objectives the
// search minimizes are Cycles and Area.
type Eval struct {
	Point       explore.Point `json:"point"`
	Cycles      int64         `json:"cycles"`
	StallCycles int64         `json:"stall_cycles"`
	Area        int64         `json:"area"`
	Err         string        `json:"err,omitempty"`

	// Cached marks engine result-cache hits. It is excluded from the
	// serialization so journals are byte-identical between cold and warm
	// caches.
	Cached bool `json:"-"`
}

// OK reports whether the point produced a usable measurement.
func (e Eval) OK() bool { return e.Err == "" }

// evalOf condenses an engine record into an Eval.
func evalOf(rec explore.Record) Eval {
	return Eval{
		Point:       rec.Point,
		Cycles:      rec.TotalCycles,
		StallCycles: rec.StallCycles,
		Area:        rec.Area,
		Err:         rec.Err,
		Cached:      rec.Cached,
	}
}

// FrontPoint is one member of a cycles-vs-area Pareto front.
type FrontPoint struct {
	Point  explore.Point `json:"point"`
	Cycles int64         `json:"cycles"`
	Area   int64         `json:"area"`
}

// Dominates reports whether a is at least as good as b in both objectives
// and strictly better in one (both minimized).
func Dominates(a, b FrontPoint) bool {
	return a.Cycles <= b.Cycles && a.Area <= b.Area &&
		(a.Cycles < b.Cycles || a.Area < b.Area)
}

// weaklyDominates reports a no worse than b in both objectives.
func weaklyDominates(a, b FrontPoint) bool {
	return a.Cycles <= b.Cycles && a.Area <= b.Area
}

// Front maintains an incremental Pareto front over {Cycles, Area}. The
// zero value is an empty front.
type Front struct {
	pts []FrontPoint
}

// Add offers a point to the front. It returns true when the point enters
// (it is not weakly dominated by a member); dominated members are evicted.
// Duplicate objective vectors keep the first-added point with the smaller
// canonical key, so the front is independent of insertion order.
func (f *Front) Add(p FrontPoint) bool {
	keep := f.pts[:0]
	enter := true
	for _, q := range f.pts {
		if enter && weaklyDominates(q, p) {
			if q.Cycles == p.Cycles && q.Area == p.Area && p.Point.Key() < q.Point.Key() {
				continue // same objectives, canonical-key tie-break: replace q
			}
			enter = false
		}
		if enter && Dominates(p, q) {
			continue // q evicted
		}
		keep = append(keep, q)
	}
	f.pts = keep
	if enter {
		f.pts = append(f.pts, p)
	}
	return enter
}

// Points returns the front sorted by ascending area, then cycles, then
// canonical key — the canonical rendering journals and responses use.
func (f *Front) Points() []FrontPoint {
	out := append([]FrontPoint(nil), f.pts...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Area != out[j].Area {
			return out[i].Area < out[j].Area
		}
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles < out[j].Cycles
		}
		return out[i].Point.Key() < out[j].Point.Key()
	})
	return out
}

// Len returns the number of front members.
func (f *Front) Len() int { return len(f.pts) }

// hasVector reports whether some member has exactly these objectives — an
// Add of such a point can only be a canonical-key tie-break, never an
// improvement.
func (f *Front) hasVector(cycles, area int64) bool {
	for _, q := range f.pts {
		if q.Cycles == cycles && q.Area == area {
			return true
		}
	}
	return false
}

// Covers reports whether every member of g is weakly dominated by some
// member of f — "f matches or dominates g", the convergence criterion the
// guided strategies are held to against the random baseline.
func (f *Front) Covers(g *Front) bool {
	for _, q := range g.pts {
		ok := false
		for _, p := range f.pts {
			if weaklyDominates(p, q) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// frontOf builds a front from successful evals.
func frontOf(evals []Eval) *Front {
	f := &Front{}
	for _, e := range evals {
		if e.OK() {
			f.Add(FrontPoint{Point: e.Point, Cycles: e.Cycles, Area: e.Area})
		}
	}
	return f
}

// areaOf prices a point with the hwmodel estimator — used wherever an
// observation arrives without an area (e.g. a suggest request that reports
// only cycles).
func areaOf(p explore.Point) int64 {
	return hwmodel.PointArea(p.Scheduler, p.NumACs)
}

// paretoRank assigns each eval its nondominated-sorting rank: rank 0 is
// the Pareto front of the set, rank 1 the front after removing rank 0, and
// so on. Failed evals rank strictly behind every successful one. Returned
// ranks align with the input slice.
func paretoRank(evals []Eval) []int {
	const failedRank = 1 << 30
	rank := make([]int, len(evals))
	assigned := make([]bool, len(evals))
	remaining := 0
	for i, e := range evals {
		if !e.OK() {
			rank[i] = failedRank
			assigned[i] = true
			continue
		}
		remaining++
	}
	for r := 0; remaining > 0; r++ {
		var frontIdx []int
		for i, e := range evals {
			if assigned[i] {
				continue
			}
			dominated := false
			for j, o := range evals {
				if j == i || assigned[j] {
					continue
				}
				a := FrontPoint{Cycles: o.Cycles, Area: o.Area}
				b := FrontPoint{Cycles: e.Cycles, Area: e.Area}
				if Dominates(a, b) {
					dominated = true
					break
				}
			}
			if !dominated {
				frontIdx = append(frontIdx, i)
			}
		}
		if len(frontIdx) == 0 {
			// Degenerate (identical objective vectors dominate nothing):
			// everything left is one rank.
			for i := range evals {
				if !assigned[i] {
					rank[i] = r
					assigned[i] = true
					remaining--
				}
			}
			break
		}
		for _, i := range frontIdx {
			rank[i] = r
			assigned[i] = true
			remaining--
		}
	}
	return rank
}

// FormatFront renders a front as an aligned text table (CLI summary).
func FormatFront(pts []FrontPoint) string {
	out := fmt.Sprintf("Pareto front {cycles, area}: %d points\n", len(pts))
	for _, p := range pts {
		out += fmt.Sprintf("  %-10s acs=%-3d area=%-7d cycles=%d\n",
			p.Point.Scheduler, p.Point.NumACs, p.Area, p.Cycles)
	}
	return out
}
