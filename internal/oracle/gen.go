package oracle

import (
	"fmt"
	"math/rand"

	"rispp/internal/isa"
	"rispp/internal/workload"
)

// GenHardware derives a random — but always structurally valid — dynamic
// instruction set from the PRNG: 2..5 Atom types, 1..3 hot spots (each
// guaranteed at least one SI), and 1..7 SIs whose Molecule sets come from
// the same mixed-execution latency model as the paper's library
// (isa.MoleculeSpec), so ≤-monotonicity and hardware-beats-software hold by
// construction. The stream of draws is fixed for a given seed: the same
// rand.Rand state always yields the same ISA, which is what makes failures
// reproducible and shrinkable.
func GenHardware(r *rand.Rand) *isa.ISA {
	dim := 2 + r.Intn(4)
	atoms := make([]isa.AtomType, dim)
	for i := range atoms {
		atoms[i] = isa.AtomType{
			ID:             isa.AtomID(i),
			Name:           fmt.Sprintf("GA%d", i),
			BitstreamBytes: 4_000 + r.Intn(76_000),
			Slices:         50 + r.Intn(400),
			LUTs:           100 + r.Intn(800),
			FFs:            100 + r.Intn(800),
		}
	}

	nHot := 1 + r.Intn(3)
	nSIs := nHot + r.Intn(5)
	sis := make([]isa.SI, 0, nSIs)
	hotSIs := make([][]isa.SIID, nHot)
	for i := 0; i < nSIs; i++ {
		// The first nHot SIs cover every hot spot, so no hot spot is empty.
		hot := i
		if i >= nHot {
			hot = r.Intn(nHot)
		}
		k := 1 + r.Intn(min(3, dim))
		local := r.Perm(dim)[:k]
		spec := isa.MoleculeSpec{
			Atoms:    make([]isa.AtomID, k),
			Occ:      make([]int, k),
			HWCyc:    make([]int, k),
			SWCyc:    make([]int, k),
			Steps:    make([][]int, k),
			Overhead: r.Intn(16),
		}
		gridSize := 1
		for j := 0; j < k; j++ {
			spec.Atoms[j] = isa.AtomID(local[j])
			spec.Occ[j] = 1 + r.Intn(8)
			spec.HWCyc[j] = 1 + r.Intn(6)
			spec.SWCyc[j] = spec.HWCyc[j] + 1 + r.Intn(24)
			steps := []int{0, 1}
			if r.Intn(2) == 0 {
				steps = append(steps, 2+r.Intn(2))
			}
			spec.Steps[j] = steps
			gridSize *= len(steps)
		}
		spec.Count = 1 + r.Intn(min(gridSize-1, 5)) // grid minus the zero vector
		id := isa.SIID(len(sis))
		sis = append(sis, isa.SI{
			ID:        id,
			Name:      fmt.Sprintf("GSI%d", id),
			HotSpot:   isa.HotSpotID(hot),
			SWLatency: spec.SWLatency(),
			Molecules: spec.Generate(id, dim),
		})
		hotSIs[hot] = append(hotSIs[hot], id)
	}

	hs := make([]isa.HotSpot, nHot)
	for h := range hs {
		hs[h] = isa.HotSpot{ID: isa.HotSpotID(h), Name: fmt.Sprintf("GHS%d", h), SIs: hotSIs[h]}
	}
	is := &isa.ISA{Name: "generated", Atoms: atoms, SIs: sis, HotSpots: hs}
	if err := is.Validate(); err != nil {
		panic(fmt.Sprintf("oracle: generated an invalid ISA: %v", err))
	}
	return is
}

// GenWorkload derives a random trace valid for the ISA: 1..8 hot-spot
// phases with 0..5 SI bursts each (empty phases and zero-count bursts are
// deliberately reachable — they are exactly the edge cases a calibrated
// benchmark never produces).
func GenWorkload(r *rand.Rand, is *isa.ISA) *workload.Trace {
	tr := &workload.Trace{Name: "generated"}
	nPhases := 1 + r.Intn(8)
	for p := 0; p < nPhases; p++ {
		hot := r.Intn(len(is.HotSpots))
		phase := workload.Phase{
			HotSpot: isa.HotSpotID(hot),
			Setup:   int64(r.Intn(5_000)),
		}
		sis := is.HotSpots[hot].SIs
		for b := r.Intn(6); b > 0; b-- {
			phase.Bursts = append(phase.Bursts, workload.Burst{
				SI:    sis[r.Intn(len(sis))],
				Count: r.Intn(600),
				Gap:   r.Intn(12),
			})
		}
		tr.Phases = append(tr.Phases, phase)
	}
	return tr
}

// GenRotation derives a trace of repeated hot-spot rotations valid for the
// ISA — the shape the run-time system is built for, like the H.264
// encoder's ME → EE → LF — where GenWorkload's short random phases seldom
// give the monitor a rotation to predict. One order of every hot spot
// repeats for 2..5 rounds; each hot spot's phase holds 1..3 full blocks of
// workload.BlockLen bursts plus a shorter tail, in runs of 1..48 bursts of
// one SI (like kernel loops), from a per-hot-spot template whose burst
// counts jitter by ±2 from round to round (zero-count bursts stay
// reachable). Phases that long let Atom loads complete both
// inside and between blocks, and the predictable order lets the
// prefetching Manager load the next hot spot's Atoms. GenWorkload's draws
// are untouched, so its seeded corpus keeps its inputs.
func GenRotation(r *rand.Rand, is *isa.ISA) *workload.Trace {
	order := r.Perm(len(is.HotSpots))
	templates := make([]workload.Phase, len(order))
	for i, h := range order {
		hs := &is.HotSpots[h]
		p := &templates[i]
		p.HotSpot = hs.ID
		p.Setup = int64(r.Intn(20_000))
		p.Bursts = make([]workload.Burst, workload.BlockLen*(1+r.Intn(3))+r.Intn(workload.BlockLen))
		for j := 0; j < len(p.Bursts); {
			si := hs.SIs[r.Intn(len(hs.SIs))]
			for run := 1 + r.Intn(48); run > 0 && j < len(p.Bursts); run, j = run-1, j+1 {
				p.Bursts[j] = workload.Burst{SI: si, Count: r.Intn(40), Gap: r.Intn(12)}
			}
		}
	}
	tr := &workload.Trace{Name: "rotation"}
	for round := 2 + r.Intn(4); round > 0; round-- {
		for _, tp := range templates {
			p := tp
			p.Bursts = make([]workload.Burst, len(tp.Bursts))
			for j, b := range tp.Bursts {
				b.Count = max(0, b.Count+r.Intn(5)-2)
				p.Bursts[j] = b
			}
			tr.Phases = append(tr.Phases, p)
		}
	}
	return tr
}

// GenNumACs draws an Atom-Container budget, including the degenerate 0-AC
// fabric on which every system must degrade to pure software.
func GenNumACs(r *rand.Rand) int { return r.Intn(13) }

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
