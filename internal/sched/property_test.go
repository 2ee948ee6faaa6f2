package sched

import (
	"math/rand"
	"slices"
	"testing"

	"rispp/internal/isa"
	"rispp/internal/isa/isatest"
	"rispp/internal/molecule"
)

// TestRandomISAsAreValid hardens the generator itself: Validate must accept
// everything randomISA produces.
func TestRandomISAsAreValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		is := isatest.RandomISA(rng, 2+rng.Intn(5), 1+rng.Intn(4))
		if err := is.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}

// TestSchedulersValidOnRandomISAs is the central robustness property: on
// hundreds of random Molecule libraries, from random initial availability,
// every scheduler emits a valid schedule (selected latency reached, no
// superfluous loads) and HEF additionally composes nothing an SI with zero
// expectations would need.
func TestSchedulersValidOnRandomISAs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 300; i++ {
		dim := 2 + rng.Intn(5)
		is := isatest.RandomISA(rng, dim, 1+rng.Intn(4))

		var reqs []Request
		for j := range is.SIs {
			si := &is.SIs[j]
			// Random selected Molecule and expectation (always > 0 so the
			// validity contract applies to every scheduler incl. HEF).
			sel := si.Molecules[rng.Intn(len(si.Molecules))]
			reqs = append(reqs, Request{SI: si, Selected: sel, Expected: int64(1 + rng.Intn(10000))})
		}
		avail := molecule.New(dim)
		for a := 0; a < dim; a++ {
			avail[a] = rng.Intn(3)
		}

		for _, name := range Names {
			s, _ := New(name)
			seq := s.Schedule(reqs, avail)
			if err := Valid(seq, reqs, avail); err != nil {
				t.Fatalf("iteration %d, %s: %v\nreqs=%+v avail=%v seq=%v", i, name, err, reqs, avail, seq)
			}
		}
	}
}

// TestHEFNeverLoadsBeyondSup: on random instances, HEF's loads never exceed
// the joint requirement sup(M) ⊖ avail.
func TestHEFNeverLoadsBeyondSup(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	s, _ := New("HEF")
	for i := 0; i < 300; i++ {
		dim := 2 + rng.Intn(4)
		is := isatest.RandomISA(rng, dim, 1+rng.Intn(3))
		var reqs []Request
		sup := molecule.New(dim)
		for j := range is.SIs {
			si := &is.SIs[j]
			sel := si.Molecules[rng.Intn(len(si.Molecules))]
			reqs = append(reqs, Request{SI: si, Selected: sel, Expected: int64(rng.Intn(1000))})
			sup = sup.Sup(sel.Atoms)
		}
		avail := molecule.New(dim)
		seq := s.Schedule(reqs, avail)
		loaded := molecule.New(dim)
		for _, atom := range seq {
			loaded = loaded.Add(molecule.Unit(int(atom), dim))
		}
		if !loaded.Leq(sup) {
			t.Fatalf("iteration %d: HEF loaded %v beyond sup %v", i, loaded, sup)
		}
	}
}

// TestSchedulePrefixesAreMonotone: along every scheduler's load sequence,
// no SI's fastest-available latency ever increases (loading Atoms can only
// help — the foundation of the as-soon-as-available upgrade model).
func TestSchedulePrefixesAreMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 200; i++ {
		dim := 2 + rng.Intn(4)
		is := isatest.RandomISA(rng, dim, 1+rng.Intn(3))
		var reqs []Request
		for j := range is.SIs {
			si := &is.SIs[j]
			reqs = append(reqs, Request{SI: si, Selected: si.Fastest(), Expected: int64(1 + rng.Intn(100))})
		}
		avail := molecule.New(dim)
		for _, name := range Names {
			s, _ := New(name)
			seq := s.Schedule(reqs, avail)
			a := avail.Clone()
			prev := map[isa.SIID]int{}
			for j := range is.SIs {
				prev[is.SIs[j].ID] = is.SIs[j].LatencyWith(a)
			}
			for _, atom := range seq {
				a = a.Add(molecule.Unit(int(atom), dim))
				for j := range is.SIs {
					si := &is.SIs[j]
					lat := si.LatencyWith(a)
					if lat > prev[si.ID] {
						t.Fatalf("iteration %d, %s: SI %s latency rose %d -> %d", i, name, si.Name, prev[si.ID], lat)
					}
					prev[si.ID] = lat
				}
			}
		}
	}
}

// TestScratchReuse: a dirty Scratch, left over from a different instance
// (other Atom dimension, other SIs, other strategy), must not leak into the
// next schedule. For every strategy, the HEF ablation included, a Scratch
// reused across random instances gives the sequence of a fresh one.
func TestScratchReuse(t *testing.T) {
	names := append(append([]string(nil), Names...), "HEF-unnorm")
	rng := rand.New(rand.NewSource(43))
	sc := NewScratch()
	for i := 0; i < 100; i++ {
		dim := 2 + rng.Intn(5)
		is := isatest.RandomISA(rng, dim, 1+rng.Intn(4))
		var reqs []Request
		for j := range is.SIs {
			si := &is.SIs[j]
			// Zero expectations included: HEF skips such SIs.
			sel := si.Molecules[rng.Intn(len(si.Molecules))]
			reqs = append(reqs, Request{SI: si, Selected: sel, Expected: int64(rng.Intn(100))})
		}
		avail := molecule.New(dim)
		for a := 0; a < dim; a++ {
			avail[a] = rng.Intn(3)
		}
		for _, name := range names {
			s, err := New(name)
			if err != nil {
				t.Fatal(err)
			}
			want := s.Schedule(reqs, avail)
			got := ScheduleInto(s, sc, reqs, avail) // reused across all iterations
			if !slices.Equal(got, want) {
				t.Fatalf("iteration %d, %s: reused scratch %v != fresh %v", i, name, got, want)
			}
		}
	}
}
