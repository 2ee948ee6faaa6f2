package sched

import (
	"math/rand"
	"reflect"
	"testing"

	"rispp/internal/isa"
	"rispp/internal/molecule"
)

// fig4ISA builds the single-SI scenario of the paper's Figure 4: an SI with
// two Atom types and the Molecule chain m1=(1,2) < m2=(2,2) < m3=(3,3),
// where m3 was selected. It optionally includes the incomparable candidate
// m4=(1,3) that is slower than m2.
func fig4ISA(withM4 bool) *isa.ISA {
	mols := []isa.Molecule{
		{SI: 0, Atoms: molecule.Of(1, 2), Latency: 100},
		{SI: 0, Atoms: molecule.Of(2, 2), Latency: 60},
		{SI: 0, Atoms: molecule.Of(3, 3), Latency: 30},
	}
	if withM4 {
		mols = []isa.Molecule{
			mols[0],
			{SI: 0, Atoms: molecule.Of(1, 3), Latency: 80}, // m4: worse than m2
			mols[1],
			mols[2],
		}
	}
	is := &isa.ISA{
		Name: "fig4",
		Atoms: []isa.AtomType{
			{ID: 0, Name: "A1", BitstreamBytes: 60488, Slices: 421, LUTs: 839, FFs: 45},
			{ID: 1, Name: "A2", BitstreamBytes: 60488, Slices: 421, LUTs: 839, FFs: 45},
		},
		SIs: []isa.SI{{
			ID: 0, Name: "SI1", HotSpot: 0, SWLatency: 500, Molecules: mols,
		}},
		HotSpots: []isa.HotSpot{{ID: 0, Name: "hot", SIs: []isa.SIID{0}}},
	}
	if err := is.Validate(); err != nil {
		panic(err)
	}
	return is
}

// twoSIISA builds the two-SI scenario of Figure 5: two SIs over two shared
// Atom types, each with a small and the selected big Molecule.
func twoSIISA() *isa.ISA {
	is := &isa.ISA{
		Name: "fig5",
		Atoms: []isa.AtomType{
			{ID: 0, Name: "A1", BitstreamBytes: 60488},
			{ID: 1, Name: "A2", BitstreamBytes: 60488},
		},
		SIs: []isa.SI{
			{ID: 0, Name: "SI1", HotSpot: 0, SWLatency: 1000, Molecules: []isa.Molecule{
				{SI: 0, Atoms: molecule.Of(1, 0), Latency: 300},
				{SI: 0, Atoms: molecule.Of(2, 1), Latency: 150},
				{SI: 0, Atoms: molecule.Of(3, 1), Latency: 90},
			}},
			{ID: 1, Name: "SI2", HotSpot: 0, SWLatency: 800, Molecules: []isa.Molecule{
				{SI: 1, Atoms: molecule.Of(0, 1), Latency: 400},
				{SI: 1, Atoms: molecule.Of(1, 2), Latency: 200},
			}},
		},
		HotSpots: []isa.HotSpot{{ID: 0, Name: "hot", SIs: []isa.SIID{0, 1}}},
	}
	if err := is.Validate(); err != nil {
		panic(err)
	}
	return is
}

func reqsFor(is *isa.ISA, expected ...int64) []Request {
	var reqs []Request
	for i := range is.SIs {
		si := &is.SIs[i]
		reqs = append(reqs, Request{SI: si, Selected: si.Fastest(), Expected: expected[i]})
	}
	return reqs
}

func apply(seq []isa.AtomID, avail molecule.Vector) molecule.Vector {
	a := avail.Clone()
	for _, atom := range seq {
		a = a.Add(molecule.Unit(int(atom), a.Len()))
	}
	return a
}

func TestNewFactory(t *testing.T) {
	for _, name := range Names {
		s, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, s.Name())
		}
	}
	if _, err := New("bogus"); err == nil {
		t.Fatal("New(bogus) did not fail")
	}
}

func TestAllSchedulersProduceValidSchedules(t *testing.T) {
	scenarios := []struct {
		name string
		is   *isa.ISA
		exp  []int64
	}{
		{"fig4", fig4ISA(true), []int64{1000}},
		{"fig5", twoSIISA(), []int64{1000, 400}},
	}
	for _, sc := range scenarios {
		for _, name := range Names {
			s, _ := New(name)
			reqs := reqsFor(sc.is, sc.exp...)
			avail := molecule.New(sc.is.Dim())
			seq := s.Schedule(reqs, avail)
			if err := Valid(seq, reqs, avail); err != nil {
				t.Errorf("%s on %s: invalid schedule: %v (seq %v)", name, sc.name, err, seq)
			}
		}
	}
}

func TestH264FullHotSpotSchedulesValid(t *testing.T) {
	is := isa.H264()
	for _, h := range is.HotSpots {
		var reqs []Request
		for _, si := range is.HotSpotSIs(h.ID) {
			reqs = append(reqs, Request{SI: si, Selected: si.Fastest(), Expected: 1000})
		}
		avail := molecule.New(is.Dim())
		for _, name := range Names {
			s, _ := New(name)
			seq := s.Schedule(reqs, avail)
			if err := Valid(seq, reqs, avail); err != nil {
				t.Errorf("%s on hot spot %s: %v", name, h.Name, err)
			}
			if len(seq) == 0 {
				t.Errorf("%s on hot spot %s: empty schedule", name, h.Name)
			}
		}
	}
}

func TestSchedulersAreDeterministic(t *testing.T) {
	is := isa.H264()
	var reqs []Request
	for _, si := range is.HotSpotSIs(isa.HotSpotEE) {
		reqs = append(reqs, Request{SI: si, Selected: si.Fastest(), Expected: int64(100 * (int(si.ID) + 1))})
	}
	avail := molecule.New(is.Dim())
	for _, name := range Names {
		s, _ := New(name)
		a := s.Schedule(reqs, avail)
		b := s.Schedule(reqs, avail)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s is not deterministic", name)
		}
	}
}

// TestFig4GoodScheduleUpgradesEarly reproduces the core claim of Figure 4:
// a good schedule makes intermediate Molecules available early. With HEF,
// after 3 Atom loads Molecule m1=(1,2) must be available, after 4 loads
// m2=(2,2), and after all 6 loads the selected m3=(3,3).
func TestFig4GoodScheduleUpgradesEarly(t *testing.T) {
	is := fig4ISA(false)
	reqs := reqsFor(is, 1000)
	avail := molecule.New(2)
	s, _ := New("HEF")
	seq := s.Schedule(reqs, avail)
	if len(seq) != 6 {
		t.Fatalf("schedule length = %d, want 6 Atom loads", len(seq))
	}
	si := &is.SIs[0]
	checkpoints := []struct {
		afterLoads  int
		wantLatency int
	}{
		{3, 100}, // m1 available
		{4, 60},  // m2 available
		{6, 30},  // m3 available
	}
	for _, cp := range checkpoints {
		a := apply(seq[:cp.afterLoads], avail)
		if got := si.LatencyWith(a); got != cp.wantLatency {
			t.Errorf("after %d loads: latency %d, want %d (avail %v)", cp.afterLoads, got, cp.wantLatency, a)
		}
	}
}

// TestFig4M4Cleaning reproduces the discussion around equation (4): the
// candidate m4=(1,3) is slower than m2=(2,2) and must be cleaned once m2 is
// the best available Molecule — but starting from a=(0,3), m4 is the
// cheaper upgrade and may be scheduled first.
func TestFig4M4Cleaning(t *testing.T) {
	is := fig4ISA(true)
	si := &is.SIs[0]
	reqs := reqsFor(is, 1000)

	// From scratch, m2 (latency 60) is committed before m4 could help, so
	// m4 must never appear: the final availability is exactly sup = (3,3).
	s, _ := New("HEF")
	seq := s.Schedule(reqs, molecule.New(2))
	if got := apply(seq, molecule.New(2)); !got.Equal(molecule.Of(3, 3)) {
		t.Errorf("from scratch: composed %v, want (3, 3)", got)
	}

	// From a=(0,3), |a ⊖ m4| = 1 < |a ⊖ m2| = 2: HEF's benefit (improvement
	// relativized by additional Atoms) prefers the cheap m4 step first.
	avail := molecule.Of(0, 3)
	seq = s.Schedule(reqs, avail)
	first := apply(seq[:1], avail)
	if got := si.LatencyWith(first); got != 80 {
		t.Errorf("first upgrade from (0,3): latency %d, want 80 via m4", got)
	}
	if err := Valid(seq, reqs, avail); err != nil {
		t.Errorf("invalid schedule: %v", err)
	}
}

// TestASFAcceleratesAllSIsFirst: the defining property of ASF (and SJF):
// after the first phase every SI has some hardware Molecule before any SI
// is upgraded to its full Molecule.
func TestASFAcceleratesAllSIsFirst(t *testing.T) {
	is := twoSIISA()
	reqs := reqsFor(is, 1000, 400)
	avail := molecule.New(2)
	for _, name := range []string{"ASF", "SJF"} {
		s, _ := New(name)
		seq := s.Schedule(reqs, avail)
		// Find when each SI first leaves software, and when any SI reaches
		// its selected Molecule.
		firstHW := map[isa.SIID]int{}
		reachedFull := -1
		for k := 1; k <= len(seq); k++ {
			a := apply(seq[:k], avail)
			for i := range is.SIs {
				si := &is.SIs[i]
				if _, ok := si.FastestAvailable(a); ok {
					if _, seen := firstHW[si.ID]; !seen {
						firstHW[si.ID] = k
					}
				}
				if si.LatencyWith(a) == si.Fastest().Latency && reachedFull < 0 {
					reachedFull = k
				}
			}
		}
		for i := range is.SIs {
			if firstHW[is.SIs[i].ID] > reachedFull {
				t.Errorf("%s: SI %q still in software when another SI was fully upgraded", name, is.SIs[i].Name)
			}
		}
	}
}

// TestFSFRFinishesFirstSIBeforeSecond: the defining property of FSFR.
func TestFSFRFinishesFirstSIBeforeSecond(t *testing.T) {
	is := twoSIISA()
	reqs := reqsFor(is, 1000, 400) // SI1 is more important
	avail := molecule.New(2)
	s, _ := New("FSFR")
	seq := s.Schedule(reqs, avail)

	si1, si2 := &is.SIs[0], &is.SIs[1]
	full1, hw2 := -1, -1
	for k := 1; k <= len(seq); k++ {
		a := apply(seq[:k], avail)
		if full1 < 0 && si1.LatencyWith(a) == si1.Fastest().Latency {
			full1 = k
		}
		if hw2 < 0 {
			if _, ok := si2.FastestAvailable(a); ok {
				hw2 = k
			}
		}
	}
	if full1 < 0 || hw2 < 0 {
		t.Fatalf("schedule incomplete: full1=%d hw2=%d", full1, hw2)
	}
	if hw2 < full1 {
		// SI2 may become available incidentally through shared Atoms, but
		// with this ISA SI2 needs Atom type 2 which SI1's chain also loads;
		// assert FSFR did not deliberately accelerate SI2 first.
		a := apply(seq[:hw2], avail)
		if si1.LatencyWith(a) == si1.SWLatency {
			t.Errorf("FSFR accelerated SI2 (at %d) while SI1 still in software", hw2)
		}
	}
}

// TestHEFPrefersImportantSI: with extremely skewed expected executions, the
// first Atoms HEF loads must accelerate the hot SI.
func TestHEFPrefersImportantSI(t *testing.T) {
	is := twoSIISA()
	avail := molecule.New(2)
	s, _ := New("HEF")

	reqs := reqsFor(is, 10000, 1)
	seq := s.Schedule(reqs, avail)
	a := apply(seq[:1], avail)
	if _, ok := is.SIs[0].FastestAvailable(a); !ok {
		t.Errorf("HEF first load %v does not accelerate the hot SI1", seq[:1])
	}

	reqs = reqsFor(is, 1, 10000)
	seq = s.Schedule(reqs, avail)
	a = apply(seq[:1], avail)
	if _, ok := is.SIs[1].FastestAvailable(a); !ok {
		t.Errorf("HEF first load %v does not accelerate the hot SI2", seq[:1])
	}
}

// TestHEFSkipsZeroExpectedSIs: Figure 6 requires benefit > 0, so an SI that
// is not expected to execute is never composed.
func TestHEFSkipsZeroExpectedSIs(t *testing.T) {
	is := twoSIISA()
	reqs := reqsFor(is, 1000, 0)
	avail := molecule.New(2)
	s, _ := New("HEF")
	seq := s.Schedule(reqs, avail)
	a := apply(seq, avail)
	// SI1's selected Molecule must be reached...
	if got := is.SIs[0].LatencyWith(a); got != is.SIs[0].Fastest().Latency {
		t.Errorf("SI1 not fully composed: latency %d", got)
	}
	// ...but no Atom beyond SI1's needs may be loaded.
	if !a.Leq(is.SIs[0].Fastest().Atoms) {
		t.Errorf("HEF loaded Atoms %v beyond the needs of the only expected SI %v", a, is.SIs[0].Fastest().Atoms)
	}
}

func TestScheduleFromPartialAvailability(t *testing.T) {
	// Atoms left over from a previous hot spot reduce the work.
	is := twoSIISA()
	reqs := reqsFor(is, 1000, 400)
	full := molecule.Of(3, 2) // sup of both selected Molecules
	for _, name := range Names {
		s, _ := New(name)
		seq := s.Schedule(reqs, molecule.Of(2, 1))
		if want := full.Determinant() - 3; len(seq) != want {
			t.Errorf("%s: schedule length %d, want %d", name, len(seq), want)
		}
		if err := Valid(seq, reqs, molecule.Of(2, 1)); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestScheduleNothingToDo(t *testing.T) {
	is := twoSIISA()
	reqs := reqsFor(is, 1000, 400)
	avail := molecule.Of(3, 2)
	for _, name := range Names {
		s, _ := New(name)
		if seq := s.Schedule(reqs, avail); len(seq) != 0 {
			t.Errorf("%s scheduled %v although everything is available", name, seq)
		}
	}
}

func TestEmptyRequests(t *testing.T) {
	for _, name := range Names {
		s, _ := New(name)
		if seq := s.Schedule(nil, molecule.New(4)); len(seq) != 0 {
			t.Errorf("%s scheduled %v for no requests", name, seq)
		}
	}
}

func TestDivisionFreeBenefitEquivalence(t *testing.T) {
	// The hardware HEF avoids the division by comparing (a·b)·f > (d·e)·c.
	// Check the integer comparison agrees with the float division on random
	// inputs in the realistic value ranges.
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100000; i++ {
		e1, e2 := rng.Int63n(50000), rng.Int63n(50000)
		d1, d2 := rng.Intn(2000), rng.Intn(2000)
		c1, c2 := 1+rng.Intn(40), 1+rng.Intn(40)
		intCmp := e1*int64(d1)*int64(c2) > e2*int64(d2)*int64(c1)
		f1 := BenefitFloat(e1, d1, 0, c1)
		f2 := BenefitFloat(e2, d2, 0, c2)
		// Only strict float inequality is meaningful; equality maps to
		// "not greater" in both schemes.
		if intCmp != (f1 > f2) && f1 != f2 {
			t.Fatalf("mismatch: e1=%d d1=%d c1=%d vs e2=%d d2=%d c2=%d", e1, d1, c1, e2, d2, c2)
		}
	}
	if BenefitFloat(10, 100, 50, 0) != 0 {
		t.Fatal("BenefitFloat with zero Atoms should be 0")
	}
}

func TestCandidatesEquation3(t *testing.T) {
	is := fig4ISA(true)
	reqs := reqsFor(is, 100)
	c := newState(NewScratch(), reqs, molecule.New(2)).candidates()
	if len(c) != 4 { // m1, m4, m2, m3 all ≤ selected (3,3)
		t.Fatalf("candidates = %d, want 4", len(c))
	}
	// Selecting only m2=(2,2) must exclude m4=(1,3) (not ≤ m2).
	reqs[0].Selected = is.SIs[0].Molecules[2] // (2,2), latency 60
	if !reqs[0].Selected.Atoms.Equal(molecule.Of(2, 2)) {
		t.Fatalf("unexpected Molecule ordering: %v", reqs[0].Selected.Atoms)
	}
	c = newState(NewScratch(), reqs, molecule.New(2)).candidates()
	for _, m := range c {
		if m.Atoms.Equal(molecule.Of(1, 3)) {
			t.Error("m4 not filtered by equation (3)")
		}
		if m.Atoms.Equal(molecule.Of(3, 3)) {
			t.Error("m3 not filtered by equation (3)")
		}
	}
	if len(c) != 2 {
		t.Fatalf("candidates = %d, want 2 (m1, m2)", len(c))
	}
}

func TestCleanEquation4(t *testing.T) {
	is := fig4ISA(true)
	reqs := reqsFor(is, 100)
	st := newState(NewScratch(), reqs, molecule.Of(2, 2)) // m2 available: bestLat 60
	c := clean(st.candidates(), st)
	// m1 (≤ avail), m4 (slower than 60) and m2 (≤ avail) must be gone.
	if len(c) != 1 || !c[0].Atoms.Equal(molecule.Of(3, 3)) {
		t.Fatalf("cleaned candidates = %v, want only m3", c)
	}
}

func TestValidDetectsBadSequences(t *testing.T) {
	is := twoSIISA()
	reqs := reqsFor(is, 10, 10)
	avail := molecule.New(2)
	// Too short: SIs stay in software.
	if err := Valid([]isa.AtomID{0}, reqs, avail); err == nil {
		t.Error("Valid accepted an incomplete sequence")
	}
	// Overshoot: loads more than sup requires.
	over := []isa.AtomID{0, 0, 0, 0, 1, 1, 1}
	if err := Valid(over, reqs, avail); err == nil {
		t.Error("Valid accepted an overshooting sequence")
	}
}

func TestHEFUnnormalizedVariant(t *testing.T) {
	s, err := New("HEF-unnorm")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "HEF-unnorm" {
		t.Fatalf("Name = %q", s.Name())
	}
	// Valid schedules, like the real HEF.
	is := twoSIISA()
	reqs := reqsFor(is, 1000, 400)
	avail := molecule.New(2)
	if err := Valid(s.Schedule(reqs, avail), reqs, avail); err != nil {
		t.Fatal(err)
	}
}

func TestNormalizationMattersForCheapUpgrades(t *testing.T) {
	// SI-A offers a 300-cycle improvement for one Atom (300/Atom); SI-B a
	// 1100-cycle improvement for five Atoms (220/Atom). Normalized HEF
	// upgrades the efficient SI-A first; the unnormalized variant chases
	// SI-B's bigger raw improvement and leaves SI-A in software for five
	// Atom loads.
	is := &isa.ISA{
		Name: "norm-ablation",
		Atoms: []isa.AtomType{
			{ID: 0, Name: "A", BitstreamBytes: 60488},
			{ID: 1, Name: "B", BitstreamBytes: 60488},
		},
		SIs: []isa.SI{
			{ID: 0, Name: "cheap", HotSpot: 0, SWLatency: 400, Molecules: []isa.Molecule{
				{SI: 0, Atoms: molecule.Of(1, 0), Latency: 100},
			}},
			{ID: 1, Name: "big", HotSpot: 0, SWLatency: 1200, Molecules: []isa.Molecule{
				{SI: 1, Atoms: molecule.Of(0, 5), Latency: 100},
			}},
		},
		HotSpots: []isa.HotSpot{{ID: 0, Name: "hot", SIs: []isa.SIID{0, 1}}},
	}
	if err := is.Validate(); err != nil {
		t.Fatal(err)
	}
	reqs := reqsFor(is, 1, 1)
	avail := molecule.New(2)

	norm, _ := New("HEF")
	unnorm, _ := New("HEF-unnorm")
	nSeq := norm.Schedule(reqs, avail)
	uSeq := unnorm.Schedule(reqs, avail)

	if nSeq[0] != 0 {
		t.Fatalf("normalized HEF first load = atom %d, want the cheap SI's Atom", nSeq[0])
	}
	if uSeq[0] != 1 {
		t.Fatalf("unnormalized HEF first load = atom %d, want the big SI's Atom", uSeq[0])
	}
	// Both remain valid schedules.
	for _, seq := range [][]isa.AtomID{nSeq, uSeq} {
		if err := Valid(seq, reqs, avail); err != nil {
			t.Fatal(err)
		}
	}
}

// tieISA builds a deliberate benefit tie: two SIs with structurally
// identical Molecule chains over disjoint Atom types and equal
// expectations. Every per-candidate comparison key (additional Atoms,
// latency improvement, expected count) is equal between the two SIs'
// candidates, so the outcome is decided purely by tie-breaking: the
// canonical candidate order (by SI, then slowest-first) with first-wins
// replacement. A strategy that broke ties differently — e.g. last-wins on
// equal benefit, or a different candidate order — loads Atom 1 first on
// this instance.
func tieISA() *isa.ISA {
	is := &isa.ISA{
		Name: "tie",
		Atoms: []isa.AtomType{
			{ID: 0, Name: "A1", BitstreamBytes: 60488},
			{ID: 1, Name: "A2", BitstreamBytes: 60488},
		},
		SIs: []isa.SI{
			{ID: 0, Name: "SI1", HotSpot: 0, SWLatency: 500, Molecules: []isa.Molecule{
				{SI: 0, Atoms: molecule.Of(1, 0), Latency: 100},
				{SI: 0, Atoms: molecule.Of(2, 0), Latency: 50},
			}},
			{ID: 1, Name: "SI2", HotSpot: 0, SWLatency: 500, Molecules: []isa.Molecule{
				{SI: 1, Atoms: molecule.Of(0, 1), Latency: 100},
				{SI: 1, Atoms: molecule.Of(0, 2), Latency: 50},
			}},
		},
		HotSpots: []isa.HotSpot{{ID: 0, Name: "hot", SIs: []isa.SIID{0, 1}}},
	}
	if err := is.Validate(); err != nil {
		panic(err)
	}
	return is
}

// TestKernelTieBreaking pins the tie-breaking counterexample: on the
// symmetric instance every strategy, the HEF ablation included, must favor
// SI1 (the earlier candidate in canonical order) at the first tie.
func TestKernelTieBreaking(t *testing.T) {
	is := tieISA()
	reqs := reqsFor(is, 100, 100)
	avail := molecule.New(2)
	for _, name := range append(append([]string(nil), Names...), "HEF-unnorm") {
		s, _ := New(name)
		got := s.Schedule(reqs, avail)
		if len(got) == 0 {
			t.Errorf("%s: empty schedule on tie instance", name)
			continue
		}
		// Ties must resolve to the canonically first candidate: Atom 0
		// (SI1's type) loads before Atom 1 ever does.
		if got[0] != 0 {
			t.Errorf("%s: first load is Atom %d, want Atom 0 (SI1 wins ties): seq=%v", name, got[0], got)
		}
	}
}
