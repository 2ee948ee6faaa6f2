package core

import (
	"testing"

	"rispp/internal/isa"
	"rispp/internal/molecule"
	"rispp/internal/sched"
)

// staleISA builds the smallest dynamic instruction set on which a superseded
// load schedule can complete an Atom the current selection has no room for:
// hot spot 0 wants Atoms {A, B}, hot spot 1 wants the slow-loading Atom {C}.
func staleISA() *isa.ISA {
	is := &isa.ISA{
		Name: "stale",
		Atoms: []isa.AtomType{
			{ID: 0, Name: "A", BitstreamBytes: 4_000, Slices: 10, LUTs: 10, FFs: 10},
			{ID: 1, Name: "B", BitstreamBytes: 4_000, Slices: 10, LUTs: 10, FFs: 10},
			{ID: 2, Name: "C", BitstreamBytes: 2_000_000, Slices: 10, LUTs: 10, FFs: 10},
		},
		SIs: []isa.SI{
			{ID: 0, Name: "SI_AB", HotSpot: 0, SWLatency: 100,
				Molecules: []isa.Molecule{{SI: 0, Atoms: molecule.Of(1, 1, 0), Latency: 10}}},
			{ID: 1, Name: "SI_C", HotSpot: 1, SWLatency: 100,
				Molecules: []isa.Molecule{{SI: 1, Atoms: molecule.Of(0, 0, 1), Latency: 10}}},
		},
		HotSpots: []isa.HotSpot{
			{ID: 0, Name: "HS0", SIs: []isa.SIID{0}},
			{ID: 1, Name: "HS1", SIs: []isa.SIID{1}},
		},
	}
	if err := is.Validate(); err != nil {
		panic(err)
	}
	return is
}

// TestAdvanceDiscardsStaleLoad reproduces a crash the oracle's generated
// corpus uncovered: the reconfiguration port cannot abort an in-flight
// bitstream, so a hot-spot switch can complete an Atom after the new
// selection has claimed every container, leaving Install with no evictable
// victim. The Manager must discard such a stale load, not panic.
//
// Sequence on a 2-container fabric: hot spot 0 loads A and B (array full),
// hot spot 1 schedules the slow Atom C, and the application returns to hot
// spot 0 — whose selection protects both A and B — before C's bitstream
// finishes.
func TestAdvanceDiscardsStaleLoad(t *testing.T) {
	is := staleISA()
	s, err := sched.New("HEF")
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(Config{ISA: is, NumACs: 2, Scheduler: s, ForecastSeeds: []int64{1_000, 1_000}})

	m.EnterHotSpot(0, 0)
	var now int64
	for {
		at, ok := m.NextEvent()
		if !ok {
			break
		}
		m.Advance(at)
		now = at
	}
	if !m.Loaded().Equal(molecule.Of(1, 1, 0)) {
		t.Fatalf("after hot spot 0 loads: loaded = %v, want (1, 1, 0)", m.Loaded())
	}
	m.Record(0, 1_000, now) // keep the forecast alive for the re-entry
	m.LeaveHotSpot(now)

	m.EnterHotSpot(1, now)
	if at, ok := m.NextEvent(); !ok || at <= now {
		t.Fatalf("hot spot 1 did not start loading C: at=%d ok=%v", at, ok)
	}
	m.Record(1, 1_000, now+1)
	m.LeaveHotSpot(now + 1)

	// Back to hot spot 0 while C is still in flight. Its selection needs
	// (1, 1, 0) — both containers — so the completing C has nowhere to go.
	m.EnterHotSpot(0, now+2)
	at, ok := m.NextEvent()
	if !ok {
		t.Fatal("in-flight C load was lost on reschedule")
	}
	m.Advance(at) // used to panic: "no evictable Atom Container"

	if m.StaleLoads != 1 {
		t.Fatalf("StaleLoads = %d, want 1", m.StaleLoads)
	}
	if !m.Loaded().Equal(molecule.Of(1, 1, 0)) {
		t.Fatalf("stale load disturbed the array: loaded = %v, want (1, 1, 0)", m.Loaded())
	}
	if _, ok := m.NextEvent(); ok {
		t.Fatal("port still busy after the stale load drained")
	}
	if m.Evictions() != 0 {
		t.Fatalf("stale load evicted a protected Atom: %d evictions", m.Evictions())
	}
}
