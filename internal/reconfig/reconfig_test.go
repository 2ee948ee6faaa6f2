package reconfig

import (
	"math"
	"testing"

	"rispp/internal/isa"
	"rispp/internal/molecule"
)

func TestLoadCyclesCalibration(t *testing.T) {
	// The paper: avg bitstream 60,488 bytes loads in avg 874.03 µs.
	tm := DefaultTiming()
	is := isa.H264()
	var total Cycle
	for _, a := range is.Atoms {
		total += tm.LoadCycles(a.BitstreamBytes)
	}
	avgUs := tm.Microseconds(total) / float64(len(is.Atoms))
	if math.Abs(avgUs-874.03) > 1.0 {
		t.Fatalf("avg Atom reconfiguration = %.2f µs, want 874.03 ± 1", avgUs)
	}
}

func TestLoadCyclesRounding(t *testing.T) {
	tm := Timing{ClockHz: 100, BandwidthBps: 3}
	// 1 byte at 3 B/s = 0.333 s = 33.3 cycles → 33.
	if got := tm.LoadCycles(1); got != 33 {
		t.Fatalf("LoadCycles(1) = %d, want 33", got)
	}
	// 3 bytes = 1 s = 100 cycles exactly.
	if got := tm.LoadCycles(3); got != 100 {
		t.Fatalf("LoadCycles(3) = %d, want 100", got)
	}
}

func TestLoadCyclesPanicsUninitialized(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LoadCycles on zero Timing did not panic")
		}
	}()
	var tm Timing
	tm.LoadCycles(100)
}

func TestArrayInstallAndFree(t *testing.T) {
	a := NewArray(3, 4, EvictLRU, 1)
	if a.Size() != 3 || a.Free() != 3 {
		t.Fatalf("fresh array: size=%d free=%d", a.Size(), a.Free())
	}
	needed := molecule.New(4)
	a.Install(2, needed, 10)
	a.Install(2, needed, 20)
	if !a.Loaded().Equal(molecule.Of(0, 0, 2, 0)) {
		t.Fatalf("loaded = %v", a.Loaded())
	}
	if a.Free() != 1 {
		t.Fatalf("free = %d, want 1", a.Free())
	}
}

func TestArrayEvictsLRU(t *testing.T) {
	a := NewArray(2, 3, EvictLRU, 1)
	needed := molecule.New(3)
	a.Install(0, needed, 1)
	a.Install(1, needed, 2)
	// Touch Atom 0 so Atom 1 becomes LRU.
	a.TouchSlots(a.AppendTouchSlots(nil, molecule.Of(1, 0, 0)), 5)
	a.Install(2, needed, 10)
	if !a.Loaded().Equal(molecule.Of(1, 0, 1)) {
		t.Fatalf("loaded after LRU eviction = %v, want (1, 0, 1)", a.Loaded())
	}
	if a.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", a.Evictions)
	}
}

func TestArrayEvictsFIFO(t *testing.T) {
	a := NewArray(2, 3, EvictFIFO, 1)
	needed := molecule.New(3)
	a.Install(0, needed, 1)
	a.Install(1, needed, 2)
	// Touching does not matter for FIFO: Atom 0 was loaded first.
	a.TouchSlots(a.AppendTouchSlots(nil, molecule.Of(1, 0, 0)), 5)
	a.Install(2, needed, 10)
	if !a.Loaded().Equal(molecule.Of(0, 1, 1)) {
		t.Fatalf("loaded after FIFO eviction = %v, want (0, 1, 1)", a.Loaded())
	}
}

func TestArrayEvictionProtectsNeeded(t *testing.T) {
	a := NewArray(2, 3, EvictLRU, 1)
	a.Install(0, molecule.New(3), 1)
	a.Install(1, molecule.New(3), 2)
	// Atom 0 is needed, so Atom 1 must be the victim even though Atom 0 is
	// least recently used.
	needed := molecule.Of(1, 0, 1)
	a.Install(2, needed, 10)
	if !a.Loaded().Equal(molecule.Of(1, 0, 1)) {
		t.Fatalf("loaded = %v, want (1, 0, 1)", a.Loaded())
	}
}

func TestArrayEvictRandomStaysEvictable(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a := NewArray(2, 3, EvictRandom, seed)
		a.Install(0, molecule.New(3), 1)
		a.Install(1, molecule.New(3), 2)
		needed := molecule.Of(1, 0, 1)
		a.Install(2, needed, 10)
		if a.Loaded()[0] != 1 {
			t.Fatalf("seed %d: random eviction removed a needed Atom", seed)
		}
	}
}

func TestArrayCanInstall(t *testing.T) {
	a := NewArray(2, 2, EvictLRU, 1)
	if !a.CanInstall(molecule.Of(1, 1)) {
		t.Fatal("empty array not installable")
	}
	a.Install(0, molecule.New(2), 1)
	a.Install(1, molecule.New(2), 2)
	if !a.CanInstall(molecule.Of(1, 0)) {
		t.Fatal("full array with a spare Atom not installable")
	}
	if a.CanInstall(molecule.Of(1, 1)) {
		t.Fatal("fully protected array reported installable")
	}
}

func TestArrayPanicsWhenOvercommitted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Install with all Atoms needed did not panic")
		}
	}()
	a := NewArray(1, 2, EvictLRU, 1)
	a.Install(0, molecule.New(2), 1)
	a.Install(1, molecule.Of(1, 1), 2) // both types needed, nothing evictable
}

func TestPortSerializesLoads(t *testing.T) {
	is := isa.H264()
	tm := Timing{ClockHz: 1000, BandwidthBps: 1000} // 1 cycle per byte
	p := NewPort(is, tm)
	p.Schedule(0, []isa.AtomID{isa.AtomSAD16, isa.AtomQSub})

	at1, ok := p.NextCompletion()
	if !ok {
		t.Fatal("port idle after Schedule")
	}
	want1 := Cycle(is.Atom(isa.AtomSAD16).BitstreamBytes)
	if at1 != want1 {
		t.Fatalf("first completion at %d, want %d", at1, want1)
	}
	atom, at := p.Complete()
	if atom != isa.AtomSAD16 || at != want1 {
		t.Fatalf("Complete = (%v, %d)", atom, at)
	}

	at2, ok := p.NextCompletion()
	if !ok {
		t.Fatal("port idle before second load")
	}
	want2 := want1 + Cycle(is.Atom(isa.AtomQSub).BitstreamBytes)
	if at2 != want2 {
		t.Fatalf("second completion at %d, want %d (serialized)", at2, want2)
	}
	p.Complete()
	if _, ok := p.NextCompletion(); ok {
		t.Fatal("port busy after draining queue")
	}
	if p.Loads != 2 {
		t.Fatalf("Loads = %d, want 2", p.Loads)
	}
}

func TestPortRescheduleKeepsInflight(t *testing.T) {
	is := isa.H264()
	tm := Timing{ClockHz: 1000, BandwidthBps: 1000}
	p := NewPort(is, tm)
	p.Schedule(0, []isa.AtomID{isa.AtomSAD16, isa.AtomQSub, isa.AtomSAV})
	first, _ := p.NextCompletion() // starts SAD16

	// A hot-spot switch reschedules before the first load completes: the
	// in-flight SAD16 still finishes, the rest is replaced.
	p.Schedule(100, []isa.AtomID{isa.AtomClip3})
	at, ok := p.NextCompletion()
	if !ok || at != first {
		t.Fatalf("in-flight load lost on reschedule: at=%d ok=%v want %d", at, ok, first)
	}
	atom, _ := p.Complete()
	if atom != isa.AtomSAD16 {
		t.Fatalf("in-flight atom = %v, want SAD16", atom)
	}
	atom2, at2 := nextLoad(t, p)
	if atom2 != isa.AtomClip3 {
		t.Fatalf("after reschedule got %v, want Clip3", atom2)
	}
	if at2 <= first {
		t.Fatalf("rescheduled load completed at %d, not after %d", at2, first)
	}
}

func TestPortScheduleWhileIdleStartsAtNow(t *testing.T) {
	is := isa.H264()
	tm := Timing{ClockHz: 1000, BandwidthBps: 1000}
	p := NewPort(is, tm)
	p.Schedule(500, []isa.AtomID{isa.AtomRepack})
	at, ok := p.NextCompletion()
	want := Cycle(500 + is.Atom(isa.AtomRepack).BitstreamBytes)
	if !ok || at != want {
		t.Fatalf("completion at %d, want %d", at, want)
	}
}

func TestPortCompleteOnIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Complete on idle port did not panic")
		}
	}()
	NewPort(isa.H264(), DefaultTiming()).Complete()
}

func TestPortBusyCycles(t *testing.T) {
	is := isa.H264()
	tm := Timing{ClockHz: 1000, BandwidthBps: 1000}
	p := NewPort(is, tm)
	p.Schedule(0, []isa.AtomID{isa.AtomSAD16})
	p.NextCompletion()
	p.Complete()
	if p.BusyCycles != Cycle(is.Atom(isa.AtomSAD16).BitstreamBytes) {
		t.Fatalf("BusyCycles = %d", p.BusyCycles)
	}
}

func TestEvictionPolicyString(t *testing.T) {
	if EvictLRU.String() != "LRU" || EvictFIFO.String() != "FIFO" || EvictRandom.String() != "random" {
		t.Fatal("EvictionPolicy.String broken")
	}
	if EvictionPolicy(9).String() != "EvictionPolicy(9)" {
		t.Fatal("unknown policy String broken")
	}
}

func nextLoad(t *testing.T, p *Port) (isa.AtomID, Cycle) {
	t.Helper()
	if _, ok := p.NextCompletion(); !ok {
		t.Fatal("port unexpectedly idle")
	}
	return p.Complete()
}
