package molen

import (
	"testing"

	"rispp/internal/isa"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

func seeded(t *testing.T, acs int, tr *workload.Trace) *Runtime {
	t.Helper()
	is := isa.H264()
	return New(Config{ISA: is, NumACs: acs, ForecastSeeds: tr.ForecastSeeds(is)})
}

func TestNewValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New without ISA did not panic")
		}
	}()
	New(Config{})
}

func TestNoIntermediateUpgrades(t *testing.T) {
	// The defining Molen property: an SI runs either in software or at the
	// full latency of its single implementation — nothing in between.
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 2})
	rt := New(Config{ISA: is, NumACs: 12, ForecastSeeds: tr.ForecastSeeds(is)})
	res, err := sim.Run(tr, is, rt, sim.Options{Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	// Each SI may only ever show its software latency or one selected
	// Molecule latency per hot-spot visit; count distinct latencies per SI
	// and verify each equals SW or some Molecule of the SI.
	for _, e := range res.Timeline.Events {
		si := is.SI(isa.SIID(e.SI))
		if e.Latency == si.SWLatency {
			continue
		}
		found := false
		for _, m := range si.Molecules {
			if m.Latency == e.Latency {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("SI %q ran at latency %d: neither software nor a Molecule", si.Name, e.Latency)
		}
	}
}

func TestSIBecomesAvailableOnlyWhenComplete(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	rt := seeded(t, 12, tr)
	rt.EnterHotSpot(isa.HotSpotME, 0)
	// Advance through all but the last chunk of the first unit: latency
	// must stay software.
	sw := is.SI(isa.SISAD).SWLatency
	for i := 0; ; i++ {
		if rt.Latency(isa.SISAD) != sw && rt.Loads == 0 {
			t.Fatal("SAD accelerated before its unit completed")
		}
		if rt.Loads > 0 {
			break
		}
		at, ok := rt.NextEvent()
		if !ok {
			t.Fatal("queue drained without completing a unit")
		}
		rt.Advance(at)
	}
	if rt.Latency(isa.SISAD) == sw {
		t.Fatal("SAD still software after its unit completed")
	}
}

func TestCapacityRespected(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 3})
	for _, acs := range []int{2, 5, 9, 14, 24} {
		rt := seeded(t, acs, tr)
		if _, err := sim.Run(tr, is, rt, sim.Options{}); err != nil {
			t.Fatalf("ACs=%d: %v", acs, err)
		}
		if got := rt.resident(); got > acs {
			t.Fatalf("ACs=%d: resident %d units exceed capacity", acs, got)
		}
	}
}

func TestCompleteUnitsSurviveWhenCapacityAllows(t *testing.T) {
	// With a fabric big enough for everything, frame 2 must not reload
	// anything: reconfigurations happen once.
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 3})
	rt := seeded(t, 100, tr)
	if _, err := sim.Run(tr, is, rt, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if rt.Loads != 9 { // one unit per SI, loaded exactly once
		t.Fatalf("unit loads = %d, want 9 (one per SI)", rt.Loads)
	}
}

func TestRotationForcesReloads(t *testing.T) {
	// With a small fabric the ME→EE→LF rotation must displace units and
	// reload them every frame — the inefficiency RISPP addresses.
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 4})
	rt := seeded(t, 10, tr)
	if _, err := sim.Run(tr, is, rt, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if rt.Loads < 12 {
		t.Fatalf("unit loads = %d; rotation should force reloads", rt.Loads)
	}
}

func TestMolenSlowerThanRISPPNeverFaster(t *testing.T) {
	// Table 2's premise: the Molen-like system is never faster than RISPP
	// with any scheduler, given the same hardware.
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 3})
	for _, acs := range []int{6, 10, 16} {
		rt := seeded(t, acs, tr)
		res, err := sim.Run(tr, is, rt, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sw := tr.SoftwareCycles(is)
		if res.TotalCycles > sw {
			t.Fatalf("ACs=%d: Molen slower than pure software (%d > %d)", acs, res.TotalCycles, sw)
		}
	}
}

func TestSelectAdditiveRespectsBudget(t *testing.T) {
	is := isa.H264()
	for _, acs := range []int{0, 1, 3, 7, 12, 30} {
		tr := workload.H264(workload.H264Config{Frames: 1})
		rt := New(Config{ISA: is, NumACs: acs, ForecastSeeds: tr.ForecastSeeds(is)})
		rt.EnterHotSpot(isa.HotSpotEE, 0)
		total := rt.resident()
		if total > acs {
			t.Fatalf("ACs=%d: selection reserved %d containers", acs, total)
		}
	}
}

func TestResetRestoresSeedsAndState(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	rt := seeded(t, 10, tr)
	if _, err := sim.Run(tr, is, rt, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	rt.Reset()
	if rt.Loads != 0 || rt.AtomLoads != 0 || rt.resident() != 0 {
		t.Fatal("Reset incomplete")
	}
	if rt.mon.Expected(isa.HotSpotME, isa.SISAD) == 0 {
		t.Fatal("seeds lost on Reset")
	}
}

func TestAdvanceOnIdlePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance on idle port did not panic")
		}
	}()
	New(Config{ISA: isa.H264(), NumACs: 4}).Advance(0)
}

func TestName(t *testing.T) {
	if New(Config{ISA: isa.H264()}).Name() != "Molen" {
		t.Fatal("Name broken")
	}
}
