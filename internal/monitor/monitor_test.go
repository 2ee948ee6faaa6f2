package monitor

import (
	"slices"
	"testing"

	"rispp/internal/isa"
)

// sadSeed returns a seed table for is that forecasts n SAD executions and
// leaves every other SI unseeded.
func sadSeed(is *isa.ISA, n int64) []int64 {
	seeds := make([]int64, len(is.SIs))
	seeds[isa.SISAD] = n
	return seeds
}

// TestResetReappliesSeeds: Reset returns to the seeded expectations, not
// to zero, and neither a run nor a Reset writes the shared seed table.
func TestResetReappliesSeeds(t *testing.T) {
	is := isa.H264()
	seeds := sadSeed(is, 1234)
	m := New(is, 1, seeds)
	for i := 0; i < 3; i++ {
		if got := m.Expected(isa.HotSpotME, isa.SISAD); got != 1234 {
			t.Fatalf("pass %d: seeded expectation %d, want 1234", i, got)
		}
		m.EnterHotSpot(isa.HotSpotME)
		m.Record(isa.SISAD, 9000)
		m.Record(isa.SISATD, 50)
		m.LeaveHotSpot()
		if got := m.Expected(isa.HotSpotME, isa.SISAD); got == 1234 {
			t.Fatalf("pass %d: the monitor did not learn", i)
		}
		m.Reset()
		if got := m.Expected(isa.HotSpotME, isa.SISATD); got != 0 {
			t.Fatalf("pass %d: unseeded SATD expectation %d after Reset, want 0", i, got)
		}
	}
	if want := sadSeed(is, 1234); !slices.Equal(seeds, want) {
		t.Fatalf("seed table written: %v, want %v", seeds, want)
	}
}

// TestNewRejectsMisSizedSeeds: a seed table must hold one entry per SI.
func TestNewRejectsMisSizedSeeds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted a seed table shorter than the ISA")
		}
	}()
	is := isa.H264()
	New(is, 1, make([]int64, len(is.SIs)-1))
}

func TestColdStartAdoptsFirstMeasurement(t *testing.T) {
	is := isa.H264()
	m := New(is, DefaultShift, nil)
	m.EnterHotSpot(isa.HotSpotME)
	m.Record(isa.SISAD, 26000)
	m.Record(isa.SISATD, 6000)
	m.LeaveHotSpot()
	if got := m.Expected(isa.HotSpotME, isa.SISAD); got != 26000 {
		t.Fatalf("cold-start expectation = %d, want 26000", got)
	}
	if got := m.Expected(isa.HotSpotME, isa.SISATD); got != 6000 {
		t.Fatalf("cold-start expectation = %d, want 6000", got)
	}
}

func TestSmoothingUpdate(t *testing.T) {
	is := isa.H264()
	m := New(is, 1, sadSeed(is, 1000)) // α = 0.5
	m.EnterHotSpot(isa.HotSpotME)
	m.Record(isa.SISAD, 2000)
	m.LeaveHotSpot()
	// expected += (2000-1000) >> 1 = 1500
	if got := m.Expected(isa.HotSpotME, isa.SISAD); got != 1500 {
		t.Fatalf("expectation = %d, want 1500", got)
	}
}

func TestSmoothingConvergesToSteadyState(t *testing.T) {
	is := isa.H264()
	m := New(is, 2, sadSeed(is, 0)) // α = 0.25
	for i := 0; i < 64; i++ {
		m.EnterHotSpot(isa.HotSpotME)
		m.Record(isa.SISAD, 4096)
		m.LeaveHotSpot()
	}
	got := m.Expected(isa.HotSpotME, isa.SISAD)
	if got < 4090 || got > 4096 {
		t.Fatalf("expectation after 64 constant frames = %d, want ≈4096", got)
	}
}

func TestExpectationDecaysToZero(t *testing.T) {
	is := isa.H264()
	m := New(is, 1, sadSeed(is, 100))
	for i := 0; i < 32; i++ {
		m.EnterHotSpot(isa.HotSpotME)
		m.LeaveHotSpot() // zero executions measured
	}
	if got := m.Expected(isa.HotSpotME, isa.SISAD); got != 0 {
		t.Fatalf("expectation did not decay to 0, got %d", got)
	}
}

func TestHotSpotsAreIndependent(t *testing.T) {
	is := isa.H264()
	m := New(is, 1, nil)
	m.EnterHotSpot(isa.HotSpotME)
	m.Record(isa.SISAD, 500)
	m.LeaveHotSpot()
	m.EnterHotSpot(isa.HotSpotEE)
	m.Record(isa.SIMC, 300)
	m.LeaveHotSpot()
	if got := m.Expected(isa.HotSpotEE, isa.SISAD); got != 0 {
		t.Fatalf("SAD expectation leaked into EE: %d", got)
	}
	if got := m.Expected(isa.HotSpotME, isa.SISAD); got != 500 {
		t.Fatalf("ME SAD expectation = %d", got)
	}
}

func TestEnterFinalizesPrevious(t *testing.T) {
	is := isa.H264()
	m := New(is, 1, nil)
	m.EnterHotSpot(isa.HotSpotME)
	m.Record(isa.SISAD, 100)
	m.EnterHotSpot(isa.HotSpotEE) // implicit LeaveHotSpot
	m.LeaveHotSpot()
	if got := m.Expected(isa.HotSpotME, isa.SISAD); got != 100 {
		t.Fatalf("implicit finalize lost counts: %d", got)
	}
	if m.ObservedSpots[isa.HotSpotME] != 1 || m.ObservedSpots[isa.HotSpotEE] != 1 {
		t.Fatalf("ObservedSpots = %v", m.ObservedSpots)
	}
}

func TestRecordOutsideHotSpotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Record outside hot spot did not panic")
		}
	}()
	New(isa.H264(), 1, nil).Record(isa.SISAD, 1)
}

func TestLeaveWithoutEnterIsNoop(t *testing.T) {
	m := New(isa.H264(), 1, nil)
	m.LeaveHotSpot() // must not panic
	if len(m.ObservedSpots) != 0 {
		t.Fatal("LeaveHotSpot without Enter counted a spot")
	}
}

func TestForecastOmitsZeroSIs(t *testing.T) {
	is := isa.H264()
	m := New(is, 1, nil)
	m.EnterHotSpot(isa.HotSpotEE)
	m.Record(isa.SIMC, 42)
	m.LeaveHotSpot()
	for _, si := range is.HotSpotSIs(isa.HotSpotEE) {
		want := int64(0)
		if si.ID == isa.SIMC {
			want = 42
		}
		if got := m.Expected(isa.HotSpotEE, si.ID); got != want {
			t.Fatalf("Expected(EE, %s) = %d, want %d", si.Name, got, want)
		}
	}
}

func TestMeanAbsError(t *testing.T) {
	is := isa.H264()
	m := New(is, 1, sadSeed(is, 100))
	m.EnterHotSpot(isa.HotSpotME)
	m.Record(isa.SISAD, 160)
	m.LeaveHotSpot()
	if got := m.MeanAbsError(); got != 60 {
		t.Fatalf("MeanAbsError = %v, want 60", got)
	}
	if New(is, 1, nil).MeanAbsError() != 0 {
		t.Fatal("MeanAbsError on fresh monitor != 0")
	}
}

func TestTrackingChangingWorkload(t *testing.T) {
	// The motivation for run-time adaptation: the encoding type of a Macro
	// Block depends on the motion in the input sequence. Simulate a scene
	// change and check the forecast follows within a few frames.
	is := isa.H264()
	m := New(is, 1, nil)
	for i := 0; i < 10; i++ {
		m.EnterHotSpot(isa.HotSpotME)
		m.Record(isa.SISATD, 2000)
		m.LeaveHotSpot()
	}
	for i := 0; i < 6; i++ {
		m.EnterHotSpot(isa.HotSpotME)
		m.Record(isa.SISATD, 8000) // high-motion scene
		m.LeaveHotSpot()
	}
	got := m.Expected(isa.HotSpotME, isa.SISATD)
	if got < 7800 {
		t.Fatalf("forecast lagging after scene change: %d, want ≥ 7800", got)
	}
}

func TestStringer(t *testing.T) {
	s := New(isa.H264(), 1, nil).String()
	if s == "" {
		t.Fatal("String empty")
	}
}

func TestSuccessorPrediction(t *testing.T) {
	is := isa.H264()
	m := New(is, 1, nil)
	if _, ok := m.PredictNext(isa.HotSpotME); ok {
		t.Fatal("prediction without observations")
	}
	for i := 0; i < 5; i++ {
		m.RecordTransition(isa.HotSpotME, isa.HotSpotEE)
		m.RecordTransition(isa.HotSpotEE, isa.HotSpotLF)
		m.RecordTransition(isa.HotSpotLF, isa.HotSpotME)
	}
	m.RecordTransition(isa.HotSpotME, isa.HotSpotLF) // one outlier
	next, ok := m.PredictNext(isa.HotSpotME)
	if !ok || next != isa.HotSpotEE {
		t.Fatalf("PredictNext(ME) = %v, %v", next, ok)
	}
	next, ok = m.PredictNext(isa.HotSpotEE)
	if !ok || next != isa.HotSpotLF {
		t.Fatalf("PredictNext(EE) = %v, %v", next, ok)
	}
}

func TestSuccessorPredictionTieBreaksDeterministically(t *testing.T) {
	is := isa.H264()
	m := New(is, 1, nil)
	m.RecordTransition(isa.HotSpotME, isa.HotSpotLF)
	m.RecordTransition(isa.HotSpotME, isa.HotSpotEE)
	next, ok := m.PredictNext(isa.HotSpotME)
	if !ok || next != isa.HotSpotEE {
		t.Fatalf("tie should pick the lower hot-spot id, got %v", next)
	}
}
