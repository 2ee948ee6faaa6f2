package estimate

import (
	"strings"
	"testing"

	"rispp/internal/core"
	"rispp/internal/isa"
	"rispp/internal/reconfig"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

func TestProfileTrace(t *testing.T) {
	tr := workload.H264(workload.H264Config{Frames: 4})
	p := ProfileTrace(tr)
	if p.Occurrences[isa.HotSpotME] != 4 || p.Occurrences[isa.HotSpotEE] != 4 || p.Occurrences[isa.HotSpotLF] != 4 {
		t.Fatalf("occurrences = %v", p.Occurrences)
	}
	// ME averages match the Figure 2 calibration.
	me := p.PerSpot[isa.HotSpotME]
	if me[isa.SISAD]+me[isa.SISATD] != 31977 {
		t.Fatalf("ME average executions = %d, want 31977", me[isa.SISAD]+me[isa.SISATD])
	}
	if p.Gap[isa.SISAD] != 8 {
		t.Fatalf("profiled gap = %d, want 8", p.Gap[isa.SISAD])
	}
	if p.Setup[isa.HotSpotME] != 61000 {
		t.Fatalf("profiled setup = %d", p.Setup[isa.HotSpotME])
	}
}

func TestBoundsOrdering(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 5})
	for _, acs := range []int{5, 10, 16, 24} {
		b := ForTrace(is, tr, acs, reconfig.DefaultTiming())
		if !(b.Optimistic <= b.Ramp && b.Ramp <= b.Pessimistic) {
			t.Fatalf("ACs=%d: bounds out of order: %+v", acs, b)
		}
		if b.Optimistic <= 0 {
			t.Fatalf("ACs=%d: degenerate optimistic bound", acs)
		}
	}
}

// TestBoundsBracketSimulation validates the whole analytic model against
// the cycle simulator: the simulated RISPP/HEF execution falls between the
// optimistic bound and (with a small modelling margin) the pessimistic
// bound.
func TestBoundsBracketSimulation(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 10})
	for _, acs := range []int{6, 10, 16, 24} {
		b := ForTrace(is, tr, acs, reconfig.DefaultTiming())
		s, _ := sched.New("HEF")
		m := core.NewManager(core.Config{ISA: is, NumACs: acs, Scheduler: s, ForecastSeeds: tr.ForecastSeeds(is)})
		res, err := sim.Run(tr, is, m, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.TotalCycles) < 0.98*float64(b.Optimistic) {
			t.Errorf("ACs=%d: simulation %d below optimistic bound %d", acs, res.TotalCycles, b.Optimistic)
		}
		if float64(res.TotalCycles) > 1.10*float64(b.Pessimistic) {
			t.Errorf("ACs=%d: simulation %d above pessimistic bound %d", acs, res.TotalCycles, b.Pessimistic)
		}
	}
}

func TestSpeedupEstimates(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 3})
	tm := reconfig.DefaultTiming()
	// The ramp estimate is conservative (it assumes a full reload every
	// hot-spot entry) but must still predict a clear win.
	for _, acs := range []int{5, 24} {
		if s := SpeedupEstimate(is, tr, acs, tm); s < 1.5 {
			t.Errorf("ACs=%d: ramp speedup estimate %.2f, want > 1.5", acs, s)
		}
	}
	// The steady-state (optimistic) bound improves monotonically with the
	// fabric: bigger Molecules get selected.
	b5 := ForTrace(is, tr, 5, tm)
	b24 := ForTrace(is, tr, 24, tm)
	if b24.Optimistic >= b5.Optimistic {
		t.Fatalf("optimistic bound did not improve: 5 ACs %d, 24 ACs %d", b5.Optimistic, b24.Optimistic)
	}
}

func TestBoundsStringer(t *testing.T) {
	b := Bounds{Optimistic: 5_000_000, Ramp: 7_000_000, Pessimistic: 9_000_000}
	if s := b.String(); !strings.Contains(s, "optimistic 5M") {
		t.Fatalf("String = %q", s)
	}
}
