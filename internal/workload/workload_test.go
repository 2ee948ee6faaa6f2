package workload

import (
	"reflect"
	"testing"

	"rispp/internal/isa"
)

func TestH264Defaults(t *testing.T) {
	tr := H264(H264Config{})
	if got := len(tr.Phases); got != 140*3 {
		t.Fatalf("phases = %d, want 420 (ME, EE, LF per frame)", got)
	}
	order := []isa.HotSpotID{isa.HotSpotME, isa.HotSpotEE, isa.HotSpotLF}
	for i := range tr.Phases {
		if tr.Phases[i].HotSpot != order[i%3] {
			t.Fatalf("phase %d hot spot = %d, want %d", i, tr.Phases[i].HotSpot, order[i%3])
		}
	}
	if err := tr.Validate(isa.H264()); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
}

// TestMEHotSpotExecutions checks the Figure 2 calibration: 31,977 SI
// executions per Motion Estimation hot spot.
func TestMEHotSpotExecutions(t *testing.T) {
	tr := H264(H264Config{Frames: 1})
	me := &tr.Phases[0]
	if got := me.Executions(); got != 31977 {
		t.Fatalf("ME hot spot executions = %d, want 31977", got)
	}
}

// TestSoftwareCyclesCalibration checks the Section 5 calibration: encoding
// 140 frames on the plain base processor (0 Atom Containers) takes ≈7,403M
// cycles.
func TestSoftwareCyclesCalibration(t *testing.T) {
	is := isa.H264()
	tr := H264(H264Config{})
	got := tr.SoftwareCycles(is)
	const want = 7_403_000_000
	if diff := float64(got-want) / float64(want); diff > 0.005 || diff < -0.005 {
		t.Fatalf("software cycles = %d, want %d ± 0.5%% (off by %.2f%%)", got, want, diff*100)
	}
}

func TestDeterministicWithoutVariability(t *testing.T) {
	a := H264(H264Config{Frames: 3})
	b := H264(H264Config{Frames: 3, Seed: 99})
	if a.TotalExecutions() != b.TotalExecutions() {
		t.Fatal("zero-variability trace depends on seed")
	}
}

func TestSeedChangesVariableTrace(t *testing.T) {
	a := H264(H264Config{Frames: 5, MotionVariability: 0.3, Seed: 1})
	b := H264(H264Config{Frames: 5, MotionVariability: 0.3, Seed: 2})
	if a.TotalExecutions() == b.TotalExecutions() {
		t.Fatal("variability did not vary with seed")
	}
	c := H264(H264Config{Frames: 5, MotionVariability: 0.3, Seed: 1})
	if a.TotalExecutions() != c.TotalExecutions() {
		t.Fatal("same seed produced different traces")
	}
}

func TestSceneChangeRaisesMotionSIs(t *testing.T) {
	calm := H264(H264Config{Frames: 10})
	lively := H264(H264Config{Frames: 10, SceneChangeFrame: 5})
	if lively.Executions()[isa.SISATD] <= calm.Executions()[isa.SISATD] {
		t.Fatal("scene change did not raise SATD executions")
	}
	if lively.Executions()[isa.SISAD] != calm.Executions()[isa.SISAD] {
		t.Fatal("scene change altered the deterministic SAD search pattern")
	}
}

func TestExecutionsPerSI(t *testing.T) {
	tr := H264(H264Config{Frames: 1})
	ex := tr.Executions()
	mbs := 22 * 18
	want := map[isa.SIID]int64{
		isa.SISATD:     int64(16 * mbs),
		isa.SIDCT:      int64(24 * mbs),
		isa.SIHT4x4:    int64(2 * mbs),
		isa.SIHT2x2:    int64(1 * mbs),
		isa.SIMC:       int64(6 * mbs),
		isa.SIIPredHDC: int64(2 * mbs),
		isa.SIIPredVDC: int64(2 * mbs),
		isa.SILFBS4:    int64(16 * mbs),
	}
	for si, n := range want {
		if ex[si] != n {
			t.Errorf("SI %d executions = %d, want %d", si, ex[si], n)
		}
	}
	// SAD: 3/4 of macroblocks at 65, 1/4 at 64.
	wantSAD := int64(mbs/4*64 + (mbs-mbs/4)*65)
	if ex[isa.SISAD] != wantSAD {
		t.Errorf("SAD executions = %d, want %d", ex[isa.SISAD], wantSAD)
	}
}

func TestBuilder(t *testing.T) {
	tr := NewBuilder("custom").
		Phase(isa.HotSpotME, 100).
		Burst(isa.SISAD, 10, 5).
		Burst(isa.SISATD, 4, 5).
		Phase(isa.HotSpotLF, 50).
		Burst(isa.SILFBS4, 8, 2).
		Build()
	if err := tr.Validate(isa.H264()); err != nil {
		t.Fatalf("built trace invalid: %v", err)
	}
	if tr.TotalExecutions() != 22 {
		t.Fatalf("TotalExecutions = %d, want 22", tr.TotalExecutions())
	}
	if tr.Phases[0].Executions() != 14 {
		t.Fatalf("phase 0 executions = %d", tr.Phases[0].Executions())
	}
}

// TestBuildCopiesExactCapacity checks that Build hands out exact-capacity
// copies: no append slack is retained, a phase without bursts and a
// builder without phases stay nil, and building on afterwards leaves the
// built trace unchanged.
func TestBuildCopiesExactCapacity(t *testing.T) {
	if tr := NewBuilder("empty").Build(); tr.Phases != nil {
		t.Errorf("trace without phases has Phases %#v, want nil", tr.Phases)
	}
	b := NewBuilder("custom").Phase(isa.HotSpotME, 100)
	for i := 0; i < 5; i++ {
		b.Burst(isa.SISAD, 10+i, 5)
	}
	b.Phase(isa.HotSpotEE, 0).Phase(isa.HotSpotLF, 50).Burst(isa.SILFBS4, 8, 2)
	tr := b.Build()
	want := &Trace{Name: "custom", Phases: []Phase{
		{HotSpot: isa.HotSpotME, Setup: 100, Bursts: []Burst{
			{isa.SISAD, 10, 5}, {isa.SISAD, 11, 5}, {isa.SISAD, 12, 5}, {isa.SISAD, 13, 5}, {isa.SISAD, 14, 5}}},
		{HotSpot: isa.HotSpotEE},
		{HotSpot: isa.HotSpotLF, Setup: 50, Bursts: []Burst{{isa.SILFBS4, 8, 2}}},
	}}
	check := func(when string) {
		t.Helper()
		if !reflect.DeepEqual(tr, want) {
			t.Fatalf("%s: built trace = %+v, want %+v", when, tr, want)
		}
		if cap(tr.Phases) != len(tr.Phases) {
			t.Errorf("%s: Phases capacity %d, length %d", when, cap(tr.Phases), len(tr.Phases))
		}
		for i, p := range tr.Phases {
			if cap(p.Bursts) != len(p.Bursts) {
				t.Errorf("%s: phase %d Bursts capacity %d, length %d", when, i, cap(p.Bursts), len(p.Bursts))
			}
		}
		if tr.Phases[1].Bursts != nil {
			t.Errorf("%s: phase without bursts has Bursts %#v, want nil", when, tr.Phases[1].Bursts)
		}
	}
	check("after Build")
	b.Burst(isa.SILFBS4, 1, 1).Phase(isa.HotSpotME, 7).Burst(isa.SISATD, 2, 3)
	check("after building on")
}

func TestBuilderBurstWithoutPhasePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Burst before Phase did not panic")
		}
	}()
	NewBuilder("x").Burst(isa.SISAD, 1, 1)
}

func TestValidateRejectsBadTraces(t *testing.T) {
	is := isa.H264()
	bad := NewBuilder("bad").Phase(isa.HotSpotME, 0).Burst(isa.SILFBS4, 1, 0).Build()
	if bad.Validate(is) == nil {
		t.Error("Validate missed SI in wrong hot spot")
	}
	bad2 := &Trace{Phases: []Phase{{HotSpot: isa.HotSpotME, Bursts: []Burst{{SI: 99, Count: 1}}}}}
	if bad2.Validate(is) == nil {
		t.Error("Validate missed unknown SI")
	}
	bad3 := &Trace{Phases: []Phase{{HotSpot: isa.HotSpotME, Setup: -1}}}
	if bad3.Validate(is) == nil {
		t.Error("Validate missed negative setup")
	}
	bad4 := NewBuilder("bad4").Phase(isa.HotSpotME, 0).Burst(isa.SISAD, -1, 0).Build()
	if bad4.Validate(is) == nil {
		t.Error("Validate missed negative count")
	}
}

func TestSoftwareCyclesSmall(t *testing.T) {
	is := isa.H264()
	tr := NewBuilder("t").Phase(isa.HotSpotME, 100).Burst(isa.SISAD, 2, 10).Build()
	want := int64(100 + 2*(is.SI(isa.SISAD).SWLatency+10))
	if got := tr.SoftwareCycles(is); got != want {
		t.Fatalf("SoftwareCycles = %d, want %d", got, want)
	}
}

func TestGeometryPresets(t *testing.T) {
	for _, tc := range []struct {
		g   [2]int
		mbs int
	}{
		{QCIF, 99},
		{CIF, 396},
		{FourCIF, 1584},
	} {
		cfg := H264Config{Frames: 1}.WithGeometry(tc.g)
		tr := H264(cfg)
		// ME phase has 2 bursts per macroblock.
		if got := len(tr.Phases[0].Bursts) / 2; got != tc.mbs {
			t.Errorf("geometry %v: %d macroblocks, want %d", tc.g, got, tc.mbs)
		}
	}
	// Default equals CIF.
	a := H264(H264Config{Frames: 1})
	b := H264(H264Config{Frames: 1}.WithGeometry(CIF))
	if a.TotalExecutions() != b.TotalExecutions() {
		t.Error("default geometry differs from CIF preset")
	}
}
