package oracle_test

import (
	"math/rand"
	"strings"
	"testing"

	"rispp/internal/isa"
	"rispp/internal/molecule"
	"rispp/internal/oracle"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

// TestGeneratorsProduceValidInputs pins the generator contract the whole
// corpus relies on: every seed yields a structurally valid ISA, a trace that
// validates against it, and an AC budget in the documented range.
func TestGeneratorsProduceValidInputs(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		is := oracle.GenHardware(r)
		if err := is.Validate(); err != nil {
			t.Fatalf("seed %d: invalid ISA: %v", seed, err)
		}
		tr := oracle.GenWorkload(r, is)
		if err := tr.Validate(is); err != nil {
			t.Fatalf("seed %d: invalid trace: %v", seed, err)
		}
		if acs := oracle.GenNumACs(r); acs < 0 || acs > 12 {
			t.Fatalf("seed %d: NumACs %d outside [0, 12]", seed, acs)
		}
		rot := oracle.GenRotation(r, is)
		if err := rot.Validate(is); err != nil {
			t.Fatalf("seed %d: invalid rotation: %v", seed, err)
		}
		if n := len(rot.Phases); n%len(is.HotSpots) != 0 || n < 2*len(is.HotSpots) {
			t.Fatalf("seed %d: %d rotation phases for %d hot spots, want whole rounds, at least 2", seed, n, len(is.HotSpots))
		}
		for i, p := range rot.Phases {
			if len(p.Bursts) < workload.BlockLen {
				t.Fatalf("seed %d: rotation phase %d has %d bursts, fewer than a block", seed, i, len(p.Bursts))
			}
		}
	}
}

// TestGeneratorsAreDeterministic: same seed, same draw stream — the property
// that makes every corpus failure reproducible by seed alone.
func TestGeneratorsAreDeterministic(t *testing.T) {
	gen := func() (*isa.ISA, *workload.Trace, int) {
		r := rand.New(rand.NewSource(42))
		is := oracle.GenHardware(r)
		return is, oracle.GenWorkload(r, is), oracle.GenNumACs(r)
	}
	is1, tr1, acs1 := gen()
	is2, tr2, acs2 := gen()
	if is1.Dim() != is2.Dim() || len(is1.SIs) != len(is2.SIs) || acs1 != acs2 || len(tr1.Phases) != len(tr2.Phases) {
		t.Fatal("same seed generated different configurations")
	}
	a := runSimFromParts(t, is1, tr1, acs1)
	b := runSimFromParts(t, is2, tr2, acs2)
	if a != b {
		t.Fatalf("same seed simulated to different cycle counts: %d vs %d", a, b)
	}
}

func runSimFromParts(t *testing.T, is *isa.ISA, tr *workload.Trace, acs int) int64 {
	t.Helper()
	return runSim(t, "HEF", is, acs, tr, sim.Options{}).TotalCycles
}

// TestOracleSoftwareMatchesClosedForm: the interpreter on the pure-software
// model reproduces workload.SoftwareCycles exactly.
func TestOracleSoftwareMatchesClosedForm(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		is := oracle.GenHardware(r)
		tr := oracle.GenWorkload(r, is)
		res, err := oracle.Run(tr, is, oracle.Software(is), oracle.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := tr.SoftwareCycles(is); res.TotalCycles != want {
			t.Fatalf("seed %d: oracle software run took %d cycles, closed form says %d", seed, res.TotalCycles, want)
		}
	}
}

// twoSIISA builds a minimal valid ISA that corrupt can then damage.
func twoSIISA(corrupt func(*isa.ISA)) *isa.ISA {
	is := &isa.ISA{
		Name: "tiny",
		Atoms: []isa.AtomType{
			{ID: 0, Name: "A", BitstreamBytes: 4_000, Slices: 1, LUTs: 1, FFs: 1},
			{ID: 1, Name: "B", BitstreamBytes: 4_000, Slices: 1, LUTs: 1, FFs: 1},
		},
		SIs: []isa.SI{
			{ID: 0, Name: "S0", HotSpot: 0, SWLatency: 50,
				Molecules: []isa.Molecule{{SI: 0, Atoms: molecule.Of(1, 0), Latency: 5}}},
			{ID: 1, Name: "S1", HotSpot: 0, SWLatency: 50,
				Molecules: []isa.Molecule{{SI: 1, Atoms: molecule.Of(0, 1), Latency: 5}}},
		},
		HotSpots: []isa.HotSpot{{ID: 0, Name: "H0", SIs: []isa.SIID{0, 1}}},
	}
	if corrupt != nil {
		corrupt(is)
	}
	return is
}

// TestRunRejectsInvalidInputs: malformed hardware or traces must yield
// errors from the interpreter, never panics or silent nonsense.
func TestRunRejectsInvalidInputs(t *testing.T) {
	goodTrace := &workload.Trace{Phases: []workload.Phase{
		{HotSpot: 0, Bursts: []workload.Burst{{SI: 0, Count: 1}}},
	}}
	cases := []struct {
		name string
		is   *isa.ISA
		tr   *workload.Trace
		want string
	}{
		{"unknown SI in trace", twoSIISA(nil),
			&workload.Trace{Phases: []workload.Phase{{HotSpot: 0, Bursts: []workload.Burst{{SI: 9, Count: 1}}}}},
			"SI"},
		{"negative burst count", twoSIISA(nil),
			&workload.Trace{Phases: []workload.Phase{{HotSpot: 0, Bursts: []workload.Burst{{SI: 0, Count: -1}}}}},
			"count"},
		{"SI with no hardware Molecule", twoSIISA(func(is *isa.ISA) { is.SIs[1].Molecules = nil }),
			goodTrace, "no hardware Molecule"},
		{"misnumbered SI ids", twoSIISA(func(is *isa.ISA) { is.SIs[1].ID = 0 }),
			goodTrace, "misnumbered"},
	}
	for _, c := range cases {
		_, err := oracle.Run(c.tr, c.is, oracle.Software(c.is), oracle.Options{})
		if err == nil {
			t.Errorf("%s: no error", c.name)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestDiffDetectsEveryField corrupts each field of an agreeing oracle
// Result in turn; Diff must flag all of them.
func TestDiffDetectsEveryField(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	is := oracle.GenHardware(r)
	tr := oracle.GenWorkload(r, is)
	acs := oracle.GenNumACs(r)
	fresh := func() *oracle.Result {
		ort, err := oracle.NewSystem("HEF", is, acs, tr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Run(tr, is, ort, oracle.Options{HistogramBucket: 50_000, Timeline: true})
		if err != nil {
			t.Fatal(err)
		}
		return want
	}
	got := runSim(t, "HEF", is, acs, tr, sim.Options{HistogramBucket: 50_000, Timeline: true})
	if err := oracle.Diff(fresh(), got); err != nil {
		t.Fatal(err)
	}
	someSI := isa.SIID(-1)
	for si := range fresh().Executions {
		someSI = si
		break
	}
	corruptions := map[string]func(*oracle.Result){
		"runtime name": func(w *oracle.Result) { w.Runtime = "other" },
		"total cycles": func(w *oracle.Result) { w.TotalCycles++ },
		"stall cycles": func(w *oracle.Result) { w.StallCycles++ },
		"executions":   func(w *oracle.Result) { w.Executions[someSI]++ },
		"sw/hw split": func(w *oracle.Result) {
			w.SWExecutions[someSI]++
			w.HWExecutions[someSI]--
		},
		"phase boundary": func(w *oracle.Result) { w.Phases[0].End++ },
		"timeline":       func(w *oracle.Result) { w.Timeline[0].Latency++ },
		"histogram":      func(w *oracle.Result) { w.Histogram[int(someSI)][0]++ },
	}
	for name, corrupt := range corruptions {
		want := fresh()
		corrupt(want)
		if err := oracle.Diff(want, got); err == nil {
			t.Errorf("corruption %q not detected by Diff", name)
		}
	}
}
