package oracle_test

import (
	"fmt"
	"math/rand"
	"testing"

	"rispp/internal/isa"
	"rispp/internal/oracle"
	"rispp/internal/scenario"
	"rispp/internal/workload"
)

// seedTally is the reference forecast-seed derivation: the map tally the
// run-time systems once ran on every build, kept here to check the dense
// tables against. Each hot spot's first phase is tallied per SI and the
// tallies are installed in turn; SIs the trace never seeds are absent,
// which means 0.
func seedTally(tr *workload.Trace) map[isa.SIID]int64 {
	seen := make(map[isa.HotSpotID]bool)
	out := make(map[isa.SIID]int64)
	for i := range tr.Phases {
		p := &tr.Phases[i]
		if seen[p.HotSpot] {
			continue
		}
		seen[p.HotSpot] = true
		per := make(map[isa.SIID]int64)
		for _, b := range p.Bursts {
			per[b.SI] += int64(b.Count)
		}
		for si, n := range per {
			out[si] = n
		}
	}
	return out
}

// sameTally reports whether two reference tallies seed identically.
func sameTally(a, b map[isa.SIID]int64) bool {
	for si, n := range a {
		if b[si] != n {
			return false
		}
	}
	for si, n := range b {
		if a[si] != n {
			return false
		}
	}
	return true
}

// checkSeeds compares Compiled.Seeds and Trace.ForecastSeeds with the
// reference tally of tr.
func checkSeeds(is *isa.ISA, tr *workload.Trace) error {
	want := seedTally(tr)
	for si := range want {
		if int(si) < 0 || int(si) >= len(is.SIs) {
			return fmt.Errorf("tally seeds SI %d outside the ISA's %d SIs", si, len(is.SIs))
		}
	}
	ct, err := workload.Compile(tr, is)
	if err != nil {
		return err
	}
	if len(ct.Seeds) != len(is.SIs) || cap(ct.Seeds) != len(ct.Seeds) {
		return fmt.Errorf("Compiled.Seeds has length %d, capacity %d; want %d, %d",
			len(ct.Seeds), cap(ct.Seeds), len(is.SIs), len(is.SIs))
	}
	helper := tr.ForecastSeeds(is)
	if len(helper) != len(is.SIs) {
		return fmt.Errorf("ForecastSeeds has %d entries, want %d", len(helper), len(is.SIs))
	}
	for i := range is.SIs {
		w := want[isa.SIID(i)]
		if ct.Seeds[i] != w || helper[i] != w {
			return fmt.Errorf("SI %d (%s): Compiled.Seeds %d, ForecastSeeds %d, tally %d",
				i, is.SIs[i].Name, ct.Seeds[i], helper[i], w)
		}
	}
	return nil
}

// firstPhaseEdges reports whether some hot spot's first phase in tr is
// empty, and whether one holds a zero-count burst.
func firstPhaseEdges(tr *workload.Trace) (empty, zeroBurst bool) {
	seen := make(map[isa.HotSpotID]bool)
	for _, p := range tr.Phases {
		if seen[p.HotSpot] {
			continue
		}
		seen[p.HotSpot] = true
		empty = empty || len(p.Bursts) == 0
		for _, b := range p.Bursts {
			zeroBurst = zeroBurst || b.Count == 0
		}
	}
	return empty, zeroBurst
}

// TestForecastSeedsMatchTally checks the one seed derivation, through
// Compile and through Trace.ForecastSeeds, against the reference tally on
// H.264 traces across seeds, frame counts, motion and scene changes, on
// every shipped scenario, and on 600 generated traces (GenWorkload and
// GenRotation), whose first phases include empty ones and zero-count
// bursts.
func TestForecastSeedsMatchTally(t *testing.T) {
	h264 := isa.H264()
	for _, seed := range []int64{0, 1, 7} {
		for _, frames := range []int{1, 2, 5} {
			for _, motion := range []float64{0, 0.3, 1} {
				for _, scene := range []int{0, 2} {
					cfg := workload.H264Config{Frames: frames, Seed: seed, MotionVariability: motion, SceneChangeFrame: scene}
					if err := checkSeeds(h264, workload.H264(cfg)); err != nil {
						t.Errorf("H.264 %+v: %v", cfg, err)
					}
				}
			}
		}
	}
	for _, name := range scenario.Names() {
		sc, _ := scenario.Find(name)
		for _, d := range []struct {
			frames int
			seed   int64
		}{{1, 0}, {3, 1}, {6, 2}} {
			if err := checkSeeds(sc.ISA(), sc.Trace(d.frames, d.seed)); err != nil {
				t.Errorf("scenario %s, %d frames, seed %d: %v", name, d.frames, d.seed, err)
			}
		}
	}
	traces, empty, zero := 0, 0, 0
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		is := oracle.GenHardware(r)
		for _, tr := range []*workload.Trace{oracle.GenWorkload(r, is), oracle.GenRotation(r, is)} {
			traces++
			e, z := firstPhaseEdges(tr)
			if e {
				empty++
			}
			if z {
				zero++
			}
			if err := checkSeeds(is, tr); err != nil {
				t.Errorf("seed %d, %s trace: %v", seed, tr.Name, err)
			}
		}
	}
	if empty == 0 || zero == 0 {
		t.Errorf("generated corpus reached %d empty first phases and %d first phases with a zero-count burst; want both", empty, zero)
	}
	t.Logf("%d generated traces: %d with an empty first phase, %d with a zero-count burst in one", traces, empty, zero)
}
