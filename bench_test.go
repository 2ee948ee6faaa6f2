// Benchmark harness regenerating every table and figure of the paper's
// evaluation (Section 5). Run with:
//
//	go test -bench=. -benchmem
//
// Each paper artifact has one benchmark; custom metrics report the headline
// numbers (speedups, cycle counts) so the paper-vs-measured comparison of
// EXPERIMENTS.md can be reproduced from the bench output alone.
package rispp_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"rispp"
	"rispp/internal/experiments"
	"rispp/internal/explore"
	"rispp/internal/hwmodel"
	"rispp/internal/isa"
	"rispp/internal/membus"
	"rispp/internal/molecule"
	"rispp/internal/reconfig"
	"rispp/internal/sched"
	"rispp/internal/workload"
)

// paperParams reproduces the full evaluation setup (140 CIF frames,
// 5–24 ACs). The sweeps take a few seconds per iteration.
var paperParams = experiments.Params{}

// BenchmarkTable1SILibrary regenerates Table 1: the H.264 SI inventory.
func BenchmarkTable1SILibrary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table1()
	}
}

// BenchmarkFig2UpgradeVsNoUpgrade regenerates Figure 2: SAD+SATD executions
// per 100K cycles in the ME hot spot with and without stepwise SI upgrade.
func BenchmarkFig2UpgradeVsNoUpgrade(b *testing.B) {
	var r *experiments.Fig2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig2()
	}
	b.ReportMetric(float64(r.With.TotalCycles), "cycles-with-upgrade")
	b.ReportMetric(float64(r.Without.TotalCycles), "cycles-no-upgrade")
	b.ReportMetric(float64(r.Without.TotalCycles)/float64(r.With.TotalCycles), "speedup")
}

// BenchmarkFig4ScheduleComparison regenerates Figure 4: Molecule
// availability under a good vs. a naive Atom schedule.
func BenchmarkFig4ScheduleComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Fig4()
	}
}

// BenchmarkFig7SchedulerSweep regenerates Figure 7: execution time of the
// four SI schedulers encoding 140 CIF frames over 5–24 Atom Containers.
func BenchmarkFig7SchedulerSweep(b *testing.B) {
	var r *experiments.Fig7Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig7(paperParams)
	}
	b.ReportMetric(float64(r.Cycles["HEF"][24])/1e6, "HEF-Mcycles-24ACs")
	b.ReportMetric(float64(r.Cycles["FSFR"][7])/1e6, "FSFR-Mcycles-7ACs")
}

// BenchmarkTable2Speedups regenerates Table 2: HEF vs ASF, ASF vs Molen and
// HEF vs Molen speedups over the AC range.
func BenchmarkTable2Speedups(b *testing.B) {
	var r *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		r = experiments.Table2(paperParams)
	}
	last := len(r.ACs) - 1
	b.ReportMetric(r.HEFvsMolen[last], "HEF-vs-Molen-24ACs")
	b.ReportMetric(r.AvgHEFvsMolen, "HEF-vs-Molen-avg")
	b.ReportMetric(r.HEFvsASF[last], "HEF-vs-ASF-24ACs")
	b.ReportMetric(r.ASFvsMolen[last], "ASF-vs-Molen-24ACs")
}

// BenchmarkFig8HEFDetail regenerates Figure 8: the HEF scheduler's latency
// steps and execution rates over the first two hot spots at 10 ACs.
func BenchmarkFig8HEFDetail(b *testing.B) {
	var r *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		r = experiments.Fig8()
	}
	b.ReportMetric(float64(r.Result.TotalCycles), "cycles")
}

// BenchmarkTable3Synthesis regenerates Table 3: the structural hardware
// cost of the HEF scheduler vs. the average Atom.
func BenchmarkTable3Synthesis(b *testing.B) {
	var r hwmodel.Resources
	for i := 0; i < b.N; i++ {
		r = hwmodel.HEFScheduler().Resources()
	}
	b.ReportMetric(float64(r.Slices), "slices")
	b.ReportMetric(float64(r.Mults), "MULT18X18")
	b.ReportMetric(r.ClockDelayNs, "clock-ns")
}

// BenchmarkSoftwareBaseline regenerates the Section 5 zero-AC data point
// (7,403M cycles for 140 frames).
func BenchmarkSoftwareBaseline(b *testing.B) {
	var cycles int64
	for i := 0; i < b.N; i++ {
		res, _ := experiments.SoftwareBaseline(paperParams)
		cycles = res.TotalCycles
	}
	b.ReportMetric(float64(cycles)/1e6, "Mcycles")
}

// ---------------------------------------------------------------------------
// Micro-benchmarks of the run-time components themselves (the parts that
// execute on the embedded processor / in the HEF hardware block).

func meRequests(b *testing.B) ([]sched.Request, molecule.Vector) {
	b.Helper()
	is := isa.H264()
	var reqs []sched.Request
	for _, si := range is.HotSpotSIs(isa.HotSpotME) {
		exp := int64(25641)
		if si.ID == isa.SISATD {
			exp = 6336
		}
		reqs = append(reqs, sched.Request{SI: si, Selected: si.Fastest(), Expected: exp})
	}
	return reqs, molecule.New(is.Dim())
}

// BenchmarkHEFSchedule measures one complete HEF scheduling decision for
// the ME hot spot — the work the 12-state FSM performs at hot-spot entry.
func BenchmarkHEFSchedule(b *testing.B) {
	reqs, avail := meRequests(b)
	s, _ := sched.New("HEF")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.Schedule(reqs, avail)
	}
}

// BenchmarkAllSchedulers compares the software cost of the four strategies.
func BenchmarkAllSchedulers(b *testing.B) {
	reqs, avail := meRequests(b)
	for _, name := range sched.Names {
		s, _ := sched.New(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = s.Schedule(reqs, avail)
			}
		})
	}
}

// BenchmarkMoleculeOps measures the lattice primitives the scheduler
// hardware implements.
func BenchmarkMoleculeOps(b *testing.B) {
	x := molecule.Of(4, 0, 8, 2, 2, 0, 4, 2, 2, 0, 4, 4)
	y := molecule.Of(0, 4, 4, 2, 2, 2, 0, 0, 2, 2, 0, 4)
	b.Run("Sup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = x.Sup(y)
		}
	})
	b.Run("Monus", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = x.Sub(y)
		}
	})
	b.Run("Determinant", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = x.Determinant()
		}
	})
}

// BenchmarkSimulatorThroughput measures simulated cycles per wall second:
// one frame of the full system at 10 ACs.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr := workload.H264(workload.H264Config{Frames: 1})
	res, err := rispp.Run(rispp.Config{Scheduler: "HEF", NumACs: 10, Workload: tr, SeedForecasts: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rispp.Run(rispp.Config{Scheduler: "HEF", NumACs: 10, Workload: tr, SeedForecasts: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TotalCycles), "simulated-cycles/op")
}

// BenchmarkWorkloadGeneration measures building the 140-frame CIF trace.
func BenchmarkWorkloadGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = workload.H264(workload.H264Config{})
	}
}

// ---------------------------------------------------------------------------
// Ablation benches: design choices DESIGN.md calls out.

// BenchmarkAblationEviction compares Atom Container eviction policies on a
// short encode (10 ACs, HEF).
func BenchmarkAblationEviction(b *testing.B) {
	tr := workload.H264(workload.H264Config{Frames: 10})
	for _, pol := range []reconfig.EvictionPolicy{reconfig.EvictLRU, reconfig.EvictFIFO, reconfig.EvictRandom} {
		b.Run(pol.String(), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cfg := rispp.Config{Scheduler: "HEF", NumACs: 10, Workload: tr, SeedForecasts: true}
				cfg.Eviction = pol
				res, err := rispp.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.TotalCycles
			}
			b.ReportMetric(float64(cycles)/1e6, "Mcycles")
		})
	}
}

// BenchmarkAblationMonitorShift sweeps the forecast smoothing α = 2^-shift
// on a varying-motion workload.
func BenchmarkAblationMonitorShift(b *testing.B) {
	tr := workload.H264(workload.H264Config{Frames: 10, MotionVariability: 0.3, Seed: 7, SceneChangeFrame: 5})
	for _, shift := range []uint{0, 1, 2, 4} {
		b.Run(string(rune('0'+shift)), func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cfg := rispp.Config{Scheduler: "HEF", NumACs: 10, Workload: tr, SeedForecasts: true, MonitorShift: shift}
				res, err := rispp.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.TotalCycles
			}
			b.ReportMetric(float64(cycles)/1e6, "Mcycles")
		})
	}
}

// BenchmarkAblationSelection compares greedy vs. exhaustive Molecule
// selection (ME hot spot only, where the exhaustive search is tractable).
func BenchmarkAblationSelection(b *testing.B) {
	full := workload.H264(workload.H264Config{Frames: 4})
	var phases []workload.Phase
	for _, p := range full.Phases {
		if p.HotSpot == isa.HotSpotME {
			phases = append(phases, p)
		}
	}
	tr := &workload.Trace{Name: "me-only", Phases: phases}
	for _, mode := range []struct {
		name string
		ex   bool
	}{{"greedy", false}, {"exhaustive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				cfg := rispp.Config{Scheduler: "HEF", NumACs: 8, Workload: tr, SeedForecasts: true, ExhaustiveSelection: mode.ex}
				res, err := rispp.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.TotalCycles
			}
			b.ReportMetric(float64(cycles)/1e6, "Mcycles")
		})
	}
}

// BenchmarkAblationHEFvsOptimal measures HEF's clairvoyant-rate cost against
// the exhaustive optimal schedule on the ME hot spot.
func BenchmarkAblationHEFvsOptimal(b *testing.B) {
	reqs, avail := meRequests(b)
	is := isa.H264()
	cost := func(a isa.AtomID) int64 { return int64(is.Atom(a).BitstreamBytes) }
	hef, _ := sched.New("HEF")
	e := sched.Exhaustive{Cost: cost}
	var gap float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, optCost, err := e.Schedule(reqs, avail)
		if err != nil {
			b.Fatal(err)
		}
		hefCost := sched.EvalCost(hef.Schedule(reqs, avail), reqs, avail, cost)
		gap = float64(hefCost) / float64(optCost)
	}
	b.ReportMetric(gap, "HEF/optimal-cost-ratio")
}

// BenchmarkDivisionFreeBenefit compares the cross-multiplied benefit
// comparison (what the hardware implements) against the float division.
func BenchmarkDivisionFreeBenefit(b *testing.B) {
	e1, d1, c1 := int64(25641), 1096, 3
	e2, d2, c2 := int64(6336), 1548, 5
	b.Run("integer-cross-multiply", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			if e1*int64(d1)*int64(c2) > e2*int64(d2)*int64(c1) {
				n++
			}
		}
		_ = n
	})
	b.Run("float-division", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			if sched.BenefitFloat(e1, d1, 0, c1) > sched.BenefitFloat(e2, d2, 0, c2) {
				n++
			}
		}
		_ = n
	})
}

// BenchmarkAblationPrefetch measures reconfiguration prefetching in the
// regime where it can act: 4CIF frames (hot spots outlast reload windows)
// on a 40-container fabric (slack beyond each selection).
func BenchmarkAblationPrefetch(b *testing.B) {
	tr := workload.H264(workload.H264Config{Frames: 4, WidthMB: 44, HeightMB: 36})
	for _, mode := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := rispp.Run(rispp.Config{Scheduler: "HEF", NumACs: 40, Workload: tr,
					SeedForecasts: true, Prefetch: mode.on})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.TotalCycles
			}
			b.ReportMetric(float64(cycles)/1e6, "Mcycles")
		})
	}
}

// BenchmarkAblationBenefitNormalization compares the paper's benefit metric
// (improvement per additionally required Atom, Figure 6 line 20) against
// the unnormalized greedy that chases raw improvement.
func BenchmarkAblationBenefitNormalization(b *testing.B) {
	tr := workload.H264(workload.H264Config{Frames: 10})
	for _, name := range []string{"HEF", "HEF-unnorm"} {
		b.Run(name, func(b *testing.B) {
			var cycles int64
			for i := 0; i < b.N; i++ {
				res, err := rispp.Run(rispp.Config{Scheduler: name, NumACs: 14, Workload: tr, SeedForecasts: true})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.TotalCycles
			}
			b.ReportMetric(float64(cycles)/1e6, "Mcycles")
		})
	}
}

// BenchmarkAblationReconfigBandwidth sweeps the reconfiguration-port
// bandwidth around the prototype's SelectMap figure (the paper quotes
// 66 MB/s): slower ports lengthen the upgrade windows, which is where the
// HEF scheduler earns its advantage over the baseline.
func BenchmarkAblationReconfigBandwidth(b *testing.B) {
	tr := workload.H264(workload.H264Config{Frames: 10})
	for _, mbps := range []int64{33, 66, 132} {
		timing := reconfig.Timing{ClockHz: reconfig.DefaultClockHz, BandwidthBps: mbps * 1_000_000}
		b.Run(fmt.Sprintf("%dMBps", mbps), func(b *testing.B) {
			var hef, molen int64
			for i := 0; i < b.N; i++ {
				rh, err := rispp.Run(rispp.Config{Scheduler: "HEF", NumACs: 14, Workload: tr, SeedForecasts: true, Timing: timing})
				if err != nil {
					b.Fatal(err)
				}
				rm, err := rispp.Run(rispp.Config{Scheduler: "Molen", NumACs: 14, Workload: tr, SeedForecasts: true, Timing: timing})
				if err != nil {
					b.Fatal(err)
				}
				hef, molen = rh.TotalCycles, rm.TotalCycles
			}
			b.ReportMetric(float64(hef)/1e6, "HEF-Mcycles")
			b.ReportMetric(float64(molen)/float64(hef), "HEF-vs-Molen")
		})
	}
}

// BenchmarkAblationBusContention runs the encoder under shared-memory-bus
// contention (internal/membus): the busier the core's own memory traffic,
// the less bandwidth the reconfiguration DMA gets, the longer the upgrade
// windows — and the more the SI scheduler matters.
func BenchmarkAblationBusContention(b *testing.B) {
	tr := workload.H264(workload.H264Config{Frames: 10})
	for _, load := range []float64{0.0, 0.5, 0.9} {
		b.Run(fmt.Sprintf("cpuload=%.1f", load), func(b *testing.B) {
			var hef, molen int64
			for i := 0; i < b.N; i++ {
				bus := &membus.Config{Policy: membus.CPUPriority, CPULoad: load}
				rh, err := rispp.Run(rispp.Config{Scheduler: "HEF", NumACs: 14, Workload: tr, SeedForecasts: true, Bus: bus})
				if err != nil {
					b.Fatal(err)
				}
				bus2 := &membus.Config{Policy: membus.CPUPriority, CPULoad: load}
				rm, err := rispp.Run(rispp.Config{Scheduler: "Molen", NumACs: 14, Workload: tr, SeedForecasts: true, Bus: bus2})
				if err != nil {
					b.Fatal(err)
				}
				hef, molen = rh.TotalCycles, rm.TotalCycles
			}
			b.ReportMetric(float64(hef)/1e6, "HEF-Mcycles")
			b.ReportMetric(float64(molen)/float64(hef), "HEF-vs-Molen")
		})
	}
}

// BenchmarkExploreParallel runs the Figure-7 scheduler × ACs grid through
// the design-space exploration engine sequentially (-j 1) and on the full
// worker pool, measuring the wall-clock scaling of internal/explore. The
// simulator is deterministic, so both variants compute identical results.
func BenchmarkExploreParallel(b *testing.B) {
	tr := workload.H264(workload.H264Config{Frames: 5})
	spec := explore.Spec{Schedulers: sched.Names, ACs: paperACs(), Frames: []int{5}}
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			var total int64
			for i := 0; i < b.N; i++ {
				eng := rispp.Explorer(rispp.Config{Workload: tr}, workers, nil)
				res, err := eng.Execute(context.Background(), spec, nil)
				if err != nil {
					b.Fatal(err)
				}
				if err := res.FirstErr(); err != nil {
					b.Fatal(err)
				}
				total = 0
				for _, rec := range res.Records {
					total += rec.TotalCycles
				}
			}
			b.ReportMetric(float64(len(spec.Schedulers)*len(spec.ACs)), "points")
			b.ReportMetric(float64(total)/1e9, "Gcycles-simulated")
		})
	}
}

// paperACs returns the paper's 5..24 Atom-Container range.
func paperACs() []int {
	var acs []int
	for n := 5; n <= 24; n++ {
		acs = append(acs, n)
	}
	return acs
}
