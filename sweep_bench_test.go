// Benchmarks and equivalence tests of the sweep path: BenchmarkSweep drives
// a paper-grid slice (all six run-time systems × several AC budgets) through
// the engine with its RunSet grouping wired, one shared Runner serving every
// point from its trail; BenchmarkSweepResim simulates the same grid on
// pooled runtimes; BenchmarkSweepPerPoint drives it through a fresh Runner
// per iteration without grouping, so every point pays runtime construction.
package rispp

import (
	"context"
	"reflect"
	"testing"

	"rispp/internal/explore"
	"rispp/internal/sched"
	"rispp/internal/sim"
)

// sweepSpec is a slice of the paper's Figure 7 grid: every run-time system
// (four RISPP schedulers, the Molen baseline, plain software) over four
// Atom-Container budgets on a one-frame trace. Small enough for -count=5
// baselining, large enough that per-point construction cost dominates the
// unpooled path.
func sweepSpec() explore.Spec {
	return explore.Spec{
		Schedulers:    append(append([]string{}, sched.Names...), "Molen", "software"),
		ACs:           []int{5, 10, 15, 24},
		Frames:        []int{1},
		SeedForecasts: []bool{true},
	}
}

func executeSweep(b *testing.B, eng *explore.Engine) *explore.Result {
	res, err := eng.Execute(context.Background(), sweepSpec(), nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkSweep measures the full sweep stack: one shared Runner with the
// trace memo, the runtime pool, and delta-resimulation trails. The warmup
// sweep records one trail per budget-axis class, so every point of the
// timed iterations is served from a trail without simulating — the
// steady-state cost of re-evaluating an already-explored grid. Single
// worker, so ns/op is comparable to BenchmarkSweepPerPoint rather than a
// measure of parallelism.
func BenchmarkSweep(b *testing.B) {
	rn := NewRunner(Config{})
	eng := &explore.Engine{Workers: 1, Run: rn.EngineRun(), RunSet: rn.EngineRunSet()}
	executeSweep(b, eng) // warm the trace memo and record the trails
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		executeSweep(b, eng)
	}
	b.StopTimer()
	serves, resumes, records := rn.DeltaStats()
	b.ReportMetric(float64(serves)/float64(serves+resumes+records), "delta-serve-rate")
}

// BenchmarkSweepResim is BenchmarkSweep with delta-resimulation disabled:
// every point of every iteration simulates on a pooled runtime, one point
// after another. The gap to BenchmarkSweep is what the trail layer buys on
// repeated grids; the gap to BenchmarkSweepPerPoint is what the runtime
// pool buys on cold ones.
func BenchmarkSweepResim(b *testing.B) {
	rn := NewRunner(Config{DisableDelta: true})
	eng := &explore.Engine{Workers: 1, Run: rn.EngineRun(), RunSet: rn.EngineRunSet()}
	executeSweep(b, eng) // warm the trace memo and the runtime pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		executeSweep(b, eng)
	}
	b.StopTimer()
	hits, misses := rn.RuntimePoolStats()
	b.ReportMetric(float64(hits)/float64(hits+misses), "pool-hit-rate")
}

// BenchmarkSweepPerPoint measures the same grid without RunSet grouping and
// with a fresh Runner per iteration, so every point pays runtime
// construction. (Each grid point occurs once per iteration, so the fresh
// Runner's pool never hits — exactly the pre-pool behavior; the one-frame
// trace compile the fresh memo repays per iteration is noise against 24
// simulations.)
func BenchmarkSweepPerPoint(b *testing.B) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rn := NewRunner(Config{})
		eng := &explore.Engine{Workers: 1, Run: rn.EngineRun()}
		executeSweep(b, eng)
	}
}

// TestSweepGroupedMatchesPerPoint pins that the engine's RunSet grouping is
// invisible in the output: a grouped sweep must produce record-identical
// output to the per-point path, cold and again once the Runner is warm
// (trails recorded, runtimes pooled). The inputs cover every way a Runner
// runs a point — delta-resimulation on and off, artifact collection that
// bypasses the trail layer, a scenario workload with its own ISA — and the
// oracle-checked engine.
func TestSweepGroupedMatchesPerPoint(t *testing.T) {
	scenarioSpec := explore.Spec{
		Schedulers:    []string{"FSFR", "HEF", "Molen"},
		ACs:           []int{6, 10},
		Frames:        []int{3},
		Seeds:         []int64{1},
		SeedForecasts: []bool{true},
		Scenarios:     []string{"early-exit-me"},
	}
	for _, tc := range []struct {
		name    string
		base    Config
		spec    explore.Spec
		checked bool
	}{
		{name: "delta", spec: sweepSpec()},
		{name: "no-delta", base: Config{DisableDelta: true}, spec: sweepSpec()},
		{name: "collect", base: Config{Collect: sim.Options{HistogramBucket: 100_000, Timeline: true}}, spec: sweepSpec()},
		{name: "scenario", spec: scenarioSpec},
		{name: "checked", spec: sweepSpec(), checked: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			engine := func(grouped bool) *explore.Engine {
				if tc.checked {
					eng := CheckedExplorer(tc.base, 2, nil)
					if !grouped {
						eng.RunSet = nil
					}
					return eng
				}
				rn := NewRunner(tc.base)
				eng := &explore.Engine{Workers: 2, Run: rn.EngineRun()}
				if grouped {
					eng.RunSet = rn.EngineRunSet()
				}
				return eng
			}
			want, err := engine(false).Execute(context.Background(), tc.spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := want.FirstErr(); err != nil {
				t.Fatal(err)
			}
			grpEng := engine(true)
			for pass := 0; pass < 2; pass++ {
				got, err := grpEng.Execute(context.Background(), tc.spec, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want.Records, got.Records) {
					t.Errorf("pass %d: grouped sweep records differ from per-point records:\nwant %+v\ngot  %+v",
						pass, want.Records, got.Records)
				}
			}
		})
	}
}

// TestRuntimePoolReuse pins the pool mechanics: the first run builds a
// runtime and every identical run after it reuses that one.
func TestRuntimePoolReuse(t *testing.T) {
	// Delta-resimulation would serve the repeat runs without touching the
	// pool; disable it so the pool mechanics stay observable.
	rn := NewRunner(Config{DisableDelta: true})
	p := explore.Point{Scheduler: "HEF", NumACs: 10, Frames: 1, SeedForecasts: true}
	res := rn.GetResult()
	defer rn.PutResult(res)
	for i := 0; i < 3; i++ {
		if err := rn.RunPoint(context.Background(), p, sim.Options{}, res); err != nil {
			t.Fatal(err)
		}
	}
	hits, misses := rn.RuntimePoolStats()
	if misses != 1 || hits != 2 {
		t.Errorf("pool stats after 3 identical runs: hits=%d misses=%d, want 2/1", hits, misses)
	}
}
