// Benchmarks of the simulator hot path. BenchmarkRun is the headline
// number tracked in EXPERIMENTS.md ("Hot-path optimisation"): the
// steady-state compiled-trace run path must stay at 0 allocs/op.
//
// Run with: go test -bench . -benchmem ./internal/sim
package sim_test

import (
	"context"
	"io"
	"testing"

	"rispp/internal/core"
	"rispp/internal/isa"
	"rispp/internal/molen"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

func compiledFrame(b testing.TB, frames int) (*isa.ISA, *workload.Compiled) {
	b.Helper()
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: frames})
	ct, err := workload.Compile(tr, is)
	if err != nil {
		b.Fatal(err)
	}
	return is, ct
}

func hefManager(is *isa.ISA, ct *workload.Compiled) *core.Manager {
	s, _ := sched.New("HEF")
	return core.NewManager(core.Config{ISA: is, NumACs: 10, Scheduler: s, ForecastSeeds: ct.Seeds})
}

// BenchmarkRun measures the steady-state run path: a compiled one-frame
// H.264 trace executed into a reused Result with no journal and no
// histogram. This is the loop design-space exploration pays per point;
// it must report 0 allocs/op.
func BenchmarkRun(b *testing.B) {
	is, ct := compiledFrame(b, 1)
	rt := sim.Software(is)
	var res sim.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.RunCompiled(context.Background(), ct, rt, sim.Options{}, &res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(res.TotalCycles), "simulated-cycles/op")
}

// BenchmarkRunHEF is BenchmarkRun against the full RISPP run-time system
// (HEF at 10 ACs); remaining allocations come from the run-time manager's
// own per-phase scheduling work, not the simulator.
func BenchmarkRunHEF(b *testing.B) {
	is, ct := compiledFrame(b, 1)
	rt := hefManager(is, ct)
	var res sim.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.RunCompiled(context.Background(), ct, rt, sim.Options{}, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunJournal measures the journal hot path: the hand-rolled
// buffered event encoder against a discarding writer.
func BenchmarkRunJournal(b *testing.B) {
	is, ct := compiledFrame(b, 1)
	rt := hefManager(is, ct)
	opts := sim.Options{Journal: io.Discard}
	var res sim.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.RunCompiled(context.Background(), ct, rt, opts, &res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunOneShot measures the convenience API (compile + allocate per
// call) for comparison with the steady-state path. Its allocations are the
// one-shot contract itself, not leakage from the hot path: Run hands a
// fresh caller-owned *Result back (so it cannot come from a pool — 3
// allocations: the struct, the fused dense backing of counters and
// scratch, phase stats) and compiles the trace per call as documented
// (the rest: the compiled trace, its phase list, the per-SI latency
// tables, one SI list per hot spot, the block summaries).
// Callers that care run workload.Compile once and use RunCompiled, which
// is allocation-free in the steady state — the gap between this benchmark
// and BenchmarkRun is exactly what that buys. benchcheck gates both the
// ns/op and the allocation count here, so any new one-shot allocation
// still fails the build.
func BenchmarkRunOneShot(b *testing.B) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	rt := sim.Software(is)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr, is, rt, sim.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompile measures lowering a one-frame trace.
func BenchmarkCompile(b *testing.B) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Compile(tr, is); err != nil {
			b.Fatal(err)
		}
	}
}

// namedRuntime pairs a run-time system with its paper name for the
// reuse gates; the list covers all six systems of the paper comparison.
type namedRuntime struct {
	name string
	rt   sim.Runtime
}

func allRuntimes(tb testing.TB, is *isa.ISA, ct *workload.Compiled) []namedRuntime {
	tb.Helper()
	var out []namedRuntime
	for _, name := range sched.Names {
		s, err := sched.New(name)
		if err != nil {
			tb.Fatal(err)
		}
		m := core.NewManager(core.Config{ISA: is, NumACs: 10, Scheduler: s, ForecastSeeds: ct.Seeds})
		out = append(out, namedRuntime{name, m})
	}
	mo := molen.New(molen.Config{ISA: is, NumACs: 10, ForecastSeeds: ct.Seeds})
	out = append(out, namedRuntime{"Molen", mo})
	out = append(out, namedRuntime{"software", sim.Software(is)})
	return out
}

// BenchmarkRunReused measures the reuse path open to direct callers of the
// simulator: construct each run-time system once, then Reset+run per
// iteration (RunCompiled resets the runtime itself). Steady state must be
// 0 allocs/op for all six systems.
func BenchmarkRunReused(b *testing.B) {
	is, ct := compiledFrame(b, 1)
	for _, nr := range allRuntimes(b, is, ct) {
		b.Run(nr.name, func(b *testing.B) {
			var res sim.Result
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sim.RunCompiled(context.Background(), ct, nr.rt, sim.Options{}, &res); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRunReusedZeroAllocs is the allocation regression gate for the reused
// one-shot path: after a warm-up run sizes every arena, Reset+run of each
// of the six run-time systems must not allocate at all.
func TestRunReusedZeroAllocs(t *testing.T) {
	is, ct := compiledFrame(t, 1)
	for _, nr := range allRuntimes(t, is, ct) {
		t.Run(nr.name, func(t *testing.T) {
			var res sim.Result
			for i := 0; i < 2; i++ { // warm up arenas and Result
				if err := sim.RunCompiled(context.Background(), ct, nr.rt, sim.Options{}, &res); err != nil {
					t.Fatal(err)
				}
			}
			avg := testing.AllocsPerRun(20, func() {
				if err := sim.RunCompiled(context.Background(), ct, nr.rt, sim.Options{}, &res); err != nil {
					t.Fatal(err)
				}
			})
			if avg != 0 {
				t.Errorf("steady-state Reset+run of %s allocates %.1f times per run, want 0", nr.name, avg)
			}
		})
	}
}

// TestRunZeroAllocs is the allocation regression gate for the steady-state
// run path: after the first run warms the Result, further runs of a
// compiled trace must not allocate at all.
func TestRunZeroAllocs(t *testing.T) {
	is, ct := compiledFrame(t, 1)
	rt := sim.Software(is)
	var res sim.Result
	if err := sim.RunCompiled(context.Background(), ct, rt, sim.Options{}, &res); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if err := sim.RunCompiled(context.Background(), ct, rt, sim.Options{}, &res); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state RunCompiled allocates %.1f times per run, want 0", avg)
	}
}

// TestRunJournalAllocsBounded keeps the journal path's per-run allocations
// at a small constant (pooled encoder state, independent of event count).
func TestRunJournalAllocsBounded(t *testing.T) {
	is, ct := compiledFrame(t, 1)
	rt := hefManager(is, ct)
	opts := sim.Options{Journal: io.Discard}
	var res sim.Result
	if err := sim.RunCompiled(context.Background(), ct, rt, opts, &res); err != nil {
		t.Fatal(err)
	}
	base := testing.AllocsPerRun(10, func() {
		if err := sim.RunCompiled(context.Background(), ct, rt, sim.Options{}, &res); err != nil {
			t.Fatal(err)
		}
	})
	withJournal := testing.AllocsPerRun(10, func() {
		if err := sim.RunCompiled(context.Background(), ct, rt, opts, &res); err != nil {
			t.Fatal(err)
		}
	})
	// The journal writes hundreds of events per frame; its cost must not
	// scale with them. Allow a small constant for pool churn.
	if withJournal-base > 4 {
		t.Errorf("journal adds %.1f allocs per run (base %.1f), want ≤ 4", withJournal-base, base)
	}
}
