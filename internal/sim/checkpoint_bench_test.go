// Benchmarks of the delta-resimulation layer: recording overhead on top of
// a plain run, the cost of a runtime-free full skip, a cross-budget partial
// resume, and a resume across a trace extension. Tracked in
// BENCH_baseline.json via benchcheck.
package sim_test

import (
	"context"
	"testing"

	"rispp/internal/core"
	"rispp/internal/isa"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

func hefManagerAt(is *isa.ISA, ct *workload.Compiled, acs int) *core.Manager {
	s, _ := sched.New("HEF")
	m := core.NewManager(core.Config{ISA: is, NumACs: acs, Scheduler: s})
	m.SeedFromTrace(ct.Trace)
	return m
}

// BenchmarkRunCheckpointRecord is BenchmarkRunHEF with trail recording:
// the delta to BenchmarkRunHEF is the pure snapshot overhead (state deep
// copies at promoted phase boundaries into a reused Trail).
func BenchmarkRunCheckpointRecord(b *testing.B) {
	is, ct := compiledFrame(b, 1)
	rt := hefManagerAt(is, ct, 10)
	var res sim.Result
	var trail sim.Trail
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.RunCompiledTrail(context.Background(), ct, rt, sim.Options{}, &res, &trail); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunDeltaServe measures a full skip: serving a recorded run to
// its own budget from the trail alone — no runtime, no simulation. This is
// the steady-state cost of re-evaluating an already-explored design point.
func BenchmarkRunDeltaServe(b *testing.B) {
	is, ct := compiledFrame(b, 1)
	rt := hefManagerAt(is, ct, 10)
	var trail sim.Trail
	if err := sim.RunCompiledTrail(context.Background(), ct, rt, sim.Options{}, new(sim.Result), &trail); err != nil {
		b.Fatal(err)
	}
	var res sim.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		served, err := trail.Serve(ct, 10, sim.Options{}, &res)
		if err != nil {
			b.Fatal(err)
		}
		if !served {
			b.Fatal("trail did not serve its own budget")
		}
	}
}

// BenchmarkRunDeltaResume measures a cross-budget partial resume: a trail
// recorded at 10 ACs resumed at 9, restoring the deepest transferable
// snapshot and simulating only the remaining suffix of the trace.
func BenchmarkRunDeltaResume(b *testing.B) {
	is, ct := compiledFrame(b, 1)
	rec := hefManagerAt(is, ct, 10)
	var trail sim.Trail
	if err := sim.RunCompiledTrail(context.Background(), ct, rec, sim.Options{}, new(sim.Result), &trail); err != nil {
		b.Fatal(err)
	}
	rt := hefManagerAt(is, ct, 9)
	if served, _ := trail.Serve(ct, 9, sim.Options{}, new(sim.Result)); served {
		b.Skip("trail fully transfers to 9 ACs; no partial resume to measure")
	}
	var res sim.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		used, err := sim.ResumeCompiled(context.Background(), ct, rt, sim.Options{}, &res, &trail, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !used {
			b.Fatal("no transferable snapshot")
		}
	}
}

// BenchmarkRunDeltaExtend measures a resume across a trace extension: a
// trail recorded on the 10-frame H.264 trace resumes the 12-frame trace at
// the same 10 ACs, restoring the state after frame 10 and simulating only
// the last two frames. A change that silently disables extension turns
// this back into a 12-frame run from power-on — a jump in ns/op.
func BenchmarkRunDeltaExtend(b *testing.B) {
	is, short := compiledFrame(b, 10)
	_, long := compiledFrame(b, 12)
	var trail sim.Trail
	if err := sim.RunCompiledTrail(context.Background(), short, hefManagerAt(is, short, 10),
		sim.Options{}, new(sim.Result), &trail); err != nil {
		b.Fatal(err)
	}
	rt := hefManagerAt(is, long, 10)
	var res sim.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		used, err := sim.ResumeCompiled(context.Background(), long, rt, sim.Options{}, &res, &trail, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !used {
			b.Fatal("the 10-frame trail did not extend to the 12-frame trace")
		}
	}
}
