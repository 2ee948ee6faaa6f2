// Delta-resimulation under ISA-switching scenario workloads: trails
// recorded on a multi-app (merged-ISA) trace must serve their own budget
// field-exact — journal bytes included — refuse every other budget, and
// refuse any compiled trace that is not the very object they recorded.
package sim_test

import (
	"context"
	"testing"

	"rispp/internal/scenario"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

// TestTrailScenarioCrossBudget is TestTrailCrossBudgetEquivalence over the
// scenario library's ISA-switch workloads: every shipped multiapp scenario
// (cross-app eviction pressure, merged Atom spaces) and one control-flow
// scenario.
func TestTrailScenarioCrossBudget(t *testing.T) {
	var ins []trailInput
	for _, name := range []string{"video-crypto", "video-pip", "sdr-crypto", "early-exit-me"} {
		sc, ok := scenario.Find(name)
		if !ok {
			t.Fatalf("scenario %s missing", name)
		}
		ins = append(ins, trailInput{
			name:     name + "/",
			is:       sc.ISA(),
			tr:       sc.Trace(4, 1),
			budgets:  []int{4, 8, 12},
			recordAt: 8,
		})
	}
	testTrailBudgets(t, ins)
}

// TestTrailRefusesForeignTrace pins the trace-identity guard: a trail only
// ever serves the exact *workload.Compiled it recorded. Even a re-compiled,
// content-identical trace is refused — identity is by pointer, which is
// what the Runner's compile memo hands out — because "same phase count" is
// not "same schedule" once workloads switch ISAs mid-trace, and a silently
// wrong resume must be impossible by construction.
func TestTrailRefusesForeignTrace(t *testing.T) {
	sc, _ := scenario.Find("video-crypto")
	is := sc.ISA()
	tr := sc.Trace(3, 1)
	ct, err := workload.Compile(tr, is)
	if err != nil {
		t.Fatal(err)
	}
	// Same trace, separate compilation: equal content, different identity.
	ct2, err := workload.Compile(tr, is)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct2.Phases) != len(ct.Phases) {
		t.Fatal("recompilation changed the phase count?")
	}

	trail := new(sim.Trail)
	rt := checkpointRuntime(t, "HEF", is, tr, 8)
	if err := sim.RunCompiledTrail(context.Background(), ct, rt, sim.Options{}, new(sim.Result), trail); err != nil {
		t.Fatal(err)
	}

	if served, _ := trail.Serve(ct2, 8, sim.Options{}, new(sim.Result)); served {
		t.Error("trail served a foreign compiled trace (same content, different object)")
	}
	if used, _ := sim.ResumeCompiled(context.Background(), ct2, rt, sim.Options{}, new(sim.Result), trail, nil); used {
		t.Error("trail resumed a foreign compiled trace (same content, different object)")
	}
	// The recorded object still serves.
	if served, err := trail.Serve(ct, 8, sim.Options{}, new(sim.Result)); err != nil || !served {
		t.Errorf("trail refused its own trace: served=%v err=%v", served, err)
	}
}
