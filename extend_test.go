package rispp

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"rispp/internal/explore"
	"rispp/internal/reconfig"
	"rispp/internal/scenario"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

// extendSpec is a frame sweep over all six systems: each scheduler's
// 2- and 3-frame points can resume from its shorter sibling's trail.
func extendSpec() explore.Spec {
	return explore.Spec{
		Schedulers:    []string{"FSFR", "ASF", "SJF", "HEF", "Molen", "software"},
		ACs:           []int{5, 10, 24},
		Frames:        []int{1, 2, 3},
		SeedForecasts: []bool{true},
	}
}

// TestDeltaExtendSweepMatchesDisabled runs a Frames {1,2,3} sweep through
// the grouped engine wiring (Run + RunSet, as Explorer builds it) and
// requires record-identical output to a DisableDelta sweep, with longer
// traces resumed from shorter ones' trails. A second pass with journals
// requires the journal bytes of every extended point to match too. Each
// eviction policy runs as its own base config: an extension restores a
// state after evictions, so the random policy's RNG must resume where the
// recorded run left it. A base Bus is the fourth input: it stretches every
// generated trace and the reconfiguration timing, and trails must extend
// across the stretched traces just the same.
func TestDeltaExtendSweepMatchesDisabled(t *testing.T) {
	for _, pol := range []reconfig.EvictionPolicy{reconfig.EvictLRU, reconfig.EvictFIFO, reconfig.EvictRandom} {
		t.Run(pol.String(), func(t *testing.T) { testDeltaExtendSweep(t, Config{Eviction: pol}) })
	}
	t.Run("bus", func(t *testing.T) { testDeltaExtendSweep(t, Config{Bus: contendedBus()}) })
}

func testDeltaExtendSweep(t *testing.T, base Config) {
	spec := extendSpec()
	plainBase := base
	plainBase.DisableDelta = true
	want, err := Explorer(plainBase, 2, nil).Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	rn := NewRunner(base)
	eng := &explore.Engine{Workers: 2, Run: rn.EngineRun(), RunSet: rn.EngineRunSet()}
	got, err := eng.Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Errorf("delta sweep records differ from DisableDelta records:\nwant %+v\ngot  %+v", want.Records, got.Records)
	}
	if _, resumes, _ := rn.DeltaStats(); resumes == 0 {
		t.Error("no point resumed from a shorter trace's trail")
	}

	pts, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	plain, delta := NewRunner(plainBase), NewRunner(base)
	for _, p := range pts { // scheduler, budget, then ascending frames
		var wantJ, gotJ bytes.Buffer
		w, g := new(sim.Result), new(sim.Result)
		if err := plain.RunPoint(context.Background(), p, sim.Options{Journal: &wantJ}, w); err != nil {
			t.Fatal(err)
		}
		if err := delta.RunPoint(context.Background(), p, sim.Options{Journal: &gotJ}, g); err != nil {
			t.Fatal(err)
		}
		if g.TotalCycles != w.TotalCycles || g.StallCycles != w.StallCycles ||
			!reflect.DeepEqual(g.Executions(), w.Executions()) || !reflect.DeepEqual(g.Phases, w.Phases) {
			t.Errorf("%s: journaled delta run differs from a fresh run", p.Key())
		}
		if !bytes.Equal(gotJ.Bytes(), wantJ.Bytes()) {
			t.Errorf("%s: journal bytes differ (%d vs %d bytes)", p.Key(), gotJ.Len(), wantJ.Len())
		}
	}
	// Every RISPP and Molen 2- and 3-frame point extends its shorter sibling
	// at the same budget. Software ignores the budget: its first budget
	// extends 1 → 2 → 3 frames, and the later budgets are served from
	// those trails outright.
	if _, resumes, _ := delta.DeltaStats(); resumes < 5*3*2+2 {
		t.Errorf("journaled pass resumed %d points, want ≥ %d (5 systems × 3 budgets × 2, plus software's 2)", resumes, 5*3*2+2)
	}
}

// TestScenarioExtensionRefusal runs every shipped scenario's shorter and
// longer expansion back to back on one Runner. Where sim's prefix check
// accepts the pair the longer run resumes; where it refuses (a hot spot
// first appearing after the prefix) the Runner records from power-on.
// Either way every result equals a fresh run.
func TestScenarioExtensionRefusal(t *testing.T) {
	const seed, f1, f2 = 0, 2, 4
	refusedSome := false
	for _, name := range scenario.Names() {
		sc, _ := scenario.Find(name)
		ctS, err := workload.Compile(sc.Trace(f1, seed), sc.ISA())
		if err != nil {
			t.Fatal(err)
		}
		ctL, err := workload.Compile(sc.Trace(f2, seed), sc.ISA())
		if err != nil {
			t.Fatal(err)
		}
		extends := ctL.Extends(ctS)
		refusedSome = refusedSome || !extends
		for _, sys := range []string{"FSFR", "ASF", "SJF", "HEF", "Molen", "software"} {
			rn := NewRunner(Config{})
			for _, frames := range []int{f1, f2} {
				p := explore.Point{Scheduler: sys, NumACs: 8, Frames: frames, Seed: seed,
					SeedForecasts: true, Scenario: name}
				got, want := new(sim.Result), new(sim.Result)
				if err := rn.RunPoint(context.Background(), p, sim.Options{}, got); err != nil {
					t.Fatal(err)
				}
				if err := NewRunner(Config{DisableDelta: true}).RunPoint(context.Background(), p, sim.Options{}, want); err != nil {
					t.Fatal(err)
				}
				if got.TotalCycles != want.TotalCycles || got.StallCycles != want.StallCycles ||
					!reflect.DeepEqual(got.Executions(), want.Executions()) || !reflect.DeepEqual(got.Phases, want.Phases) {
					t.Errorf("%s/%s/%d frames: delta run differs from a fresh run", name, sys, frames)
				}
			}
			_, resumes, _ := rn.DeltaStats()
			switch {
			case !extends && resumes != 0:
				t.Errorf("%s/%s: resumed across a refused extension", name, sys)
			case extends && resumes != 1:
				t.Errorf("%s/%s: %d resumes across a verified extension, want 1", name, sys, resumes)
			}
		}
	}
	if !refusedSome {
		t.Errorf("no shipped scenario refused extension at seed %d, %d → %d frames; the refusal path went untested", seed, f1, f2)
	}
}
