// Checkpoint-equivalence gate: a run served or resumed from a recorded
// delta-resimulation trail (sim.Trail) must be field-exact identical to a
// fresh from-power-on run at the same budget — including the JSONL journal
// byte for byte — across the oracle's seeded generators and all six
// run-time systems. A second corpus pins the scheduler kernels against the
// choose-based reference loop on the same generated hardware.
package oracle_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rispp/internal/isa"
	"rispp/internal/molecule"
	"rispp/internal/oracle"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

const checkpointSeeds = 60 // × systems × budgets ≈ 1.4k comparisons

// TestCheckpointEquivalenceGeneratedCorpus records a trail at one budget
// and satisfies neighboring budgets through the delta machinery — full
// skip where the trail transfers end to end, partial resume otherwise,
// with the resumed runtime deliberately dirtied first (the runtime-pool
// pattern) — comparing every artifact against a fresh run.
func TestCheckpointEquivalenceGeneratedCorpus(t *testing.T) {
	for seed := int64(0); seed < checkpointSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		is := oracle.GenHardware(r)
		tr := oracle.GenWorkload(r, is)
		acs := 1 + oracle.GenNumACs(r) // record at ≥1 so down-transfer exists
		ct, err := workload.Compile(tr, is)
		if err != nil {
			t.Fatal(err)
		}
		budgets := []int{acs, acs - 1, acs + 2, 2 * acs}

		for _, sys := range oracle.Systems {
			trail := new(sim.Trail)
			var recJournal bytes.Buffer
			rt := newRuntime(t, sys, is, acs, tr).(sim.Checkpointable)
			if err := sim.RunCompiledTrail(context.Background(), ct, rt,
				sim.Options{Journal: &recJournal}, new(sim.Result), trail); err != nil {
				t.Fatal(err)
			}

			for _, budget := range budgets {
				var wantJournal, gotJournal bytes.Buffer
				var want, got sim.Result
				if err := sim.RunCompiled(context.Background(), ct,
					newRuntime(t, sys, is, budget, tr),
					sim.Options{Journal: &wantJournal}, &want); err != nil {
					t.Fatal(err)
				}

				served, err := trail.Serve(ct, budget, sim.Options{Journal: &gotJournal}, &got)
				if err != nil {
					t.Fatal(err)
				}
				if !served {
					// Partial resume onto a dirtied runtime, recording the
					// new budget's trail alongside.
					crt := newRuntime(t, sys, is, budget, tr).(sim.Checkpointable)
					if err := sim.RunCompiled(context.Background(), ct, crt, sim.Options{}, new(sim.Result)); err != nil {
						t.Fatal(err)
					}
					rec := new(sim.Trail)
					used, err := sim.ResumeCompiled(context.Background(), ct, crt,
						sim.Options{Journal: &gotJournal}, &got, trail, rec)
					if err != nil {
						t.Fatal(err)
					}
					if !used {
						if err := sim.RunCompiledTrail(context.Background(), ct, crt,
							sim.Options{Journal: &gotJournal}, &got, rec); err != nil {
							t.Fatal(err)
						}
					}
					// The freshly recorded trail must now serve its own
					// budget exactly.
					var skipJournal bytes.Buffer
					var skip sim.Result
					served2, err := rec.Serve(ct, budget, sim.Options{Journal: &skipJournal}, &skip)
					if err != nil {
						t.Fatal(err)
					}
					if !served2 {
						t.Fatalf("seed %d, system %s, budget %d: re-recorded trail cannot serve its own budget",
							seed, sys, budget)
					}
					if err := oracle.DiffResults(&want, &skip); err != nil {
						t.Errorf("seed %d, system %s, budget %d (re-serve): %v", seed, sys, budget, err)
					}
					if !bytes.Equal(wantJournal.Bytes(), skipJournal.Bytes()) {
						t.Errorf("seed %d, system %s, budget %d (re-serve): journal bytes differ", seed, sys, budget)
					}
				}
				if err := oracle.DiffResults(&want, &got); err != nil {
					t.Errorf("seed %d, system %s, budget %d (recorded at %d): %v", seed, sys, budget, acs, err)
				}
				if !bytes.Equal(wantJournal.Bytes(), gotJournal.Bytes()) {
					t.Errorf("seed %d, system %s, budget %d (recorded at %d): journal bytes differ between fresh and delta run",
						seed, sys, budget, acs)
				}
			}
		}
	}
}

// TestCheckpointExtensionGeneratedCorpus pins delta resumes across trace
// extensions: per seed the generated trace is cut at a random phase k, a
// trail is recorded on the cut trace (runtime seeded from the cut trace),
// and the full trace is resumed from it at neighboring budgets onto a
// dirtied runtime seeded from the full trace. Every result must equal a
// fresh run of the full trace field for field, journal bytes included.
// Draws in which a hot spot first appears after k must be refused — their
// forecast seeds differ — and their fallback recording run must be exact
// too.
func TestCheckpointExtensionGeneratedCorpus(t *testing.T) {
	extended, refused := 0, 0
	for seed := int64(0); seed < checkpointSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		is := oracle.GenHardware(r)
		tr := oracle.GenWorkload(r, is)
		acs := 1 + oracle.GenNumACs(r)
		if len(tr.Phases) < 2 {
			continue // no strict prefix to cut
		}
		k := 1 + r.Intn(len(tr.Phases)-1)
		cut := &workload.Trace{Name: tr.Name, Phases: tr.Phases[:k]}
		seen := map[isa.HotSpotID]bool{}
		for _, p := range cut.Phases {
			seen[p.HotSpot] = true
		}
		newSpot := false
		for _, p := range tr.Phases[k:] {
			newSpot = newSpot || !seen[p.HotSpot]
		}
		ctCut, err := workload.Compile(cut, is)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := workload.Compile(tr, is)
		if err != nil {
			t.Fatal(err)
		}

		for _, sys := range oracle.Systems {
			trail := new(sim.Trail)
			rt := newRuntime(t, sys, is, acs, cut).(sim.Checkpointable)
			if err := sim.RunCompiledTrail(context.Background(), ctCut, rt,
				sim.Options{Journal: new(bytes.Buffer)}, new(sim.Result), trail); err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int{acs, acs - 1, acs + 2} {
				label := func() string {
					return fmt.Sprintf("seed %d, system %s, cut %d/%d, budget %d (recorded at %d)",
						seed, sys, k, len(tr.Phases), budget, acs)
				}
				var wantJournal, gotJournal bytes.Buffer
				var want, got sim.Result
				if err := sim.RunCompiled(context.Background(), ct,
					newRuntime(t, sys, is, budget, tr),
					sim.Options{Journal: &wantJournal}, &want); err != nil {
					t.Fatal(err)
				}
				if served, _ := trail.Serve(ct, budget, sim.Options{Journal: &gotJournal}, &got); served {
					t.Fatalf("%s: a trail served a trace it did not record", label())
				}
				crt := newRuntime(t, sys, is, budget, tr).(sim.Checkpointable)
				if err := sim.RunCompiled(context.Background(), ct, crt, sim.Options{}, new(sim.Result)); err != nil {
					t.Fatal(err)
				}
				rec := new(sim.Trail)
				used, err := sim.ResumeCompiled(context.Background(), ct, crt,
					sim.Options{Journal: &gotJournal}, &got, trail, rec)
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case newSpot && used:
					t.Fatalf("%s: extended although a hot spot first appears after the prefix", label())
				case !newSpot && budget == acs && !used:
					t.Fatalf("%s: refused a verified extension at the recorded budget", label())
				}
				if used {
					extended++
				} else {
					refused++
					if err := sim.RunCompiledTrail(context.Background(), ct, crt,
						sim.Options{Journal: &gotJournal}, &got, rec); err != nil {
						t.Fatal(err)
					}
				}
				if err := oracle.DiffResults(&want, &got); err != nil {
					t.Errorf("%s: %v", label(), err)
				}
				if !bytes.Equal(wantJournal.Bytes(), gotJournal.Bytes()) {
					t.Errorf("%s: journal bytes differ between fresh and extended run", label())
				}
				var skipJournal bytes.Buffer
				var skip sim.Result
				if served, err := rec.Serve(ct, budget, sim.Options{Journal: &skipJournal}, &skip); err != nil || !served {
					t.Fatalf("%s: the full trace's trail cannot serve its own budget (served=%v err=%v)", label(), served, err)
				}
				if err := oracle.DiffResults(&want, &skip); err != nil {
					t.Errorf("%s (re-serve): %v", label(), err)
				}
				if !bytes.Equal(wantJournal.Bytes(), skipJournal.Bytes()) {
					t.Errorf("%s (re-serve): journal bytes differ", label())
				}
			}
		}
	}
	if extended == 0 || refused == 0 {
		t.Errorf("corpus exercised %d extensions and %d refusals; want both", extended, refused)
	}
	t.Logf("%d extended resumes, %d refusals with exact fallback runs", extended, refused)
}

// TestKernelEquivalenceGeneratedCorpus pins the specialized scheduler
// kernels against the reference loop on the oracle's generated hardware —
// a richer Molecule-library distribution than the sched package's own
// random ISAs.
func TestKernelEquivalenceGeneratedCorpus(t *testing.T) {
	names := []string{"FSFR", "ASF", "SJF", "HEF", "HEF-unnorm"}
	for seed := int64(0); seed < checkpointSeeds; seed++ {
		r := rand.New(rand.NewSource(seed + 7919))
		is := oracle.GenHardware(r)
		dim := len(is.Atoms)

		var reqs []sched.Request
		for j := range is.SIs {
			si := &is.SIs[j]
			reqs = append(reqs, sched.Request{
				SI:       si,
				Selected: si.Molecules[r.Intn(len(si.Molecules))],
				Expected: int64(r.Intn(5000)),
			})
		}
		avail := molecule.New(dim)
		for a := 0; a < dim; a++ {
			avail[a] = r.Intn(3)
		}

		for _, name := range names {
			s, err := sched.New(name)
			if err != nil {
				t.Fatal(err)
			}
			got := sched.ScheduleInto(s, sched.NewScratch(), reqs, avail)
			want := sched.ScheduleReference(s, sched.NewScratch(), reqs, avail)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d, %s: kernel %v != reference %v", seed, name, got, want)
			}
			if err := sched.Valid(got, reqs, avail); err != nil {
				t.Errorf("seed %d, %s: invalid kernel schedule: %v", seed, name, err)
			}
		}
	}
}
