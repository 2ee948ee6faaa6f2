// Checkpoint-equivalence gate: a run served or extended from a recorded
// delta-resimulation trail (sim.Trail) must be field-exact identical to a
// fresh from-power-on run at the recorded budget — including the JSONL
// journal byte for byte — and every other budget must be refused, across
// the oracle's seeded generators and all six run-time systems. A third
// corpus pins the scheduler kernels against the choose-based reference
// loop on the same generated hardware.
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

const checkpointSeeds = 60

// TestCheckpointEquivalenceGeneratedCorpus records a trail per generated
// configuration and requires it to serve its own budget field-exact against
// a fresh run, journal bytes included, and to be refused at the
// neighbouring budgets by Serve, ResumeDepth and ResumeCompiled.
func TestCheckpointEquivalenceGeneratedCorpus(t *testing.T) {
	for seed := int64(0); seed < checkpointSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		is := oracle.GenHardware(r)
		tr := oracle.GenWorkload(r, is)
		acs := 1 + oracle.GenNumACs(r) // record at ≥1 so acs-1 is a legal neighbour
		ct, err := workload.Compile(tr, is)
		if err != nil {
			t.Fatal(err)
		}

		for _, sys := range oracle.Systems {
			rt := newRuntime(t, sys, is, acs, tr).(sim.Checkpointable)
			at := rt.ContainerBudget() // software has no containers: 0
			trail := new(sim.Trail)
			if err := sim.RunCompiledTrail(context.Background(), ct, rt,
				sim.Options{Journal: new(bytes.Buffer)}, new(sim.Result), trail); err != nil {
				t.Fatal(err)
			}

			var wantJournal, gotJournal bytes.Buffer
			var want, got sim.Result
			if err := sim.RunCompiled(context.Background(), ct,
				newRuntime(t, sys, is, at, tr),
				sim.Options{Journal: &wantJournal}, &want); err != nil {
				t.Fatal(err)
			}
			served, err := trail.Serve(ct, at, sim.Options{Journal: &gotJournal}, &got)
			if err != nil || !served {
				t.Fatalf("seed %d, system %s: Serve = %v, %v at the recorded budget %d", seed, sys, served, err, at)
			}
			if err := oracle.DiffResults(&want, &got); err != nil {
				t.Errorf("seed %d, system %s, budget %d: %v", seed, sys, at, err)
			}
			if !bytes.Equal(wantJournal.Bytes(), gotJournal.Bytes()) {
				t.Errorf("seed %d, system %s, budget %d: journal bytes differ between fresh and served run", seed, sys, at)
			}

			for _, budget := range []int{acs - 1, acs + 2, 2 * acs} {
				if budget == at {
					continue
				}
				if served, _ := trail.Serve(ct, budget, sim.Options{}, new(sim.Result)); served {
					t.Errorf("seed %d, system %s: trail recorded at %d served budget %d", seed, sys, at, budget)
				}
				if d := trail.ResumeDepth(ct, budget, sim.Options{}); d != 0 {
					t.Errorf("seed %d, system %s: trail recorded at %d has ResumeDepth %d at budget %d", seed, sys, at, d, budget)
				}
				crt := newRuntime(t, sys, is, budget, tr).(sim.Checkpointable)
				if crt.ContainerBudget() != budget {
					continue // software: every runtime is at budget 0
				}
				if used, _ := sim.ResumeCompiled(context.Background(), ct, crt,
					sim.Options{}, new(sim.Result), trail, nil); used {
					t.Errorf("seed %d, system %s: trail recorded at %d resumed budget %d", seed, sys, at, budget)
				}
			}
		}
	}
}

// TestCheckpointExtensionGeneratedCorpus pins delta resumes across trace
// extensions: per seed the generated trace is cut at a random phase k, a
// trail is recorded on the cut trace (runtime seeded from the cut trace),
// and the full trace is resumed from it onto a dirtied runtime seeded from
// the full trace. At the recorded budget the resume must be field-exact
// against a fresh run of the full trace, journal bytes included; the
// neighbouring budgets must be refused. Draws in which a hot spot first
// appears after k must be refused too — their forecast seeds differ. Every
// refused run falls back to a recording run, which must be exact as well.
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
			at := rt.ContainerBudget() // software has no containers: 0
			if err := sim.RunCompiledTrail(context.Background(), ctCut, rt,
				sim.Options{Journal: new(bytes.Buffer)}, new(sim.Result), trail); err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int{acs, acs - 1, acs + 2} {
				crt := newRuntime(t, sys, is, budget, tr).(sim.Checkpointable)
				b := crt.ContainerBudget()
				label := func() string {
					return fmt.Sprintf("seed %d, system %s, cut %d/%d, budget %d (recorded at %d)",
						seed, sys, k, len(tr.Phases), b, at)
				}
				if budget != at {
					if d := trail.ResumeDepth(ct, budget, sim.Options{}); d != 0 {
						t.Fatalf("%s: ResumeDepth %d at budget %d", label(), d, budget)
					}
				}
				var wantJournal, gotJournal bytes.Buffer
				var want, got sim.Result
				if err := sim.RunCompiled(context.Background(), ct,
					newRuntime(t, sys, is, budget, tr),
					sim.Options{Journal: &wantJournal}, &want); err != nil {
					t.Fatal(err)
				}
				if served, _ := trail.Serve(ct, b, sim.Options{Journal: &gotJournal}, &got); served {
					t.Fatalf("%s: a trail served a trace it did not record", label())
				}
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
				case used && b != at:
					t.Fatalf("%s: extended a trail recorded at another budget", label())
				case newSpot && used:
					t.Fatalf("%s: extended although a hot spot first appears after the prefix", label())
				case !newSpot && b == at && !used:
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
				if served, err := rec.Serve(ct, b, sim.Options{Journal: &skipJournal}, &skip); err != nil || !served {
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
