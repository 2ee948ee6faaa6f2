// Tests for delta-resimulation: trails recorded at one container budget
// must serve or resume runs at other budgets field-exact — journal bytes
// included — against fresh from-power-on runs.
package sim_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"rispp/internal/core"
	"rispp/internal/isa"
	"rispp/internal/molen"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

var checkpointSystems = []string{"FSFR", "ASF", "SJF", "HEF", "Molen", "software"}

func checkpointRuntime(t testing.TB, system string, is *isa.ISA, tr *workload.Trace, numACs int) sim.Checkpointable {
	t.Helper()
	switch system {
	case "software":
		return sim.Software(is).(sim.Checkpointable)
	case "Molen":
		r := molen.New(molen.Config{ISA: is, NumACs: numACs})
		r.SeedFromTrace(tr)
		return r
	default:
		s, err := sched.New(system)
		if err != nil {
			t.Fatal(err)
		}
		m := core.NewManager(core.Config{ISA: is, NumACs: numACs, Scheduler: s})
		m.SeedFromTrace(tr)
		return m
	}
}

// requireSameRun compares everything a delta-eligible run produces.
func requireSameRun(t *testing.T, label string, got, want *sim.Result, gotJ, wantJ []byte) {
	t.Helper()
	if got.Runtime != want.Runtime {
		t.Errorf("%s: Runtime = %q, want %q", label, got.Runtime, want.Runtime)
	}
	if got.TotalCycles != want.TotalCycles {
		t.Errorf("%s: TotalCycles = %d, want %d", label, got.TotalCycles, want.TotalCycles)
	}
	if got.StallCycles != want.StallCycles {
		t.Errorf("%s: StallCycles = %d, want %d", label, got.StallCycles, want.StallCycles)
	}
	if !reflect.DeepEqual(got.Phases, want.Phases) {
		t.Errorf("%s: Phases differ:\n got %v\nwant %v", label, got.Phases, want.Phases)
	}
	if !reflect.DeepEqual(got.Executions(), want.Executions()) {
		t.Errorf("%s: Executions = %v, want %v", label, got.Executions(), want.Executions())
	}
	if !reflect.DeepEqual(got.SWExecutions(), want.SWExecutions()) {
		t.Errorf("%s: SWExecutions = %v, want %v", label, got.SWExecutions(), want.SWExecutions())
	}
	if !reflect.DeepEqual(got.HWExecutions(), want.HWExecutions()) {
		t.Errorf("%s: HWExecutions = %v, want %v", label, got.HWExecutions(), want.HWExecutions())
	}
	if !bytes.Equal(gotJ, wantJ) {
		t.Errorf("%s: journal bytes differ (%d vs %d bytes)", label, len(gotJ), len(wantJ))
		gl, wl := bytes.Split(gotJ, []byte("\n")), bytes.Split(wantJ, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Errorf("%s: first differing journal line %d:\n got %s\nwant %s", label, i, gl[i], wl[i])
				break
			}
		}
	}
}

// TestTrailCrossBudgetEquivalence records a trail at one budget and then
// satisfies every other budget through the delta machinery (full skip where
// legal, partial resume otherwise), comparing each against a fresh
// from-power-on run with a journal attached. This is the core legality
// property: restored prefixes must be indistinguishable from re-simulated
// ones.
func TestTrailCrossBudgetEquivalence(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	ct, err := workload.Compile(tr, is)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []int{5, 10, 15, 24}
	const recordAt = 10

	for _, system := range checkpointSystems {
		t.Run(system, func(t *testing.T) {
			trail := new(sim.Trail)
			var recJ bytes.Buffer
			recRes := new(sim.Result)
			rt := checkpointRuntime(t, system, is, tr, recordAt)
			if err := sim.RunCompiledTrail(context.Background(), ct, rt,
				sim.Options{Journal: &recJ}, recRes, trail); err != nil {
				t.Fatal(err)
			}
			if !trail.Complete() {
				t.Fatal("trail not complete after successful run")
			}

			// The recording run itself must match a plain RunCompiled.
			var wantJ bytes.Buffer
			want := new(sim.Result)
			if err := sim.RunCompiled(context.Background(), ct,
				checkpointRuntime(t, system, is, tr, recordAt),
				sim.Options{Journal: &wantJ}, want); err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, "record", recRes, want, recJ.Bytes(), wantJ.Bytes())

			for _, budget := range budgets {
				// Fresh reference at this budget.
				var refJ bytes.Buffer
				ref := new(sim.Result)
				if err := sim.RunCompiled(context.Background(), ct,
					checkpointRuntime(t, system, is, tr, budget),
					sim.Options{Journal: &refJ}, ref); err != nil {
					t.Fatal(err)
				}

				var gotJ bytes.Buffer
				got := new(sim.Result)
				served, err := trail.Serve(ct, budget, sim.Options{Journal: &gotJ}, got)
				if err != nil {
					t.Fatal(err)
				}
				if budget == recordAt && !served {
					t.Fatalf("budget %d: Serve failed for the recorded budget", budget)
				}
				path := "serve"
				if !served {
					rec := new(sim.Trail)
					rt := checkpointRuntime(t, system, is, tr, budget)
					used, err := sim.ResumeCompiled(context.Background(), ct, rt,
						sim.Options{Journal: &gotJ}, got, trail, rec)
					if err != nil {
						t.Fatal(err)
					}
					path = "resume"
					if !used {
						// No transferable prefix: fall back to a full
						// recording run, like the Runner does.
						if err := sim.RunCompiledTrail(context.Background(), ct, rt,
							sim.Options{Journal: &gotJ}, got, rec); err != nil {
							t.Fatal(err)
						}
						path = "record-fallback"
					}
					if !rec.Complete() {
						t.Fatalf("budget %d: re-recorded trail incomplete", budget)
					}
					// The re-recorded trail must now full-skip this budget.
					var skipJ bytes.Buffer
					skip := new(sim.Result)
					served2, err := rec.Serve(ct, budget, sim.Options{Journal: &skipJ}, skip)
					if err != nil {
						t.Fatal(err)
					}
					if !served2 {
						t.Fatalf("budget %d: re-recorded trail cannot serve its own budget", budget)
					}
					requireSameRun(t, "re-serve", skip, ref, skipJ.Bytes(), refJ.Bytes())
				}
				requireSameRun(t, path, got, ref, gotJ.Bytes(), refJ.Bytes())
			}
		})
	}
}

// TestTrailServeSameBudget pins the cheapest path: a completed trail serves
// its own budget without any runtime at all.
func TestTrailServeSameBudget(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	ct, err := workload.Compile(tr, is)
	if err != nil {
		t.Fatal(err)
	}
	trail := new(sim.Trail)
	res := new(sim.Result)
	rt := checkpointRuntime(t, "HEF", is, tr, 10)
	if err := sim.RunCompiledTrail(context.Background(), ct, rt, sim.Options{}, res, trail); err != nil {
		t.Fatal(err)
	}
	got := new(sim.Result)
	served, err := trail.Serve(ct, 10, sim.Options{}, got)
	if err != nil || !served {
		t.Fatalf("Serve = %v, %v; want true, nil", served, err)
	}
	if got.TotalCycles != res.TotalCycles || !reflect.DeepEqual(got.Executions(), res.Executions()) {
		t.Errorf("served result differs from recorded run")
	}
	// Serving must not have mutated the trail: serve again.
	got2 := new(sim.Result)
	if served, err := trail.Serve(ct, 10, sim.Options{}, got2); err != nil || !served {
		t.Fatalf("second Serve = %v, %v; want true, nil", served, err)
	}
	if !reflect.DeepEqual(got2.Phases, got.Phases) {
		t.Errorf("second serve differs from first")
	}
}

// TestTrailRejectsIneligibleOptions: histogram/timeline/max-cycles runs
// must refuse trail recording and serving.
func TestTrailRejectsIneligibleOptions(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	ct, err := workload.Compile(tr, is)
	if err != nil {
		t.Fatal(err)
	}
	rt := checkpointRuntime(t, "HEF", is, tr, 10)
	bad := []sim.Options{
		{HistogramBucket: 100_000},
		{Timeline: true},
		{MaxCycles: 1 << 40},
	}
	for _, opts := range bad {
		if sim.DeltaEligible(opts) {
			t.Errorf("DeltaEligible(%+v) = true, want false", opts)
		}
		if err := sim.RunCompiledTrail(context.Background(), ct, rt, opts, new(sim.Result), new(sim.Trail)); err == nil {
			t.Errorf("RunCompiledTrail accepted ineligible options %+v", opts)
		}
	}

	trail := new(sim.Trail)
	if err := sim.RunCompiledTrail(context.Background(), ct, rt, sim.Options{}, new(sim.Result), trail); err != nil {
		t.Fatal(err)
	}
	for _, opts := range bad {
		if served, _ := trail.Serve(ct, 10, opts, new(sim.Result)); served {
			t.Errorf("Serve accepted ineligible options %+v", opts)
		}
		used, err := sim.ResumeCompiled(context.Background(), ct, rt, opts, new(sim.Result), trail, nil)
		if used || err != nil {
			t.Errorf("ResumeCompiled(%+v) = %v, %v; want false, nil", opts, used, err)
		}
	}
	// A journal-collecting request cannot be served from a journal-less trail.
	var j bytes.Buffer
	if served, _ := trail.Serve(ct, 10, sim.Options{Journal: &j}, new(sim.Result)); served {
		t.Error("Serve produced a journal from a journal-less trail")
	}
}

// TestTrailPhaseCountMismatch: a trail recorded on a 1-frame trace never
// serves the 2-frame trace (Serve is identity-only), but ResumeCompiled
// extends it — the 2-frame trace begins with the 1-frame one phase for
// phase — and the extended run, plus the trail it records, must match a
// fresh 2-frame run field for field, journal bytes included.
func TestTrailPhaseCountMismatch(t *testing.T) {
	is := isa.H264()
	tr1 := workload.H264(workload.H264Config{Frames: 1})
	tr2 := workload.H264(workload.H264Config{Frames: 2})
	ct1, err := workload.Compile(tr1, is)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := workload.Compile(tr2, is)
	if err != nil {
		t.Fatal(err)
	}
	const recordAt = 10
	for _, system := range checkpointSystems {
		t.Run(system, func(t *testing.T) {
			trail := new(sim.Trail)
			if err := sim.RunCompiledTrail(context.Background(), ct1,
				checkpointRuntime(t, system, is, tr1, recordAt),
				sim.Options{Journal: new(bytes.Buffer)}, new(sim.Result), trail); err != nil {
				t.Fatal(err)
			}
			for _, budget := range []int{recordAt, 5, 15} {
				if served, _ := trail.Serve(ct2, budget, sim.Options{}, new(sim.Result)); served {
					t.Fatalf("budget %d: trail served a trace with a different phase count", budget)
				}
				var refJ, gotJ bytes.Buffer
				ref := new(sim.Result)
				if err := sim.RunCompiled(context.Background(), ct2,
					checkpointRuntime(t, system, is, tr2, budget),
					sim.Options{Journal: &refJ}, ref); err != nil {
					t.Fatal(err)
				}
				got, rec := new(sim.Result), new(sim.Trail)
				rt := checkpointRuntime(t, system, is, tr2, budget)
				used, err := sim.ResumeCompiled(context.Background(), ct2, rt,
					sim.Options{Journal: &gotJ}, got, trail, rec)
				if err != nil {
					t.Fatal(err)
				}
				depth := trail.ResumeDepth(ct2, budget, sim.Options{Journal: &gotJ})
				if used != (depth > 0) {
					t.Fatalf("budget %d: ResumeCompiled used=%v but ResumeDepth=%d", budget, used, depth)
				}
				// At the recorded budget the whole 1-frame run transfers, the
				// stateless software runtime's included.
				if budget == recordAt && depth != len(ct1.Phases) {
					t.Fatalf("budget %d: ResumeDepth = %d, want the whole prefix (%d phases)", budget, depth, len(ct1.Phases))
				}
				path := "extend"
				if !used {
					path = "record-fallback"
					if err := sim.RunCompiledTrail(context.Background(), ct2, rt,
						sim.Options{Journal: &gotJ}, got, rec); err != nil {
						t.Fatal(err)
					}
				}
				requireSameRun(t, path, got, ref, gotJ.Bytes(), refJ.Bytes())
				// The extended trail belongs to the 2-frame trace now.
				var skipJ bytes.Buffer
				skip := new(sim.Result)
				if served, err := rec.Serve(ct2, budget, sim.Options{Journal: &skipJ}, skip); err != nil || !served {
					t.Fatalf("budget %d: extended trail cannot serve its own run: served=%v err=%v", budget, served, err)
				}
				requireSameRun(t, path+"/re-serve", skip, ref, skipJ.Bytes(), refJ.Bytes())
			}
		})
	}
}

// TestTrailRefusesTruncation is the reverse case: extension is one-way, so
// a trail recorded on the 2-frame trace neither serves nor resumes the
// 1-frame trace, even though the latter is its exact prefix.
func TestTrailRefusesTruncation(t *testing.T) {
	is := isa.H264()
	tr1 := workload.H264(workload.H264Config{Frames: 1})
	tr2 := workload.H264(workload.H264Config{Frames: 2})
	ct1, err := workload.Compile(tr1, is)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := workload.Compile(tr2, is)
	if err != nil {
		t.Fatal(err)
	}
	trail := new(sim.Trail)
	rt := checkpointRuntime(t, "HEF", is, tr2, 10)
	if err := sim.RunCompiledTrail(context.Background(), ct2, rt, sim.Options{}, new(sim.Result), trail); err != nil {
		t.Fatal(err)
	}
	if served, _ := trail.Serve(ct1, 10, sim.Options{}, new(sim.Result)); served {
		t.Error("2-frame trail served the 1-frame trace")
	}
	if used, _ := sim.ResumeCompiled(context.Background(), ct1, rt, sim.Options{}, new(sim.Result), trail, nil); used {
		t.Error("2-frame trail resumed the 1-frame trace")
	}
	if d := trail.ResumeDepth(ct1, 10, sim.Options{}); d != 0 {
		t.Errorf("ResumeDepth on the truncated trace = %d, want 0", d)
	}
}

// TestSoftwareTrailServesAllBudgets: the software runtime is completely
// budget-insensitive, so one trail full-skips every budget.
func TestSoftwareTrailServesAllBudgets(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	ct, err := workload.Compile(tr, is)
	if err != nil {
		t.Fatal(err)
	}
	trail := new(sim.Trail)
	res := new(sim.Result)
	rt := checkpointRuntime(t, "software", is, tr, 0)
	if err := sim.RunCompiledTrail(context.Background(), ct, rt, sim.Options{}, res, trail); err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int{0, 5, 24, 1000} {
		got := new(sim.Result)
		served, err := trail.Serve(ct, budget, sim.Options{}, got)
		if err != nil || !served {
			t.Fatalf("budget %d: Serve = %v, %v; want true, nil", budget, served, err)
		}
		if got.TotalCycles != res.TotalCycles {
			t.Errorf("budget %d: TotalCycles = %d, want %d", budget, got.TotalCycles, res.TotalCycles)
		}
	}
}

// TestTrailResultReuse: serving into a dirty reused Result must fully
// overwrite it.
func TestTrailResultReuse(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	ct, err := workload.Compile(tr, is)
	if err != nil {
		t.Fatal(err)
	}
	trail := new(sim.Trail)
	rt := checkpointRuntime(t, "ASF", is, tr, 10)
	want := new(sim.Result)
	if err := sim.RunCompiledTrail(context.Background(), ct, rt, sim.Options{}, want, trail); err != nil {
		t.Fatal(err)
	}
	// Dirty the Result with a different system's run, then serve into it.
	got := new(sim.Result)
	if err := sim.RunCompiled(context.Background(), ct,
		checkpointRuntime(t, "Molen", is, tr, 24), sim.Options{}, got); err != nil {
		t.Fatal(err)
	}
	if served, err := trail.Serve(ct, 10, sim.Options{}, got); err != nil || !served {
		t.Fatalf("Serve = %v, %v; want true, nil", served, err)
	}
	if got.Runtime != want.Runtime || got.TotalCycles != want.TotalCycles ||
		got.StallCycles != want.StallCycles ||
		!reflect.DeepEqual(got.Executions(), want.Executions()) ||
		!reflect.DeepEqual(got.Phases, want.Phases) {
		t.Errorf("served-into-dirty Result differs from recorded run")
	}
}
