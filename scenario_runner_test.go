package rispp

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"

	"rispp/internal/explore"
	"rispp/internal/oracle"
	"rispp/internal/scenario"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

// TestRunPointScenarioMatchesDirect: a point through the Runner (with its
// memo and delta layer), first recorded and then served from its trail, is
// field-exact identical to a plain Run of the same configuration, journal
// bytes included: every scenario under HEF, and the H.264 encode under all
// six run-time systems at two budgets with prefetch off and on.
func TestRunPointScenarioMatchesDirect(t *testing.T) {
	type pointCase struct {
		p   explore.Point
		cfg Config // the equivalent Run config
	}
	var cases []pointCase
	for _, name := range scenario.Names() {
		sc, _ := scenario.Find(name)
		cases = append(cases, pointCase{
			explore.Point{Scheduler: "HEF", NumACs: 6, Frames: 3, Seed: 2, SeedForecasts: true, Scenario: name},
			Config{ISA: sc.ISA(), Workload: sc.Trace(3, 2), Scheduler: "HEF", NumACs: 6, SeedForecasts: true},
		})
	}
	tr := workload.H264(workload.H264Config{Frames: 3, Seed: 2})
	for _, sys := range oracle.Systems {
		for _, acs := range []int{5, 12} {
			for _, prefetch := range []bool{false, true} {
				cases = append(cases, pointCase{
					explore.Point{Scheduler: sys, NumACs: acs, Frames: 3, Seed: 2, SeedForecasts: true, Prefetch: prefetch},
					Config{Workload: tr, Scheduler: sys, NumACs: acs, SeedForecasts: true, Prefetch: prefetch},
				})
			}
		}
	}

	rn := NewRunner(Config{})
	for _, c := range cases {
		var wantJ bytes.Buffer
		c.cfg.Collect.Journal = &wantJ
		want, err := Run(c.cfg)
		if err != nil {
			t.Fatalf("%s: direct Run: %v", c.p.Key(), err)
		}
		for _, pass := range []string{"first", "repeat"} {
			serves, _, _ := rn.DeltaStats()
			var gotJ bytes.Buffer
			got := new(sim.Result)
			if err := rn.RunPoint(context.Background(), c.p, sim.Options{Journal: &gotJ}, got); err != nil {
				t.Fatalf("%s: %s RunPoint: %v", c.p.Key(), pass, err)
			}
			if err := oracle.DiffResults(want, got); err != nil {
				t.Errorf("%s: %s RunPoint against direct Run: %v", c.p.Key(), pass, err)
			}
			if !bytes.Equal(gotJ.Bytes(), wantJ.Bytes()) {
				t.Errorf("%s: %s RunPoint journal differs from direct Run's", c.p.Key(), pass)
			}
			if after, _, _ := rn.DeltaStats(); pass == "repeat" && after != serves+1 {
				t.Errorf("%s: repeat was not served from the trail", c.p.Key())
			}
		}
	}
}

// TestRunPointScenarioReproducible: repeated runs of one scenario point —
// which exercise the compile memo and the delta trail full-skip — stay
// field-exact.
func TestRunPointScenarioReproducible(t *testing.T) {
	rn := NewRunner(Config{})
	p := explore.Point{Scheduler: "HEF", NumACs: 8, Frames: 4, Seed: 1,
		SeedForecasts: true, Scenario: "video-crypto"}
	first := new(sim.Result)
	if err := rn.RunPoint(context.Background(), p, sim.Options{}, first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res := new(sim.Result)
		if err := rn.RunPoint(context.Background(), p, sim.Options{}, res); err != nil {
			t.Fatal(err)
		}
		if res.TotalCycles != first.TotalCycles ||
			!reflect.DeepEqual(res.Phases, first.Phases) {
			t.Fatalf("run %d diverged from first run", i)
		}
	}
	if serves, _, _ := rn.DeltaStats(); serves == 0 {
		t.Error("repeated scenario point never full-skipped from its trail")
	}
}

func TestRunPointScenarioErrors(t *testing.T) {
	ctx := context.Background()
	res := new(sim.Result)

	rn := NewRunner(Config{})
	err := rn.RunPoint(ctx, explore.Point{Scenario: "no-such"}, sim.Options{}, res)
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown scenario: err = %v", err)
	}

	err = rn.RunPoint(ctx, explore.Point{Scenario: "video-crypto", Motion: 0.5}, sim.Options{}, res)
	if err == nil || !strings.Contains(err.Error(), "H.264 knobs") {
		t.Errorf("scenario + motion: err = %v", err)
	}

	pinned := NewRunner(Config{Workload: workload.H264(workload.H264Config{Frames: 1})})
	err = pinned.RunPoint(ctx, explore.Point{Scenario: "video-crypto"}, sim.Options{}, res)
	if err == nil || !strings.Contains(err.Error(), "pins a workload") {
		t.Errorf("pinned base workload + scenario: err = %v", err)
	}
}

// TestScenarioPointKeys: the scenario name participates in the content
// address, and its absence leaves legacy keys byte-identical (so every
// pre-existing cache entry stays valid).
func TestScenarioPointKeys(t *testing.T) {
	base := explore.Point{Scheduler: "HEF", NumACs: 10, Frames: 5, SeedForecasts: true}
	if k := base.Key(); strings.Contains(k, "scenario") {
		t.Errorf("non-scenario key mentions scenario: %s", k)
	}
	with := base
	with.Scenario = "video-crypto"
	if base.Hash() == with.Hash() {
		t.Error("scenario point hashes identical to H.264 point")
	}
	other := base
	other.Scenario = "video-pip"
	if with.Hash() == other.Hash() {
		t.Error("different scenarios share one hash")
	}
}

// TestCheckedScenarioExplore: a scenario sweep through the checked engine —
// every point validated against the oracle invariants under the scenario's
// (merged) ISA.
func TestCheckedScenarioExplore(t *testing.T) {
	eng := CheckedExplorer(Config{}, 2, nil)
	spec := explore.Spec{
		Schedulers: []string{"HEF", "Molen", "software"},
		ACs:        []int{8},
		Frames:     []int{3},
		Scenarios:  []string{"video-crypto", "scene-cut"},
	}
	res, err := eng.Execute(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstErr(); err != nil {
		t.Fatalf("checked scenario sweep: %v", err)
	}
	if len(res.Records) != 6 {
		t.Fatalf("got %d records, want 6", len(res.Records))
	}
	for _, rec := range res.Records {
		if rec.TotalCycles <= 0 {
			t.Errorf("point %s: non-positive cycles %d", rec.Point.Key(), rec.TotalCycles)
		}
	}
}
