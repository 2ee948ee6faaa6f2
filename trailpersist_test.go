package rispp

import (
	"context"
	"reflect"
	"testing"

	"rispp/internal/explore"
	"rispp/internal/sim"
)

// TestTrailPersistenceAcrossRunners simulates a worker restart: a second
// Runner sharing the first one's TrailDir must serve repeated points from
// persisted trails — zero fresh recordings — with results identical to a
// cold, persistence-free Runner.
func TestTrailPersistenceAcrossRunners(t *testing.T) {
	dir := t.TempDir()
	pts := []explore.Point{
		{Scheduler: "HEF", NumACs: 10, Frames: 1, SeedForecasts: true},
		{Scheduler: "Molen", NumACs: 10, Frames: 1, SeedForecasts: true},
		{Scheduler: "SJF", NumACs: 5, Frames: 1, SeedForecasts: true},
	}

	first := NewRunner(Config{TrailDir: dir})
	if pdir, err, _, _ := first.TrailPersistence(); pdir != dir || err != nil {
		t.Fatalf("persistence off: dir=%q err=%v", pdir, err)
	}
	for _, p := range pts {
		if err := first.RunPoint(context.Background(), p, sim.Options{}, new(sim.Result)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, loads, saves := first.TrailPersistence(); loads != 0 || saves != int64(len(pts)) {
		t.Fatalf("first runner: loads=%d saves=%d, want 0/%d", loads, saves, len(pts))
	}

	// "Restart": a fresh Runner with an empty in-memory trail set.
	second := NewRunner(Config{TrailDir: dir})
	reference := NewRunner(Config{DisableDelta: true})
	for _, p := range pts {
		got, want := new(sim.Result), new(sim.Result)
		if err := second.RunPoint(context.Background(), p, sim.Options{}, got); err != nil {
			t.Fatal(err)
		}
		if err := reference.RunPoint(context.Background(), p, sim.Options{}, want); err != nil {
			t.Fatal(err)
		}
		if got.TotalCycles != want.TotalCycles || got.StallCycles != want.StallCycles {
			t.Errorf("%s/%d ACs: cycles %d/%d, want %d/%d", p.Scheduler, p.NumACs,
				got.TotalCycles, got.StallCycles, want.TotalCycles, want.StallCycles)
		}
		if !reflect.DeepEqual(got.Executions(), want.Executions()) {
			t.Errorf("%s/%d ACs: Executions differ", p.Scheduler, p.NumACs)
		}
	}
	serves, resumes, records := second.DeltaStats()
	if records != 0 {
		t.Errorf("restarted runner recorded %d trails from power-on, want 0", records)
	}
	if serves != int64(len(pts)) || resumes != 0 {
		t.Errorf("restarted runner: serves=%d resumes=%d, want %d/0", serves, resumes, len(pts))
	}
	if _, _, loads, _ := second.TrailPersistence(); loads != int64(len(pts)) {
		t.Errorf("restarted runner loaded %d trails from disk, want %d", loads, len(pts))
	}

	// A loaded trail joins the in-memory set: the next request for the same
	// point must not touch the disk again.
	if err := second.RunPoint(context.Background(), pts[0], sim.Options{}, new(sim.Result)); err != nil {
		t.Fatal(err)
	}
	if _, _, loads, _ := second.TrailPersistence(); loads != int64(len(pts)) {
		t.Errorf("repeat point re-read the disk store (loads=%d)", loads)
	}
}

// TestTrailPersistenceGates: persistence must stay off when the knobs no
// longer identify the trace (custom workload, or memo off via Bus).
func TestTrailPersistenceGates(t *testing.T) {
	dir := t.TempDir()
	custom := NewRunner(Config{TrailDir: dir, Workload: shortTrace(1)})
	if pdir, _, _, _ := custom.TrailPersistence(); pdir != "" {
		t.Error("persistence on with a custom base workload")
	}
}

// TestPersistedTrailNeverExtends: a trail loaded from TrailDir is serve-only
// — it carries no runtime state — so a restarted Runner must serve its own
// point from it but record the longer trace from power-on.
func TestPersistedTrailNeverExtends(t *testing.T) {
	dir := t.TempDir()
	short := explore.Point{Scheduler: "HEF", NumACs: 10, Frames: 1, SeedForecasts: true}
	long := short
	long.Frames = 2
	if err := NewRunner(Config{TrailDir: dir}).RunPoint(context.Background(), short, sim.Options{}, new(sim.Result)); err != nil {
		t.Fatal(err)
	}

	restarted := NewRunner(Config{TrailDir: dir})
	for _, p := range []explore.Point{short, long} {
		got, want := new(sim.Result), new(sim.Result)
		if err := restarted.RunPoint(context.Background(), p, sim.Options{}, got); err != nil {
			t.Fatal(err)
		}
		if err := NewRunner(Config{DisableDelta: true}).RunPoint(context.Background(), p, sim.Options{}, want); err != nil {
			t.Fatal(err)
		}
		if got.TotalCycles != want.TotalCycles || !reflect.DeepEqual(got.Executions(), want.Executions()) {
			t.Errorf("%d frames: %d cycles, want %d", p.Frames, got.TotalCycles, want.TotalCycles)
		}
	}
	serves, resumes, records := restarted.DeltaStats()
	if serves != 1 || resumes != 0 || records != 1 {
		t.Errorf("restarted runner: serves=%d resumes=%d records=%d, want 1/0/1 (the loaded trail must not extend)",
			serves, resumes, records)
	}
	if _, _, loads, _ := restarted.TrailPersistence(); loads != 1 {
		t.Errorf("loads = %d, want 1", loads)
	}
}
