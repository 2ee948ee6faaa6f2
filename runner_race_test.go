package rispp

import (
	"context"
	"sync"
	"testing"

	"rispp/internal/explore"
	"rispp/internal/sim"
)

// racePoints mixes colliding and distinct design points: every scheduler
// appears at two AC budgets, and two workload-knob combinations force both
// memo hits (same knobs from many goroutines) and memo fills (first access
// per knob combination racing LoadOrStore).
func racePoints() []explore.Point {
	var pts []explore.Point
	for _, s := range []string{"HEF", "FSFR", "Molen", "software"} {
		for _, acs := range []int{2, 5} {
			for _, frames := range []int{1, 2} {
				pts = append(pts, explore.Point{
					Scheduler: s, NumACs: acs, Frames: frames,
					Seed: int64(frames), SeedForecasts: true,
				})
			}
		}
	}
	return pts
}

// TestRunnerConcurrentUseIsRaceFreeAndDeterministic hammers one shared
// Runner — its compiled-trace memo and its Result pool — from many
// goroutines, half through RunPoint with pooled Results and half through
// the EngineRun adapter, and checks every concurrent measurement against a
// sequential baseline. Run it under -race; it is cheap enough for -short.
func TestRunnerConcurrentUseIsRaceFreeAndDeterministic(t *testing.T) {
	pts := racePoints()
	base := Config{} // nil Workload: the point knobs build each trace

	// Sequential baseline through its own Runner.
	want := make([]int64, len(pts))
	seq := NewRunner(base)
	for i, p := range pts {
		res := new(sim.Result)
		if err := seq.RunPoint(context.Background(), p, sim.Options{}, res); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		want[i] = res.TotalCycles
	}

	shared := NewRunner(base)
	run := shared.EngineRun()
	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for off := 0; off < len(pts); off++ {
					i := (g + off) % len(pts) // goroutines sweep out of phase
					var got int64
					if g%2 == 0 {
						res := shared.GetResult()
						if err := shared.RunPoint(context.Background(), pts[i], sim.Options{}, res); err != nil {
							errs <- err
							return
						}
						got = res.TotalCycles
						shared.PutResult(res)
					} else {
						m, err := run(context.Background(), pts[i])
						if err != nil {
							errs <- err
							return
						}
						got = m.TotalCycles
					}
					if got != want[i] {
						t.Errorf("goroutine %d, point %d (%s, %d ACs, %d frames): got %d cycles, want %d",
							g, i, pts[i].Scheduler, pts[i].NumACs, pts[i].Frames, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRuntimePoolConcurrentUseIsRaceFreeAndDeterministic hammers the
// runtime pool of one shared Runner from many goroutines, half via RunPoint
// and half via EngineRunSet (multi-point groups, like the engine's grouped
// dispatch), checking every result against a sequential baseline. Run under
// -race; cheap enough for -short.
func TestRuntimePoolConcurrentUseIsRaceFreeAndDeterministic(t *testing.T) {
	pts := racePoints()
	// Group the points by workload knobs: one EngineRunSet call per frame
	// count, mixing schedulers and budgets.
	groups := map[int][]explore.Point{}
	for _, p := range pts {
		groups[p.Frames] = append(groups[p.Frames], p)
	}

	want := make([]int64, len(pts))
	wantOf := make(map[string]int64, len(pts))
	seq := NewRunner(Config{})
	for i, p := range pts {
		res := new(sim.Result)
		if err := seq.RunPoint(context.Background(), p, sim.Options{}, res); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
		want[i] = res.TotalCycles
		wantOf[p.Normalized().Key()] = res.TotalCycles
	}

	// Delta-resimulation would satisfy repeat points from trails without
	// requesting runtimes; disable it so this stress keeps hammering the
	// pool itself (TestDeltaTrailConcurrentUse covers the delta layer).
	shared := NewRunner(Config{DisableDelta: true})
	runSet := shared.EngineRunSet()
	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if g%2 == 0 {
					for off := 0; off < len(pts); off++ {
						i := (g + off) % len(pts)
						res := shared.GetResult()
						if err := shared.RunPoint(context.Background(), pts[i], sim.Options{}, res); err != nil {
							t.Errorf("goroutine %d: %v", g, err)
							return
						}
						if res.TotalCycles != want[i] {
							t.Errorf("goroutine %d, point %d: got %d cycles, want %d", g, i, res.TotalCycles, want[i])
							return
						}
						shared.PutResult(res)
					}
					continue
				}
				for _, ps := range groups {
					ms, err := runSet(context.Background(), ps)
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					for i, p := range ps {
						if w := wantOf[p.Normalized().Key()]; ms[i].TotalCycles != w {
							t.Errorf("goroutine %d, point %s: got %d cycles, want %d",
								g, p.Key(), ms[i].TotalCycles, w)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if hits, misses := shared.RuntimePoolStats(); hits == 0 || misses == 0 {
		t.Errorf("stress did not exercise the pool: hits=%d misses=%d", hits, misses)
	}
}
