// Race stress of the runtime pool: concurrent /v1/simulate requests and
// explore.Engine sweeps — grouped through the engine's RunSet hook —
// hammer one shared rispp.Runner, checking every concurrent measurement
// against a sequential baseline. Run under -race (the CI race job does).
package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/sim"
)

func TestSimulateAndEngineSweepShareRunnerRaceFree(t *testing.T) {
	pts := []explore.Point{
		{Scheduler: "HEF", NumACs: 5, Frames: 1, SeedForecasts: true},
		{Scheduler: "HEF", NumACs: 10, Frames: 1, SeedForecasts: true},
		{Scheduler: "FSFR", NumACs: 5, Frames: 1, SeedForecasts: true},
		{Scheduler: "Molen", NumACs: 5, Frames: 1, SeedForecasts: true},
		{Scheduler: "software", NumACs: 0, Frames: 1, SeedForecasts: true},
	}
	spec := explore.Spec{Points: pts}

	// Sequential baseline through an independent Runner.
	want := make(map[string]int64, len(pts))
	seq := rispp.NewRunner(rispp.Config{})
	for _, p := range pts {
		res := new(sim.Result)
		if err := seq.RunPoint(context.Background(), p, sim.Options{}, res); err != nil {
			t.Fatal(err)
		}
		want[p.Normalized().Key()] = res.TotalCycles
	}

	// CacheEntries < 0 disables the response cache, so every request takes
	// a runtime from the shared pool instead of short-circuiting; delta-
	// resimulation is off for the same reason (trail serves skip the pool).
	s := New(Config{Workers: 8, CacheEntries: -1}, rispp.Config{DisableDelta: true})
	h := s.Handler()
	const rounds = 6

	var wg sync.WaitGroup
	// Half the load: /v1/simulate requests through the HTTP stack.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for off := range pts {
					p := pts[(g+off)%len(pts)]
					w := postJSON(t, h, "/v1/simulate", SimulateRequest{Point: p})
					if w.Code != http.StatusOK {
						t.Errorf("goroutine %d: simulate %s: status %d: %s", g, p.Key(), w.Code, w.Body.String())
						return
					}
					resp := decodeSimulate(t, w)
					if cycles := want[resp.Point.Key()]; resp.TotalCycles != cycles {
						t.Errorf("goroutine %d: simulate %s: got %d cycles, want %d",
							g, resp.Point.Key(), resp.TotalCycles, cycles)
						return
					}
				}
			}
		}(g)
	}
	// The other half: engine sweeps on the server's own Runner, through the
	// grouped RunSet path (one call per workload family).
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			eng := &explore.Engine{Workers: 2, Run: s.runner.EngineRun(), RunSet: s.runner.EngineRunSet()}
			for round := 0; round < rounds; round++ {
				res, err := eng.Execute(context.Background(), spec, nil)
				if err != nil {
					t.Errorf("goroutine %d: sweep: %v", g, err)
					return
				}
				for _, rec := range res.Records {
					if !rec.OK() {
						t.Errorf("goroutine %d: sweep point %s: %s", g, rec.Point.Key(), rec.Err)
						return
					}
					if cycles := want[rec.Point.Key()]; rec.TotalCycles != cycles {
						t.Errorf("goroutine %d: sweep point %s: got %d cycles, want %d",
							g, rec.Point.Key(), rec.TotalCycles, cycles)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()

	hits, misses := s.runner.RuntimePoolStats()
	if hits == 0 || misses == 0 {
		t.Errorf("stress did not exercise the pool: hits=%d misses=%d", hits, misses)
	}
}
