package rispp

import (
	"bytes"
	"context"
	"reflect"
	"sync"
	"testing"

	"rispp/internal/explore"
	"rispp/internal/sim"
)

// deltaGrid is a budget sweep over all six systems — the workload delta-
// resimulation is built for: consecutive points differ only in NumACs.
func deltaGrid() []explore.Point {
	var pts []explore.Point
	for _, s := range []string{"FSFR", "ASF", "SJF", "HEF", "Molen", "software"} {
		for _, acs := range []int{5, 10, 15, 24} {
			pts = append(pts, explore.Point{
				Scheduler: s, NumACs: acs, Frames: 1, SeedForecasts: true,
			})
		}
	}
	return pts
}

// TestDeltaSweepMatchesDisabled runs the same budget grid through a delta-
// enabled Runner and a delta-disabled one and requires identical results
// on every point. A trail serves only its own budget, so the first pass
// records every RISPP and Molen point; the software points ignore NumACs
// and share one trail, so one records and the other three are served. The
// second pass over the grid must be served from trails alone. After each
// pass the delta Runner has built one runtime per record or resume and the
// delta-disabled one a runtime per point run: neither keeps one to reuse.
func TestDeltaSweepMatchesDisabled(t *testing.T) {
	pts := deltaGrid()
	plain := NewRunner(Config{DisableDelta: true})
	delta := NewRunner(Config{})
	checkBuilds := func(pass int) {
		t.Helper()
		_, resumes, records := delta.DeltaStats()
		if hits, built := delta.RuntimePoolStats(); hits != 0 || built != resumes+records {
			t.Errorf("after pass %d: delta Runner hits=%d built=%d, want 0/%d", pass, hits, built, resumes+records)
		}
		if hits, built := plain.RuntimePoolStats(); hits != 0 || built != int64(pass*len(pts)) {
			t.Errorf("after pass %d: plain Runner hits=%d built=%d, want 0/%d", pass, hits, built, pass*len(pts))
		}
	}

	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			if serves, resumes, records := delta.DeltaStats(); serves != 3 || resumes != 0 || records != 21 {
				t.Errorf("after pass 1: serves=%d resumes=%d records=%d, want 3/0/21", serves, resumes, records)
			}
			checkBuilds(1)
		}
		for i, p := range pts {
			want, got := new(sim.Result), new(sim.Result)
			if err := plain.RunPoint(context.Background(), p, sim.Options{}, want); err != nil {
				t.Fatalf("pass %d point %d: %v", pass, i, err)
			}
			if err := delta.RunPoint(context.Background(), p, sim.Options{}, got); err != nil {
				t.Fatalf("pass %d point %d: %v", pass, i, err)
			}
			if got.TotalCycles != want.TotalCycles || got.StallCycles != want.StallCycles {
				t.Errorf("pass %d, %s/%d ACs: cycles %d/%d, want %d/%d",
					pass, p.Scheduler, p.NumACs, got.TotalCycles, got.StallCycles,
					want.TotalCycles, want.StallCycles)
			}
			if !reflect.DeepEqual(got.Executions(), want.Executions()) {
				t.Errorf("pass %d, %s/%d ACs: Executions differ", pass, p.Scheduler, p.NumACs)
			}
			if !reflect.DeepEqual(got.Phases, want.Phases) {
				t.Errorf("pass %d, %s/%d ACs: Phases differ", pass, p.Scheduler, p.NumACs)
			}
		}
	}
	if serves, resumes, records := delta.DeltaStats(); serves != 3+int64(len(pts)) || resumes != 0 || records != 21 {
		t.Errorf("after pass 2: serves=%d resumes=%d records=%d, want %d/0/21", serves, resumes, records, 3+len(pts))
	}
	checkBuilds(2)
}

// TestDeltaJournalBytes: a point served from a trail must reproduce the
// journal byte-for-byte.
func TestDeltaJournalBytes(t *testing.T) {
	rn := NewRunner(Config{})
	p := explore.Point{Scheduler: "HEF", NumACs: 10, Frames: 1, SeedForecasts: true}
	var first, second bytes.Buffer
	res := new(sim.Result)
	if err := rn.RunPoint(context.Background(), p, sim.Options{Journal: &first}, res); err != nil {
		t.Fatal(err)
	}
	if err := rn.RunPoint(context.Background(), p, sim.Options{Journal: &second}, res); err != nil {
		t.Fatal(err)
	}
	serves, _, records := rn.DeltaStats()
	if records != 1 || serves != 1 {
		t.Errorf("delta stats: serves=%d records=%d, want 1/1", serves, records)
	}
	if first.Len() == 0 || !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("served journal differs from recorded one (%d vs %d bytes)", second.Len(), first.Len())
	}
}

// TestDeltaDisabledForIneligibleCollect: histogram/timeline runs bypass the
// trail layer entirely, so each run builds its own runtime.
func TestDeltaDisabledForIneligibleCollect(t *testing.T) {
	rn := NewRunner(Config{})
	p := explore.Point{Scheduler: "HEF", NumACs: 10, Frames: 1, SeedForecasts: true}
	res := new(sim.Result)
	for i := 0; i < 2; i++ {
		if err := rn.RunPoint(context.Background(), p, sim.Options{HistogramBucket: 100_000}, res); err != nil {
			t.Fatal(err)
		}
	}
	if serves, resumes, records := rn.DeltaStats(); serves+resumes+records != 0 {
		t.Errorf("delta stats for ineligible collect: %d/%d/%d, want all zero", serves, resumes, records)
	}
	if hits, built := rn.RuntimePoolStats(); hits != 0 || built != 2 {
		t.Errorf("runtime stats: hits=%d built=%d, want 0/2", hits, built)
	}
}

// TestDeltaTrailConcurrentUse shares one delta-enabled Runner between
// serve-style point traffic and grouped sweeps, all budgets and two frame
// counts racing on the same trail sets, and checks every result against a
// per-goroutine reference from a delta-disabled Runner. Run under -race: it
// exercises concurrent trail recording (first-wins store), lock-free
// serving from immutable trails, and extensions of 1-frame trails to the
// 2-frame trace while both are being stored.
func TestDeltaTrailConcurrentUse(t *testing.T) {
	pts := deltaGrid()
	for _, p := range deltaGrid() {
		p.Frames = 2
		pts = append(pts, p)
	}
	groups := map[string][]explore.Point{} // each scheduler's family, 1 frame first
	for _, p := range pts {
		groups[p.Scheduler] = append(groups[p.Scheduler], p)
	}

	want := make(map[string]int64, len(pts))
	ref := NewRunner(Config{DisableDelta: true})
	for _, p := range pts {
		res := new(sim.Result)
		if err := ref.RunPoint(context.Background(), p, sim.Options{}, res); err != nil {
			t.Fatal(err)
		}
		want[p.Normalized().Key()] = res.TotalCycles
	}

	shared := NewRunner(Config{})
	runSet := shared.EngineRunSet()
	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				if g%2 == 0 { // serve traffic: single points, out of phase
					for off := 0; off < len(pts); off++ {
						p := pts[(g+off)%len(pts)]
						res := shared.GetResult()
						if err := shared.RunPoint(context.Background(), p, sim.Options{}, res); err != nil {
							t.Errorf("goroutine %d: %v", g, err)
							return
						}
						if w := want[p.Normalized().Key()]; res.TotalCycles != w {
							t.Errorf("goroutine %d, %s/%d ACs: got %d cycles, want %d",
								g, p.Scheduler, p.NumACs, res.TotalCycles, w)
							return
						}
						shared.PutResult(res)
					}
					continue
				}
				for _, ps := range groups { // grouped sweeps
					ms, err := runSet(context.Background(), ps)
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					for i, p := range ps {
						if w := want[p.Normalized().Key()]; ms[i].TotalCycles != w {
							t.Errorf("goroutine %d, %s/%d ACs: got %d cycles, want %d",
								g, p.Scheduler, p.NumACs, ms[i].TotalCycles, w)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	serves, resumes, records := shared.DeltaStats()
	if serves == 0 || records == 0 {
		t.Errorf("stress did not exercise the delta layer: serves=%d resumes=%d records=%d",
			serves, resumes, records)
	}
}
