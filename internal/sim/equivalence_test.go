// Equivalence test for the compiled-trace hot path: the optimised
// simulator (workload.Compile + dense per-SI accounting + hand-rolled
// journal encoder) must produce results byte-identical to the original
// per-event implementation. referenceRun below is a faithful copy of the
// pre-optimisation loop — maps for accounting, json.Marshal per journal
// event, unbuffered writes — kept here as the executable specification.
package sim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"rispp/internal/core"
	"rispp/internal/isa"
	"rispp/internal/molen"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/stats"
	"rispp/internal/workload"
)

// refResult mirrors the original sim.Result layout (exported maps).
type refResult struct {
	Runtime      string
	TotalCycles  int64
	Executions   map[isa.SIID]int64
	SWExecutions map[isa.SIID]int64
	HWExecutions map[isa.SIID]int64
	StallCycles  int64
	Phases       []sim.PhaseStat
	Histogram    *stats.Histogram
	Timeline     *stats.Timeline
}

// referenceRun is the pre-optimisation simulation loop, verbatim except
// for the package qualifiers: per-SI maps, a fresh Result per run, and one
// json.Marshal + Write per journal event.
func referenceRun(tr *workload.Trace, is *isa.ISA, rt sim.Runtime, opts sim.Options) (*refResult, error) {
	rt.Reset()
	res := &refResult{
		Runtime:      rt.Name(),
		Executions:   make(map[isa.SIID]int64),
		SWExecutions: make(map[isa.SIID]int64),
		HWExecutions: make(map[isa.SIID]int64),
	}
	if opts.HistogramBucket > 0 {
		res.Histogram = stats.NewHistogram(opts.HistogramBucket)
	}
	if opts.Timeline {
		res.Timeline = &stats.Timeline{}
	}
	var journalErr error
	journal := func(e sim.JournalEvent) {
		if opts.Journal == nil || journalErr != nil {
			return
		}
		b, err := json.Marshal(e)
		if err == nil {
			_, err = opts.Journal.Write(append(b, '\n'))
		}
		if err != nil {
			journalErr = fmt.Errorf("sim: journal: %w", err)
		}
	}

	now := int64(0)
	lastLat := make(map[isa.SIID]int)
	recordLats := func(at int64, spot []isa.SIID) {
		for _, si := range spot {
			lat := rt.Latency(si)
			if res.Timeline != nil {
				res.Timeline.Record(at, int(si), lat)
			}
			if opts.Journal != nil && lastLat[si] != lat {
				lastLat[si] = lat
				journal(sim.JournalEvent{Cycle: at, Event: "latency", SI: int(si), Latency: lat})
			}
		}
	}
	drain := func(limit int64, spot []isa.SIID) {
		for {
			at, ok := rt.NextEvent()
			if !ok || at > limit {
				return
			}
			rt.Advance(at)
			journal(sim.JournalEvent{Cycle: at, Event: "load"})
			recordLats(at, spot)
		}
	}

	res.Phases = make([]sim.PhaseStat, 0, len(tr.Phases))
	for pi := range tr.Phases {
		p := &tr.Phases[pi]
		phaseStart := now
		spot := make([]isa.SIID, 0, 8)
		for _, s := range is.HotSpotSIs(p.HotSpot) {
			spot = append(spot, s.ID)
		}
		rt.EnterHotSpot(p.HotSpot, now)
		journal(sim.JournalEvent{Cycle: now, Event: "enter", HotSpot: int(p.HotSpot)})
		recordLats(now, spot)
		now += p.Setup
		drain(now, spot)

		for _, b := range p.Bursts {
			remaining := int64(b.Count)
			for remaining > 0 {
				drain(now, spot)
				lat := rt.Latency(b.SI)
				per := int64(lat + b.Gap)
				n := remaining
				if next, ok := rt.NextEvent(); ok && next > now {
					if k := (next - now + per - 1) / per; k < n {
						n = k
					}
				}
				if res.Histogram != nil {
					res.Histogram.Add(int(b.SI), now, n, per)
				}
				res.Executions[b.SI] += n
				sw := lat >= is.SI(b.SI).SWLatency
				if sw {
					res.SWExecutions[b.SI] += n
				} else {
					res.HWExecutions[b.SI] += n
				}
				res.StallCycles += n * int64(lat-is.SI(b.SI).Fastest().Latency)
				now += n * per
				remaining -= n
				rt.Record(b.SI, n, now)
				if opts.MaxCycles > 0 && now > opts.MaxCycles {
					return nil, fmt.Errorf("sim: exceeded MaxCycles=%d at phase %d", opts.MaxCycles, pi)
				}
			}
		}
		drain(now, spot)
		rt.LeaveHotSpot(now)
		journal(sim.JournalEvent{Cycle: now, Event: "leave", HotSpot: int(p.HotSpot)})
		res.Phases = append(res.Phases, sim.PhaseStat{HotSpot: p.HotSpot, Start: phaseStart, End: now})
	}
	res.TotalCycles = now
	if journalErr != nil {
		return nil, journalErr
	}
	return res, nil
}

// TestCompiledTraceEquivalence runs the H.264 workload on every run-time
// system and requires the optimised path to match the reference
// implementation exactly: cycle counts, per-SI execution maps, phase
// boundaries, histogram buckets, timeline events and journal bytes. Each
// system runs twice: with the histogram and the timeline, which walks
// every burst, and with the journal only, under which whole blocks of
// bursts run in one step.
func TestCompiledTraceEquivalence(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 2})

	systems := []string{"FSFR", "ASF", "SJF", "HEF", "Molen", "software"}
	runs := []struct {
		name string
		opts sim.Options
	}{
		{"artifacts", sim.Options{HistogramBucket: 100_000, Timeline: true}},
		{"artifact-free", sim.Options{}},
	}
	for _, system := range systems {
		t.Run(system, func(t *testing.T) {
			newRT := func() sim.Runtime {
				switch system {
				case "software":
					return sim.Software(is)
				case "Molen":
					return molen.New(molen.Config{ISA: is, NumACs: 10, ForecastSeeds: tr.ForecastSeeds(is)})
				default:
					s, err := sched.New(system)
					if err != nil {
						t.Fatal(err)
					}
					return core.NewManager(core.Config{ISA: is, NumACs: 10, Scheduler: s, ForecastSeeds: tr.ForecastSeeds(is)})
				}
			}
			for _, run := range runs {
				t.Run(run.name, func(t *testing.T) {
					opts := run.opts
					var refJournal, gotJournal bytes.Buffer
					refOpts := opts
					refOpts.Journal = &refJournal
					want, err := referenceRun(tr, is, newRT(), refOpts)
					if err != nil {
						t.Fatal(err)
					}

					gotOpts := opts
					gotOpts.Journal = &gotJournal
					got, err := sim.Run(tr, is, newRT(), gotOpts)
					if err != nil {
						t.Fatal(err)
					}

					if got.Runtime != want.Runtime {
						t.Errorf("Runtime = %q, want %q", got.Runtime, want.Runtime)
					}
					if got.TotalCycles != want.TotalCycles {
						t.Errorf("TotalCycles = %d, want %d", got.TotalCycles, want.TotalCycles)
					}
					if got.StallCycles != want.StallCycles {
						t.Errorf("StallCycles = %d, want %d", got.StallCycles, want.StallCycles)
					}
					if !reflect.DeepEqual(got.Phases, want.Phases) {
						t.Errorf("Phases = %v, want %v", got.Phases, want.Phases)
					}
					if !reflect.DeepEqual(got.Executions(), want.Executions) {
						t.Errorf("Executions = %v, want %v", got.Executions(), want.Executions)
					}
					if !reflect.DeepEqual(got.SWExecutions(), want.SWExecutions) {
						t.Errorf("SWExecutions = %v, want %v", got.SWExecutions(), want.SWExecutions)
					}
					if !reflect.DeepEqual(got.HWExecutions(), want.HWExecutions) {
						t.Errorf("HWExecutions = %v, want %v", got.HWExecutions(), want.HWExecutions)
					}
					if (got.Histogram == nil) != (want.Histogram == nil) || (got.Timeline == nil) != (want.Timeline == nil) {
						t.Fatalf("artifacts collected: histogram %t, timeline %t; want %t, %t",
							got.Histogram != nil, got.Timeline != nil, want.Histogram != nil, want.Timeline != nil)
					}
					if want.Histogram != nil {
						if g, w := got.Histogram.Buckets(), want.Histogram.Buckets(); g != w {
							t.Errorf("Histogram.Buckets() = %d, want %d", g, w)
						}
						for _, si := range want.Histogram.SIs() {
							if g, w := got.Histogram.Counts(si), want.Histogram.Counts(si); !reflect.DeepEqual(g, w) {
								t.Errorf("Histogram.Counts(%d) = %v, want %v", si, g, w)
							}
						}
					}
					if want.Timeline != nil && !reflect.DeepEqual(got.Timeline.Events, want.Timeline.Events) {
						t.Errorf("Timeline events differ:\n got %v\nwant %v", got.Timeline.Events, want.Timeline.Events)
					}
					if !bytes.Equal(gotJournal.Bytes(), refJournal.Bytes()) {
						t.Errorf("journal bytes differ (%d vs %d bytes)", gotJournal.Len(), refJournal.Len())
						gl, wl := bytes.Split(gotJournal.Bytes(), []byte("\n")), bytes.Split(refJournal.Bytes(), []byte("\n"))
						for i := 0; i < len(gl) && i < len(wl); i++ {
							if !bytes.Equal(gl[i], wl[i]) {
								t.Errorf("first differing journal line %d:\n got %s\nwant %s", i, gl[i], wl[i])
								break
							}
						}
					}
				})
			}
		})
	}
}

// TestRunCompiledReuseEquivalence runs the same compiled trace twice into
// one reused Result and requires the second run to match a fresh one —
// i.e. reset() must fully clear all per-run state.
func TestRunCompiledReuseEquivalence(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	ct, err := workload.Compile(tr, is)
	if err != nil {
		t.Fatal(err)
	}
	rt := hefManager(is, ct)
	opts := sim.Options{HistogramBucket: 100_000, Timeline: true}

	fresh := new(sim.Result)
	if err := sim.RunCompiled(context.Background(), ct, rt, opts, fresh); err != nil {
		t.Fatal(err)
	}
	reused := new(sim.Result)
	for i := 0; i < 2; i++ {
		if err := sim.RunCompiled(context.Background(), ct, rt, opts, reused); err != nil {
			t.Fatal(err)
		}
	}

	if reused.TotalCycles != fresh.TotalCycles || reused.StallCycles != fresh.StallCycles {
		t.Errorf("reused run: cycles %d/%d, fresh %d/%d",
			reused.TotalCycles, reused.StallCycles, fresh.TotalCycles, fresh.StallCycles)
	}
	if !reflect.DeepEqual(reused.Executions(), fresh.Executions()) {
		t.Errorf("reused Executions = %v, want %v", reused.Executions(), fresh.Executions())
	}
	if !reflect.DeepEqual(reused.Phases, fresh.Phases) {
		t.Errorf("reused Phases = %v, want %v", reused.Phases, fresh.Phases)
	}
	for _, si := range fresh.Histogram.SIs() {
		if !reflect.DeepEqual(reused.Histogram.Counts(si), fresh.Histogram.Counts(si)) {
			t.Errorf("reused Histogram.Counts(%d) differs", si)
		}
	}
	if !reflect.DeepEqual(reused.Timeline.Events, fresh.Timeline.Events) {
		t.Errorf("reused Timeline differs")
	}
}
