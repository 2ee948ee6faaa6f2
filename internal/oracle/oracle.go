// Package oracle is the independent correctness oracle of the RISPP
// evaluation platform: a deliberately naive re-implementation of the
// run-time-system semantics written from DESIGN.md and the paper, against
// which the aggressively optimized hot path of internal/sim (compiled
// traces, dense accounting, pooled results) is cross-checked on arbitrary
// inputs.
//
// The package has three legs:
//
//   - Run, a per-event, per-execution, map-based reference interpreter. It
//     shares no code with the simulator's hot path: bursts are not chunked
//     in closed form, accounting lives in maps, journal events and latency
//     timelines are collected into plain slices. Diff compares its Result
//     against a sim.Result field by field.
//   - Check, a paper-invariant checker that validates any sim.Result
//     against structural properties that must hold regardless of scheduler
//     or workload (execution conservation, phase contiguity, the
//     cycles = best-case + stall identity, the pure-software upper bound,
//     timeline monotonicity).
//   - GenHardware / GenWorkload, a seeded deterministic generator of random
//     dynamic instruction sets and traces (with ShrinkTrace to minimize a
//     failing input), driving property, metamorphic and fuzz tests over all
//     six run-time systems.
//
// The oracle trades every optimization for obviousness — it is the
// executable specification the fast path must agree with, and the standing
// correctness gate future performance work must pass (make verify-oracle).
package oracle

import (
	"fmt"

	"rispp/internal/isa"
	"rispp/internal/workload"
)

// Runtime is the run-time system under test. It is a structural twin of
// sim.Runtime — deliberately re-declared here so the oracle depends only on
// the documented contract, not on the simulator package; any sim.Runtime
// (core.Manager, molen.Runtime, the software model) satisfies it as is.
//
// The contract, as sim.Runtime states it: latencies change only in
// EnterHotSpot and Advance (and in Reset and RestoreState, before a run);
// NextEvent is idempotent between Advances; and Record(si, n, now) reports
// the n executions of si since its previous report, the last one ending at
// now, with now never decreasing within a phase. Run asks for a latency
// and reports a Record per execution, so the simulator, which calls both
// once per event, is checked against the finest-grained use of the
// contract.
type Runtime interface {
	Name() string
	Reset()
	EnterHotSpot(h isa.HotSpotID, now int64)
	LeaveHotSpot(now int64)
	Latency(si isa.SIID) int
	Record(si isa.SIID, n int64, now int64)
	NextEvent() (at int64, ok bool)
	Advance(t int64)
}

// Options selects the measurement artifacts the oracle collects. They
// mirror sim.Options so a cross-check can compare every artifact.
type Options struct {
	// HistogramBucket, when > 0, collects per-SI execution histograms with
	// this bucket width in cycles.
	HistogramBucket int64
	// Timeline records SI latency steps.
	Timeline bool
	// Journal records the event journal (enter/leave/load/latency) in
	// memory; Diff compares it against the simulator's JSONL bytes.
	Journal bool
}

// Event is one journal event, mirroring sim.JournalEvent field by field.
type Event struct {
	Cycle   int64
	Event   string // "enter", "leave", "load", "latency"
	HotSpot int
	SI      int
	Latency int
}

// LatencyStep is one SI latency change, mirroring stats.LatencyEvent.
type LatencyStep struct {
	Cycle   int64
	SI      int
	Latency int
}

// PhaseStat records the boundaries of one executed hot-spot phase.
type PhaseStat struct {
	HotSpot isa.HotSpotID
	Start   int64
	End     int64
}

// Result is the oracle's map-based account of one run.
type Result struct {
	Runtime     string
	TotalCycles int64
	StallCycles int64

	Executions   map[isa.SIID]int64
	SWExecutions map[isa.SIID]int64
	HWExecutions map[isa.SIID]int64

	Phases []PhaseStat

	// Histogram maps SI → per-bucket execution counts (start-time bucketed)
	// when Options.HistogramBucket > 0.
	Histogram map[int][]int64
	// Timeline holds the deduplicated latency steps when Options.Timeline.
	Timeline []LatencyStep
	// Journal holds the event journal when Options.Journal.
	Journal []Event
}

// Run interprets the trace on the runtime one SI execution at a time.
//
// Semantics, from the paper's execution model (DESIGN.md §1, §3): the
// processor enters a hot spot (the runtime forecasts, selects and schedules
// Atom loads there), spends the phase's setup cycles, then executes each
// burst's SI executions back to back, every execution at the latency of the
// fastest currently available Molecule (or the trap), each followed by the
// burst's glue-cycle gap. Reconfiguration proceeds concurrently: an Atom
// load completing at cycle t upgrades the latency of every execution that
// starts at or after t. Stall cycles account each execution's distance from
// the SI's fastest Molecule.
func Run(tr *workload.Trace, is *isa.ISA, rt Runtime, opts Options) (*Result, error) {
	if err := tr.Validate(is); err != nil {
		return nil, err
	}
	for i := range is.SIs {
		s := &is.SIs[i]
		if s.ID != isa.SIID(i) {
			return nil, fmt.Errorf("oracle: SI %q has id %d at index %d (duplicate or misnumbered ids)", s.Name, s.ID, i)
		}
		if len(s.Molecules) == 0 {
			return nil, fmt.Errorf("oracle: SI %q has no hardware Molecule", s.Name)
		}
	}

	rt.Reset()
	res := &Result{
		Runtime:      rt.Name(),
		Executions:   make(map[isa.SIID]int64),
		SWExecutions: make(map[isa.SIID]int64),
		HWExecutions: make(map[isa.SIID]int64),
	}
	if opts.HistogramBucket > 0 {
		res.Histogram = make(map[int][]int64)
	}

	now := int64(0)
	lastLat := make(map[isa.SIID]int)

	emit := func(e Event) {
		if opts.Journal {
			res.Journal = append(res.Journal, e)
		}
	}
	timeline := func(at int64, si, lat int) {
		// Matches stats.Timeline.Record: drop an event whose latency equals
		// the SI's most recent recorded latency.
		for i := len(res.Timeline) - 1; i >= 0; i-- {
			if res.Timeline[i].SI == si {
				if res.Timeline[i].Latency == lat {
					return
				}
				break
			}
		}
		res.Timeline = append(res.Timeline, LatencyStep{Cycle: at, SI: si, Latency: lat})
	}
	// pollLatencies observes the current latency of every SI of the hot
	// spot — the timeline step and the journal's latency-change events.
	pollLatencies := func(at int64, spot []*isa.SI) {
		for _, s := range spot {
			lat := rt.Latency(s.ID)
			if opts.Timeline {
				timeline(at, int(s.ID), lat)
			}
			if opts.Journal && lastLat[s.ID] != lat {
				lastLat[s.ID] = lat
				emit(Event{Cycle: at, Event: "latency", SI: int(s.ID), Latency: lat})
			}
		}
	}
	// drain processes every pending Atom-load completion up to time limit.
	drain := func(limit int64, spot []*isa.SI) {
		for {
			at, ok := rt.NextEvent()
			if !ok || at > limit {
				return
			}
			rt.Advance(at)
			emit(Event{Cycle: at, Event: "load"})
			pollLatencies(at, spot)
		}
	}

	for pi := range tr.Phases {
		p := &tr.Phases[pi]
		spot := is.HotSpotSIs(p.HotSpot)
		start := now
		rt.EnterHotSpot(p.HotSpot, now)
		emit(Event{Cycle: now, Event: "enter", HotSpot: int(p.HotSpot)})
		pollLatencies(now, spot)
		now += p.Setup
		drain(now, spot)

		for _, b := range p.Bursts {
			s := is.SI(b.SI)
			for k := 0; k < b.Count; k++ {
				// Loads completing strictly before this execution starts
				// take effect first; one completing exactly now does too.
				drain(now, spot)
				lat := rt.Latency(b.SI)
				if res.Histogram != nil {
					bucket := int(now / opts.HistogramBucket)
					row := res.Histogram[int(b.SI)]
					for len(row) <= bucket {
						row = append(row, 0)
					}
					row[bucket]++
					res.Histogram[int(b.SI)] = row
				}
				res.Executions[b.SI]++
				if lat >= s.SWLatency {
					res.SWExecutions[b.SI]++
				} else {
					res.HWExecutions[b.SI]++
				}
				res.StallCycles += int64(lat - s.Fastest().Latency)
				now += int64(lat) + int64(b.Gap)
				rt.Record(b.SI, 1, now)
			}
		}
		drain(now, spot)
		rt.LeaveHotSpot(now)
		emit(Event{Cycle: now, Event: "leave", HotSpot: int(p.HotSpot)})
		res.Phases = append(res.Phases, PhaseStat{HotSpot: p.HotSpot, Start: start, End: now})
	}
	res.TotalCycles = now
	return res, nil
}

// Software is the oracle's own model of the plain base processor: every SI
// always executes through its trap implementation.
func Software(is *isa.ISA) Runtime { return &swRuntime{is: is} }

type swRuntime struct{ is *isa.ISA }

func (r *swRuntime) Name() string                      { return "software" }
func (r *swRuntime) Reset()                            {}
func (r *swRuntime) EnterHotSpot(isa.HotSpotID, int64) {}
func (r *swRuntime) LeaveHotSpot(int64)                {}
func (r *swRuntime) Latency(si isa.SIID) int           { return r.is.SI(si).SWLatency }
func (r *swRuntime) Record(isa.SIID, int64, int64)     {}
func (r *swRuntime) NextEvent() (int64, bool)          { return 0, false }
func (r *swRuntime) Advance(int64)                     { panic("oracle: software runtime has no events") }
