// Package sim is the cycle-level discrete-event simulator of the RISPP
// evaluation platform: it executes a workload trace (hot-spot phases of SI
// bursts) against a pluggable run-time system (the RISPP Run-Time Manager
// of internal/core or the Molen-like baseline of internal/molen), modelling
// the concurrency between SI execution and background reconfiguration.
//
// The simulator advances in closed form between latency-changing events
// (Atom-load completions), so simulating billions of cycles costs time
// proportional to the number of bursts and reconfigurations, not cycles.
//
// The hot path is allocation-free in the steady state: traces are lowered
// by workload.Compile into flat burst arrays with pre-resolved SI metadata,
// per-SI accounting lives in dense slices indexed by SIID, and RunCompiled
// reuses a caller-owned Result across runs. Run/RunContext wrap this
// pipeline for one-shot use.
package sim

import (
	"context"
	"fmt"
	"io"

	"rispp/internal/isa"
	"rispp/internal/stats"
	"rispp/internal/workload"
)

// Runtime is the run-time system under simulation. The simulator calls
// EnterHotSpot/LeaveHotSpot around every phase, asks Latency before bursts,
// reports executions via Record, and processes latency-changing events
// (Atom-load completions) via NextEvent/Advance.
type Runtime interface {
	Name() string
	// Reset returns the runtime to its power-on state.
	Reset()
	// EnterHotSpot is invoked when the processor enters hot spot h at time
	// now; the runtime typically forecasts, selects Molecules and schedules
	// Atom loads here.
	EnterHotSpot(h isa.HotSpotID, now int64)
	// LeaveHotSpot is invoked when the phase ends.
	LeaveHotSpot(now int64)
	// Latency returns the current per-execution latency of si in cycles.
	// It must be a pure query: the simulator polls it at different rates
	// depending on which measurement artifacts are collected.
	Latency(si isa.SIID) int
	// Record reports n back-to-back executions of si ending at time now.
	Record(si isa.SIID, n int64, now int64)
	// NextEvent returns the time of the next latency-changing event, or
	// ok = false when none is pending.
	NextEvent() (at int64, ok bool)
	// Advance processes the single event returned by NextEvent; t must
	// equal that time.
	Advance(t int64)
}

// Options control what a simulation run collects.
type Options struct {
	// HistogramBucket, when > 0, collects per-SI execution histograms with
	// this bucket width in cycles (the paper uses 100,000).
	HistogramBucket int64
	// Timeline, when true, records SI latency steps (Figure 8 lines).
	Timeline bool
	// MaxCycles aborts the run when simulated time exceeds it (0 = no
	// limit); a safety harness for tests.
	MaxCycles int64
	// Journal, when non-nil, receives one JSON object per line for every
	// simulation event (phase entry/exit, Atom-load completions, SI latency
	// changes) — a machine-readable replay log for external analysis.
	// Events are encoded without encoding/json and buffered internally;
	// the buffer is flushed (with a single latched error) before the run
	// returns, so the writer needs no extra buffering of its own.
	Journal io.Writer
}

// JournalEvent is one line of the simulation journal.
type JournalEvent struct {
	Cycle   int64  `json:"t"`
	Event   string `json:"ev"`      // "enter", "leave", "load", "latency"
	HotSpot int    `json:"hotspot"` // enter/leave
	SI      int    `json:"si"`      // latency
	Latency int    `json:"lat"`     // latency
}

// PhaseStat records the boundaries of one executed hot-spot phase.
type PhaseStat struct {
	HotSpot isa.HotSpotID
	Start   int64
	End     int64
}

// Cycles returns the duration of the phase.
func (p PhaseStat) Cycles() int64 { return p.End - p.Start }

// Result aggregates the outcome of one simulation run. Per-SI accounting
// is stored densely (slices indexed by SIID); the map accessors build the
// classic map form on demand at the API boundary. A Result can be reused
// across RunCompiled calls to eliminate steady-state allocations.
type Result struct {
	Runtime     string
	TotalCycles int64
	// StallCycles counts cycles spent in SI executions beyond what the
	// fastest Molecule of each SI would have needed — the price of not yet
	// (or never) being fully composed.
	StallCycles int64
	// Phases records the boundaries of every executed hot-spot phase.
	Phases []PhaseStat

	Histogram *stats.Histogram
	Timeline  *stats.Timeline

	// Dense per-SI accounting, indexed by SIID (length: number of SIs of
	// the ISA the trace was compiled against). The three slices are views
	// into one shared backing array (dense), so a fresh Result costs one
	// allocation for all counters.
	dense   []int64
	execs   []int64
	swExecs []int64
	hwExecs []int64
	// lastLat is per-run journal scratch (latency change detection).
	lastLat []int
}

// Executions returns the per-SI execution counts as a map with one entry
// per executed SI — the classic map form of the accounting.
func (r *Result) Executions() map[isa.SIID]int64 { return denseToMap(r.execs) }

// SWExecutions returns, per SI, the executions that ran via the base-ISA
// trap (one map entry per SI with at least one software execution).
func (r *Result) SWExecutions() map[isa.SIID]int64 { return denseToMap(r.swExecs) }

// HWExecutions returns, per SI, the executions that ran on composed
// Molecules (one map entry per SI with at least one hardware execution).
func (r *Result) HWExecutions() map[isa.SIID]int64 { return denseToMap(r.hwExecs) }

// ExecutionsOf returns the execution count of one SI without building a map.
func (r *Result) ExecutionsOf(si isa.SIID) int64 { return denseAt(r.execs, si) }

// SWExecutionsOf returns the software (trap) execution count of one SI.
func (r *Result) SWExecutionsOf(si isa.SIID) int64 { return denseAt(r.swExecs, si) }

// HWExecutionsOf returns the hardware (Molecule) execution count of one SI.
func (r *Result) HWExecutionsOf(si isa.SIID) int64 { return denseAt(r.hwExecs, si) }

// TotalExecutions returns the total SI executions of the run.
func (r *Result) TotalExecutions() int64 { return denseSum(r.execs) }

// TotalSWExecutions returns the total software (trap) SI executions.
func (r *Result) TotalSWExecutions() int64 { return denseSum(r.swExecs) }

// TotalHWExecutions returns the total hardware (Molecule) SI executions.
func (r *Result) TotalHWExecutions() int64 { return denseSum(r.hwExecs) }

// ExecutedSIs returns the SIs with at least one execution, in ascending
// SIID order.
func (r *Result) ExecutedSIs() []isa.SIID {
	var out []isa.SIID
	for si, n := range r.execs {
		if n != 0 {
			out = append(out, isa.SIID(si))
		}
	}
	return out
}

func denseAt(d []int64, si isa.SIID) int64 {
	if int(si) < 0 || int(si) >= len(d) {
		return 0
	}
	return d[si]
}

func denseSum(d []int64) int64 {
	var n int64
	for _, v := range d {
		n += v
	}
	return n
}

func denseToMap(d []int64) map[isa.SIID]int64 {
	m := make(map[isa.SIID]int64)
	for si, n := range d {
		if n != 0 {
			m[isa.SIID(si)] = n
		}
	}
	return m
}

// reset prepares the Result for a run over nSIs SIs and up to nPhases
// phases, reusing previous allocations where possible.
func (r *Result) reset(runtime string, nSIs, nPhases int, opts Options) {
	r.Runtime = runtime
	r.TotalCycles = 0
	r.StallCycles = 0
	if cap(r.dense) < 3*nSIs {
		r.dense = make([]int64, 3*nSIs)
	}
	r.dense = r.dense[:3*nSIs]
	for i := range r.dense {
		r.dense[i] = 0
	}
	r.execs = r.dense[0*nSIs : 1*nSIs : 1*nSIs]
	r.swExecs = r.dense[1*nSIs : 2*nSIs : 2*nSIs]
	r.hwExecs = r.dense[2*nSIs : 3*nSIs : 3*nSIs]
	if cap(r.lastLat) < nSIs {
		r.lastLat = make([]int, nSIs)
	} else {
		r.lastLat = r.lastLat[:nSIs]
		for i := range r.lastLat {
			r.lastLat[i] = 0
		}
	}
	if cap(r.Phases) < nPhases {
		r.Phases = make([]PhaseStat, 0, nPhases)
	} else {
		r.Phases = r.Phases[:0]
	}
	if opts.HistogramBucket > 0 {
		if r.Histogram != nil && r.Histogram.BucketCycles == opts.HistogramBucket {
			r.Histogram.Reset()
		} else {
			r.Histogram = stats.NewHistogram(opts.HistogramBucket)
		}
	} else {
		r.Histogram = nil
	}
	if opts.Timeline {
		if r.Timeline != nil {
			r.Timeline.Reset()
		} else {
			r.Timeline = &stats.Timeline{}
		}
	} else {
		r.Timeline = nil
	}
}

// Run simulates the trace on the runtime and returns the result. The
// runtime is Reset first, so a Runtime can be reused across runs.
func Run(tr *workload.Trace, is *isa.ISA, rt Runtime, opts Options) (*Result, error) {
	return RunContext(context.Background(), tr, is, rt, opts)
}

// RunContext is Run with cancellation: the context is checked between
// simulation events (phase boundaries and Atom-load completions — not per
// simulated cycle, which would defeat the closed-form advance). On
// cancellation it returns an error wrapping ctx.Err().
//
// RunContext compiles the trace on every call; callers running the same
// trace repeatedly should Compile once and use RunCompiled.
func RunContext(ctx context.Context, tr *workload.Trace, is *isa.ISA, rt Runtime, opts Options) (*Result, error) {
	ct, err := workload.Compile(tr, is)
	if err != nil {
		return nil, err
	}
	res := new(Result)
	if err := RunCompiled(ctx, ct, rt, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunCompiled simulates a pre-compiled trace into a caller-owned Result,
// reusing the Result's internal buffers: repeated runs into the same Result
// allocate nothing in the steady state (without journal or histogram
// collection). The runtime is Reset first. On error the Result holds the
// partial state of the aborted run and must not be interpreted.
func RunCompiled(ctx context.Context, ct *workload.Compiled, rt Runtime, opts Options, res *Result) error {
	rt.Reset()
	res.reset(rt.Name(), ct.NumSIs, len(ct.Phases), opts)
	return runFrom(ctx, ct, rt, opts, res, 0, 0)
}

// runFrom simulates phases from..len(ct.Phases)-1 of ct on rt, starting at
// cycle now, into res: from power-on (RunCompiled) or from a restored trail
// (ResumeCompiled). The journal, if any, is flushed before it returns.
func runFrom(ctx context.Context, ct *workload.Compiled, rt Runtime, opts Options, res *Result, from int, now int64) error {
	var js *journalState
	if opts.Journal != nil {
		js = newJournalState(opts.Journal)
	}
	r := runner{
		ctx:       ctx,
		done:      ctx.Done(), // nil for context.Background(): free check
		rt:        rt,
		res:       res,
		js:        js,
		now:       now,
		maxCycles: opts.MaxCycles,
	}
	err := r.run(ct, from)
	if js != nil {
		if jerr := js.close(); err == nil {
			err = jerr
		}
	}
	return err
}

// runner is the per-run simulator state; it lives on the stack of
// RunCompiled so the steady-state run path allocates nothing.
type runner struct {
	ctx       context.Context
	done      <-chan struct{}
	rt        Runtime
	res       *Result
	js        *journalState
	now       int64
	maxCycles int64
	cancelErr error
}

func (r *runner) canceled() bool {
	if r.done == nil || r.cancelErr != nil {
		return r.cancelErr != nil
	}
	select {
	case <-r.done:
		r.cancelErr = fmt.Errorf("sim: canceled at cycle %d: %w", r.now, r.ctx.Err())
		return true
	default:
		return false
	}
}

// recordLats polls the runtime's current SI latencies for the timeline and
// the journal's latency-change events. Without either artifact it is a
// no-op: Latency is a pure query, so skipping the poll cannot change the
// simulation.
func (r *runner) recordLats(at int64, spot []isa.SIID) {
	if r.js == nil && r.res.Timeline == nil {
		return
	}
	for _, si := range spot {
		lat := r.rt.Latency(si)
		if r.res.Timeline != nil {
			r.res.Timeline.Record(at, int(si), lat)
		}
		if r.js != nil && r.res.lastLat[si] != lat {
			r.res.lastLat[si] = lat
			r.js.emit(JournalEvent{Cycle: at, Event: "latency", SI: int(si), Latency: lat})
		}
	}
}

// drain processes all pending events up to and including time limit.
func (r *runner) drain(limit int64, spot []isa.SIID) {
	for {
		if r.canceled() {
			return
		}
		at, ok := r.rt.NextEvent()
		if !ok || at > limit {
			return
		}
		r.rt.Advance(at)
		if r.js != nil {
			r.js.emit(JournalEvent{Cycle: at, Event: "load"})
		}
		r.recordLats(at, spot)
	}
}

func (r *runner) run(ct *workload.Compiled, from int) error {
	for pi := from; pi < len(ct.Phases); pi++ {
		if err := r.runPhase(ct, pi); err != nil {
			return err
		}
	}
	r.res.TotalCycles = r.now
	return nil
}

// runPhase executes one hot-spot phase of the compiled trace.
func (r *runner) runPhase(ct *workload.Compiled, pi int) error {
	rt, res := r.rt, r.res
	if r.canceled() {
		return r.cancelErr
	}
	p := &ct.Phases[pi]
	phaseStart := r.now
	rt.EnterHotSpot(p.HotSpot, r.now)
	if r.js != nil {
		r.js.emit(JournalEvent{Cycle: r.now, Event: "enter", HotSpot: int(p.HotSpot)})
	}
	r.recordLats(r.now, p.Spot)
	r.now += p.Setup
	r.drain(r.now, p.Spot)

	for bi := range p.Bursts {
		b := &p.Bursts[bi]
		remaining := b.Count
		for remaining > 0 {
			r.drain(r.now, p.Spot)
			if r.cancelErr != nil {
				return r.cancelErr
			}
			lat := rt.Latency(b.SI)
			per := int64(lat) + b.Gap
			n := remaining
			if next, ok := rt.NextEvent(); ok && next > r.now {
				// Executions whose start time is before the event keep
				// the current latency.
				if k := (next - r.now + per - 1) / per; k < n {
					n = k
				}
			}
			if res.Histogram != nil {
				res.Histogram.Add(int(b.SI), r.now, n, per)
			}
			res.execs[b.SI] += n
			if lat >= b.SWLatency {
				res.swExecs[b.SI] += n
			} else {
				res.hwExecs[b.SI] += n
			}
			res.StallCycles += n * int64(lat-b.FastestLatency)
			r.now += n * per
			remaining -= n
			rt.Record(b.SI, n, r.now)
			if r.maxCycles > 0 && r.now > r.maxCycles {
				return fmt.Errorf("sim: exceeded MaxCycles=%d at phase %d", r.maxCycles, pi)
			}
		}
	}
	r.drain(r.now, p.Spot)
	if r.cancelErr != nil {
		return r.cancelErr
	}
	rt.LeaveHotSpot(r.now)
	if r.js != nil {
		r.js.emit(JournalEvent{Cycle: r.now, Event: "leave", HotSpot: int(p.HotSpot)})
	}
	res.Phases = append(res.Phases, PhaseStat{HotSpot: p.HotSpot, Start: phaseStart, End: r.now})
	return nil
}

// Software returns the trivial runtime with no reconfigurable hardware at
// all: every SI always executes through the base-ISA trap. It models the
// paper's 0-Atom-Container data point (7,403M cycles).
func Software(is *isa.ISA) Runtime { return &swRuntime{is: is} }

type swRuntime struct{ is *isa.ISA }

func (r *swRuntime) Name() string                      { return "software" }
func (r *swRuntime) Reset()                            {}
func (r *swRuntime) EnterHotSpot(isa.HotSpotID, int64) {}
func (r *swRuntime) LeaveHotSpot(int64)                {}
func (r *swRuntime) Latency(si isa.SIID) int           { return r.is.SI(si).SWLatency }
func (r *swRuntime) Record(isa.SIID, int64, int64)     {}
func (r *swRuntime) NextEvent() (int64, bool)          { return 0, false }
func (r *swRuntime) Advance(int64)                     { panic("sim: software runtime has no events") }

// The software runtime has no containers and no mutable state, so its
// budget is 0 and it checkpoints trivially.
func (r *swRuntime) ContainerBudget() int { return 0 }
func (r *swRuntime) NewState() any        { return nil }
func (r *swRuntime) SaveState(any)        {}
func (r *swRuntime) RestoreState(any)     {}
