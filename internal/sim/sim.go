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
// A phase runs as segments between runtime events. Latencies change only
// when an Atom load completes (Advance) or a hot spot is entered
// (EnterHotSpot), so each segment drains the due events, reads NextEvent
// and every hot-spot SI's Latency once, runs the bursts up to the next
// event, and then accounts and reports one Record per SI that ran. The
// runtime is called once per event, not once per burst.
//
// Within a segment the bursts run a block at a time: workload.Compile
// summarizes every full block of workload.BlockLen bursts (glue cycles and
// per-SI executions), and a block that ends at or before the next event
// runs in one step that costs O(hot-spot SIs). Only the block the event
// falls in, the tail of a phase, and runs collecting a histogram (which
// needs each burst's start) walk burst by burst.
//
// The hot path is allocation-free in the steady state: workload.Compile
// resolves the per-SI latencies and block summaries the inner loop needs
// once per trace, per-SI accounting lives in dense slices indexed by SIID,
// and RunCompiled reuses a caller-owned Result across runs. Run wraps this
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
// EnterHotSpot/LeaveHotSpot around every phase, asks Latency between
// events, reports executions via Record, and processes latency-changing
// events (Atom-load completions) via NextEvent/Advance.
//
// The simulator calls each method only as often as the contract below
// requires, so an implementation must keep to it:
//
//   - Latencies change only in EnterHotSpot and Advance (and in Reset and
//     RestoreState, before a run): the simulator reads them once per event
//     and reuses them until the next one.
//   - NextEvent is idempotent between Advances: calling it again without an
//     Advance in between returns the same answer. Its first call after
//     EnterHotSpot comes after the phase's setup cycles.
//   - Record(si, n, now) reports the n executions of si since its previous
//     report, the last of them ending at now. Within a phase now never
//     decreases from one Record to the next.
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
	// Record reports n executions of si since its previous report, the
	// last one ending at time now.
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
	// the ISA the trace was compiled against). The slices are views into
	// one shared backing array (dense), so a fresh Result costs one
	// allocation for all counters and scratch.
	dense   []int64
	execs   []int64
	swExecs []int64
	hwExecs []int64
	// Per-segment run scratch (see runner.runPhase): each SI's latency,
	// executions not yet reported, and the end of its last execution — or,
	// for an SI last seen in a block run in one step, ^k for block k with
	// segBlk holding that block's end.
	segLat []int64
	segN   []int64
	segEnd []int64
	segBlk []int64
	// lastLat is per-run journal scratch (latency change detection).
	lastLat []int64
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
	if cap(r.dense) < 8*nSIs {
		r.dense = make([]int64, 8*nSIs)
	}
	r.dense = r.dense[:8*nSIs]
	for i := range r.dense {
		r.dense[i] = 0
	}
	r.execs = r.dense[0*nSIs : 1*nSIs : 1*nSIs]
	r.swExecs = r.dense[1*nSIs : 2*nSIs : 2*nSIs]
	r.hwExecs = r.dense[2*nSIs : 3*nSIs : 3*nSIs]
	r.segLat = r.dense[3*nSIs : 4*nSIs : 4*nSIs]
	r.segN = r.dense[4*nSIs : 5*nSIs : 5*nSIs]
	r.segEnd = r.dense[5*nSIs : 6*nSIs : 6*nSIs]
	r.segBlk = r.dense[6*nSIs : 7*nSIs : 7*nSIs]
	r.lastLat = r.dense[7*nSIs : 8*nSIs : 8*nSIs]
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

// Run compiles the trace, simulates it on the runtime and returns the
// result. The runtime is Reset first, so a Runtime can be reused across
// runs. Run compiles on every call; callers running the same trace
// repeatedly, or needing cancellation, should Compile once and use
// RunCompiled.
func Run(tr *workload.Trace, is *isa.ISA, rt Runtime, opts Options) (*Result, error) {
	ct, err := workload.Compile(tr, is)
	if err != nil {
		return nil, err
	}
	res := new(Result)
	if err := RunCompiled(context.Background(), ct, rt, opts, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunCompiled simulates a pre-compiled trace into a caller-owned Result,
// reusing the Result's internal buffers: repeated runs into the same Result
// allocate nothing in the steady state (without journal or histogram
// collection). The runtime is Reset first. The context is checked between
// simulation events (phase boundaries and Atom-load completions — not per
// simulated cycle, which would defeat the closed-form advance); on
// cancellation the error wraps ctx.Err(). On error the Result holds the
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
		if r.js != nil && r.res.lastLat[si] != int64(lat) {
			r.res.lastLat[si] = int64(lat)
			r.js.emit(JournalEvent{Cycle: at, Event: "latency", SI: int(si), Latency: lat})
		}
	}
}

// drain processes all pending events up to and including time limit and
// returns the next event still pending after them, if any.
func (r *runner) drain(limit int64, spot []isa.SIID) (next int64, pending bool) {
	for {
		if r.canceled() {
			return 0, false
		}
		at, ok := r.rt.NextEvent()
		if !ok || at > limit {
			return at, ok
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

// runPhase executes one hot-spot phase of the compiled trace as segments
// between runtime events. A segment reads every hot-spot SI's latency once
// and runs the bursts at those latencies until the next event is due; the
// burst that straddles the event is split there, since executions that
// start before the event keep the current latency. At a block boundary, a
// block that ends at or before the event runs in one step from its
// summary: every execution in it starts before the event, so the walk
// would split none of them. The segment's executions then reach the
// accounting and the runtime through flush.
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

	lat, segN, segEnd, segBlk := res.segLat, res.segN, res.segEnd, res.segBlk
	// A histogram needs each burst's start, so it walks every burst.
	nBlocks, stride := 0, 1+len(p.Spot)
	if res.Histogram == nil {
		nBlocks = len(p.Blocks) / stride
	}
	bi, done := 0, int64(0) // the current burst and its executions already run
	for {
		next, pending := r.drain(r.now, p.Spot)
		if r.cancelErr != nil {
			return r.cancelErr
		}
		if bi == len(p.Bursts) {
			break
		}
		for _, si := range p.Spot {
			lat[si] = int64(rt.Latency(si))
		}
		for bi < len(p.Bursts) {
			if k := bi / workload.BlockLen; done == 0 && bi%workload.BlockLen == 0 && k < nBlocks {
				blk := p.Blocks[k*stride : (k+1)*stride]
				end := r.now + blk[0]
				for i, si := range p.Spot {
					end += lat[si] * blk[1+i]
				}
				if !pending || end <= next {
					for i, si := range p.Spot {
						if n := blk[1+i]; n > 0 {
							segN[si] += n
							segEnd[si], segBlk[si] = ^int64(k), end
						}
					}
					r.now = end
					bi += workload.BlockLen
					if r.maxCycles > 0 && r.now > r.maxCycles {
						return fmt.Errorf("sim: exceeded MaxCycles=%d at phase %d", r.maxCycles, pi)
					}
					if pending && r.now >= next {
						break
					}
					continue
				}
			}
			b := &p.Bursts[bi]
			n := int64(b.Count) - done
			if n == 0 {
				bi++ // a zero-count burst runs nothing and touches nothing
				continue
			}
			per := lat[b.SI] + int64(b.Gap)
			if pending && r.now+(n-1)*per >= next {
				// drain left next > r.now. Executions whose start time is
				// before the event keep the current latency.
				n = (next - r.now + per - 1) / per
			}
			if res.Histogram != nil {
				res.Histogram.Add(int(b.SI), r.now, n, per)
			}
			r.now += n * per
			segN[b.SI] += n
			segEnd[b.SI] = r.now
			if r.maxCycles > 0 && r.now > r.maxCycles {
				return fmt.Errorf("sim: exceeded MaxCycles=%d at phase %d", r.maxCycles, pi)
			}
			if done += n; done == int64(b.Count) {
				bi, done = bi+1, 0
			}
			if pending && r.now >= next {
				break
			}
		}
		r.flush(ct, p)
	}
	rt.LeaveHotSpot(r.now)
	if r.js != nil {
		r.js.emit(JournalEvent{Cycle: r.now, Event: "leave", HotSpot: int(p.HotSpot)})
	}
	res.Phases = append(res.Phases, PhaseStat{HotSpot: p.HotSpot, Start: phaseStart, End: r.now})
	return nil
}

// flush accounts a segment's executions — all of an SI's ran at its
// segment latency — and reports them: one Record per SI that ran, in
// ascending order of its last execution's end. Record's effects are
// commutative counts plus recency stamps where the latest write wins, so
// this order leaves every stamp where one Record per burst would have left
// it: a slot shared by several SIs ends up stamped by the one that ran
// last.
func (r *runner) flush(ct *workload.Compiled, p *workload.CompiledPhase) {
	res := r.res
	lat, segN, segEnd := res.segLat, res.segN, res.segEnd
	for _, si := range p.Spot {
		n := segN[si]
		if n == 0 {
			continue
		}
		l := lat[si]
		res.execs[si] += n
		if l >= int64(ct.SWLatency[si]) {
			res.swExecs[si] += n
		} else {
			res.hwExecs[si] += n
		}
		res.StallCycles += n * (l - int64(ct.FastestLatency[si]))
		if segEnd[si] < 0 {
			segEnd[si] = lastEnd(p, lat, si, int(^segEnd[si]), res.segBlk[si])
		}
	}
	for {
		first := -1
		for i, si := range p.Spot {
			if segN[si] > 0 && (first < 0 || segEnd[si] < segEnd[p.Spot[first]]) {
				first = i
			}
		}
		if first < 0 {
			return
		}
		si := p.Spot[first]
		r.rt.Record(si, segN[si], segEnd[si])
		segN[si] = 0
	}
}

// lastEnd returns the end of si's last execution in block k of p, which
// ran whole at latencies lat and ended at end: it walks the block backward
// from its last burst to si's last burst that ran anything.
func lastEnd(p *workload.CompiledPhase, lat []int64, si isa.SIID, k int, end int64) int64 {
	for j := (k+1)*workload.BlockLen - 1; ; j-- {
		b := &p.Bursts[j]
		if b.SI == si && b.Count > 0 {
			return end
		}
		end -= int64(b.Count) * (lat[b.SI] + int64(b.Gap))
	}
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
