// Delta-resimulation: checkpoint/restore on sim.Runtime so consecutive
// sweep/search points that differ only in the Atom-Container budget reuse
// the simulation prefix up to the first decision the budget could have
// changed.
//
// A recording run (RunCompiledTrail) snapshots the runtime and the Result
// at hot-spot phase boundaries into a Trail. Not every boundary is kept:
// a rolling snapshot tracks the most recent boundary and is promoted into
// the ladder exactly when the just-finished phase raised the run's
// container demand or fired the first budget-dependent filter — so the
// ladder holds, per demand level, the deepest boundary whose prefix is
// still transferable to that budget class, plus the final state of the run.
//
// Transfer legality rests on two facts about the decision procedures:
//
//   - Greedy argmax stability: selection and scheduling choose by strictly-
//     better comparisons over a candidate list in deterministic order. The
//     budget only acts as a filter on candidates; every committed winner
//     needs ≤ demand containers, so on any budget ≥ demand the filter
//     removes only losing candidates and the winners — hence the entire
//     decision sequence — are unchanged.
//   - Contiguous occupancy: while no eviction has occurred, installs fill
//     containers first-free-first, so occupied slots are a prefix of the
//     array and the state transfers verbatim to an array of different size
//     ≥ the peak occupancy.
//
// A prefix recorded at budget n therefore replays exactly at budget n'
// when n' == n (trivially), when n' < n and the prefix demand ≤ n', or
// when n' > n and no budget-dependent filter fired at all (upOK). Runtimes
// report these two quantities via Checkpointable.BudgetSensitivity;
// features whose budget dependence resists the analysis (exhaustive
// selection, prefetching, SetBudget) report maximal sensitivity, which
// disables transfers without affecting correctness.
//
// Runs collecting a journal participate through a tee: the recording run's
// journal bytes are captured alongside the user's writer with per-boundary
// offsets, and a resumed run replays the byte prefix verbatim — restored
// runs are field-exact including journal bytes, which the oracle corpus
// pins.
//
// Trails also transfer along the trace axis, extend-only: a trail recorded
// on a trace resumes a longer trace that verifiably begins with it
// (workload.Compiled.Extends — equal phases, bursts and hot-spot sets, and
// no hot spot first appearing after the prefix, so forecast seeds agree).
// The recorded run's states at every boundary of the shared prefix are then
// exactly the longer run's states, and the budget rules above apply
// unchanged. Everything else is refused, never guessed: a same-length trace
// that is not the recorded object and any shorter trace (no truncation
// serves).
package sim

import (
	"context"
	"fmt"
	"io"

	"rispp/internal/workload"
)

// Checkpointable is a Runtime that supports delta-resimulation: saving and
// restoring its complete mutable state at phase boundaries, and reporting
// how the run so far depended on the container budget. States are opaque
// (NewState/SaveState/RestoreFrom use the runtime's own concrete type).
//
// Transfer contract: a state saved by one runtime may be restored into
// another only when their configurations differ at most in the container
// budget and in the trace their forecasts were seeded from, and those
// traces seed identically. The simulator checks the trace side itself
// (ResumeCompiled accepts the recorded trace or a verified extension of
// it); the runtime side — same ISA, scheduler, policies and seeding mode —
// is the caller's, which is why callers key trails by exactly those knobs.
type Checkpointable interface {
	Runtime
	// ContainerBudget returns the budget axis value of this runtime.
	ContainerBudget() int
	// NewState allocates an empty state arena for SaveState. A runtime
	// without mutable state may return nil; its rungs then hold no runtime
	// state and RestoreState receives nil.
	NewState() any
	// SaveState deep-copies the runtime's mutable state into a NewState
	// value; only legal at a phase boundary (between hot spots).
	SaveState(dst any)
	// RestoreState overwrites the runtime's state with a saved one,
	// replacing the Reset a fresh run would perform.
	RestoreState(src any)
	// BudgetSensitivity reports the run-so-far's container demand and
	// whether it is transferable to larger budgets.
	BudgetSensitivity() (demand int, upOK bool)
}

// DeltaEligible reports whether runs with these options can be recorded
// into or served from a Trail: histogram and timeline collection sample the
// run mid-phase in ways snapshots do not capture, and MaxCycles is a test
// harness not worth the bookkeeping. Journals are eligible (see the tee).
func DeltaEligible(opts Options) bool {
	return opts.HistogramBucket <= 0 && !opts.Timeline && opts.MaxCycles <= 0
}

// resultSnap is the Result accumulator state at a phase boundary.
type resultSnap struct {
	stall   int64
	execs   []int64
	swExecs []int64
	hwExecs []int64
	lastLat []int
	phases  []PhaseStat
}

func (s *resultSnap) save(res *Result) {
	s.stall = res.StallCycles
	s.execs = append(s.execs[:0], res.execs...)
	s.swExecs = append(s.swExecs[:0], res.swExecs...)
	s.hwExecs = append(s.hwExecs[:0], res.hwExecs...)
	s.lastLat = append(s.lastLat[:0], res.lastLat...)
	s.phases = append(s.phases[:0], res.Phases...)
}

// restore overwrites a freshly reset Result with the snapshot state.
func (s *resultSnap) restore(res *Result) {
	res.StallCycles = s.stall
	res.execs = append(res.execs[:0], s.execs...)
	res.swExecs = append(res.swExecs[:0], s.swExecs...)
	res.hwExecs = append(res.hwExecs[:0], s.hwExecs...)
	res.lastLat = append(res.lastLat[:0], s.lastLat...)
	res.Phases = append(res.Phases[:0], s.phases...)
}

// trailSnap is one rung of the checkpoint ladder: the complete simulation
// state after `phase` phases. demand/upOK describe the prefix up to here.
type trailSnap struct {
	phase   int // completed phases; resume at ct.Phases[phase]
	now     int64
	demand  int
	upOK    bool
	joff    int // journal bytes emitted by the prefix (hasJournal trails)
	rtState any
	res     resultSnap
}

// Trail is the checkpoint ladder of one recorded simulation run. A Trail is
// immutable once complete, so concurrent readers need no locking; an
// incomplete Trail (recording failed mid-run) must be discarded.
//
// A trail remembers the identity of the compiled trace it recorded — by
// pointer, since workload.Compiled is immutable and callers (the Runner's
// compile memo) hold one canonical *Compiled per workload. Serve accepts
// only that very object; ResumeCompiled also accepts a longer trace that
// workload.Compiled.Extends vouches for. Any other trace is refused: under
// ISA-switching workloads two different traces can agree on phase count and
// still schedule completely differently, and a silently wrong resume is the
// one failure mode delta-resimulation must never have.
type Trail struct {
	name       string
	budget     int
	ct         *workload.Compiled
	complete   bool
	hasJournal bool
	snaps      []trailSnap
	jbuf       []byte
}

// Complete reports whether the trail captured a full run and may serve
// resumes.
func (t *Trail) Complete() bool { return t.complete }

func (t *Trail) reset(name string, budget int, ct *workload.Compiled, journal bool) {
	t.name = name
	t.budget = budget
	t.ct = ct
	t.complete = false
	t.hasJournal = journal
	t.snaps = t.snaps[:0]
	t.jbuf = t.jbuf[:0]
}

// rung returns the ladder index a run of ct at budget with opts may
// continue from, or -1 when the trail cannot be used for it: incomplete,
// ineligible options, a journal the trail did not capture, a trace that is
// neither the recorded one nor a verified extension of it, or no rung that
// transfers to the budget.
func (t *Trail) rung(ct *workload.Compiled, budget int, opts Options) int {
	if !t.complete || !DeltaEligible(opts) || (opts.Journal != nil && !t.hasJournal) {
		return -1
	}
	if t.ct != ct && !ct.Extends(t.ct) {
		return -1
	}
	return t.resumeIndex(budget)
}

// ResumeDepth reports how many leading phases of ct a run at budget with
// opts skips by using this trail: len(ct.Phases) when Serve satisfies the
// run outright, fewer when ResumeCompiled restores that many phases and
// simulates the rest, and 0 when the trail cannot be used. Callers holding
// several trails pick the deepest; the legality checks stay here, so no
// caller can vouch for a trace on the trail's behalf.
func (t *Trail) ResumeDepth(ct *workload.Compiled, budget int, opts Options) int {
	if i := t.rung(ct, budget, opts); i >= 0 {
		return t.snaps[i].phase
	}
	return 0
}

// resumeIndex returns the deepest ladder rung whose prefix transfers to
// budget, or -1. Valid rungs form a prefix of the ladder: demand is
// nondecreasing and upOK monotone along the run.
func (t *Trail) resumeIndex(budget int) int {
	best := -1
	for i := range t.snaps {
		s := &t.snaps[i]
		switch {
		case budget == t.budget:
			// Same budget: the whole recorded run replays verbatim.
		case budget < t.budget:
			if s.demand > budget {
				continue
			}
		default:
			if !s.upOK {
				continue
			}
		}
		best = i
	}
	return best
}

// trailWriter appends the journal byte stream into the trail (the tee
// target next to the user's writer).
type trailWriter struct{ t *Trail }

func (w trailWriter) Write(p []byte) (int, error) {
	w.t.jbuf = append(w.t.jbuf, p...)
	return len(p), nil
}

// trailRec drives trail recording from the runner's phase-boundary hook.
type trailRec struct {
	rt    Checkpointable
	t     *Trail
	roll  *trailSnap // rolling snapshot of the most recent boundary
	lastD int
	lastU bool
}

// boundary snapshots the state after `phase` completed phases. When the
// just-run phase raised demand or flipped upOK, the previous boundary was
// the deepest prefix of its budget class — promote its snapshot into the
// ladder before overwriting the rolling arena.
func (rec *trailRec) boundary(r *runner, phase int) {
	d, u := rec.rt.BudgetSensitivity()
	if rec.roll != nil && (d > rec.lastD || (rec.lastU && !u)) {
		rec.t.snaps = append(rec.t.snaps, *rec.roll)
		rec.roll = nil
	}
	if rec.roll == nil {
		rec.roll = &trailSnap{rtState: rec.rt.NewState()}
	}
	s := rec.roll
	s.phase = phase
	s.now = r.now
	s.demand = d
	s.upOK = u
	rec.rt.SaveState(s.rtState)
	s.res.save(r.res)
	if r.js != nil && rec.t.hasJournal {
		r.js.bw.Flush() // make jbuf complete up to this boundary
		s.joff = len(rec.t.jbuf)
	}
	rec.lastD, rec.lastU = d, u
}

// finish promotes the final boundary and seals the trail.
func (rec *trailRec) finish() {
	if rec.roll != nil {
		rec.t.snaps = append(rec.t.snaps, *rec.roll)
		rec.roll = nil
	}
	rec.t.complete = true
}

// RunCompiledTrail is RunCompiled recording a checkpoint trail into t for
// later delta-resimulation. opts must be DeltaEligible. On error the trail
// is left incomplete and must be discarded.
func RunCompiledTrail(ctx context.Context, ct *workload.Compiled, rt Checkpointable, opts Options, res *Result, t *Trail) error {
	if !DeltaEligible(opts) {
		return fmt.Errorf("sim: options are not delta-eligible; use RunCompiled")
	}
	t.reset(rt.Name(), rt.ContainerBudget(), ct, opts.Journal != nil)
	rt.Reset()
	res.reset(rt.Name(), ct.NumSIs, len(ct.Phases), opts)
	var js *journalState
	if opts.Journal != nil {
		js = newJournalState(io.MultiWriter(opts.Journal, trailWriter{t}))
	}
	rec := trailRec{rt: rt, t: t, lastU: true}
	r := runner{
		ctx:  ctx,
		done: ctx.Done(),
		rt:   rt,
		res:  res,
		js:   js,
		rec:  &rec,
	}
	err := r.run(ct)
	if js != nil {
		if jerr := js.close(); err == nil {
			err = jerr
		}
	}
	if err != nil {
		return err
	}
	rec.finish()
	return nil
}

// Serve satisfies a run for the given budget entirely from the trail — no
// runtime, no simulation — when the deepest transferable snapshot is the
// end of the recorded run (always the case for the recording run's own
// budget, and for any budget when the whole run was budget-insensitive).
// ct must be the recorded trace itself. It fills res (and replays the
// journal bytes when opts.Journal is set) and reports whether it could
// serve.
func (t *Trail) Serve(ct *workload.Compiled, budget int, opts Options, res *Result) (bool, error) {
	if t.ct != ct {
		return false, nil
	}
	i := t.rung(ct, budget, opts)
	if i < 0 || t.snaps[i].phase != len(ct.Phases) {
		return false, nil
	}
	snap := &t.snaps[i]
	res.reset(t.name, ct.NumSIs, len(ct.Phases), opts)
	snap.res.restore(res)
	res.TotalCycles = snap.now
	if opts.Journal != nil {
		if _, err := opts.Journal.Write(t.jbuf); err != nil {
			return true, fmt.Errorf("sim: journal: %w", err)
		}
	}
	return true, nil
}

// ResumeCompiled runs ct on rt for rt.ContainerBudget(), reusing the
// longest transferable prefix of src instead of simulating from power-on.
// ct is src's recorded trace or a verified extension of it (see Trail). It
// restores the deepest legal snapshot into rt, replays the prefix's journal
// bytes if a journal is collected, and simulates only the remaining phases.
// rec, when non-nil, receives a complete trail of THIS run on ct (prefix
// snapshots shared with src — trails are immutable once complete, so
// sharing is safe), making the budget and trace available for future full
// skips.
//
// The first return reports whether src was used; when false (ineligible
// options, incomplete or mismatched trail, no transferable snapshot, or a
// journal requested from a journal-less trail) the caller falls back to
// RunCompiled/RunCompiledTrail. res is field-exact identical — journal
// bytes included — to a fresh run of rt, which the oracle corpus pins.
func ResumeCompiled(ctx context.Context, ct *workload.Compiled, rt Checkpointable, opts Options, res *Result, src *Trail, rec *Trail) (bool, error) {
	budget := rt.ContainerBudget()
	i := src.rung(ct, budget, opts)
	if i < 0 {
		return false, nil
	}
	wantJ := opts.Journal != nil
	snap := &src.snaps[i]

	res.reset(rt.Name(), ct.NumSIs, len(ct.Phases), opts)
	snap.res.restore(res)
	if snap.phase == len(ct.Phases) {
		// Full skip (callers that checked Serve first never reach this).
		res.TotalCycles = snap.now
		if wantJ {
			if _, err := opts.Journal.Write(src.jbuf); err != nil {
				return true, fmt.Errorf("sim: journal: %w", err)
			}
		}
		return true, nil
	}

	var recorder *trailRec
	if rec != nil && rec != src {
		rec.reset(rt.Name(), budget, ct, wantJ)
		rec.snaps = append(rec.snaps[:0], src.snaps[:i+1]...)
		recorder = &trailRec{rt: rt, t: rec, lastD: snap.demand, lastU: snap.upOK}
	}

	var js *journalState
	if wantJ {
		var w io.Writer = opts.Journal
		if recorder != nil {
			w = io.MultiWriter(opts.Journal, trailWriter{rec})
		}
		// The prefix bytes go out before the buffered encoder is set up, so
		// ordering is preserved; joff offsets stay valid in rec because its
		// jbuf starts as exactly this prefix.
		if _, err := w.Write(src.jbuf[:snap.joff]); err != nil {
			return true, fmt.Errorf("sim: journal: %w", err)
		}
		js = newJournalState(w)
	}

	rt.RestoreState(snap.rtState)
	r := runner{
		ctx:  ctx,
		done: ctx.Done(),
		rt:   rt,
		res:  res,
		js:   js,
		now:  snap.now,
		rec:  recorder,
	}
	var err error
	for pi := snap.phase; pi < len(ct.Phases); pi++ {
		if err = r.runPhase(ct, pi); err != nil {
			break
		}
	}
	if err == nil {
		res.TotalCycles = r.now
	}
	if js != nil {
		if jerr := js.close(); err == nil {
			err = jerr
		}
	}
	if err != nil {
		return true, err
	}
	if recorder != nil {
		recorder.finish()
	}
	return true, nil
}
