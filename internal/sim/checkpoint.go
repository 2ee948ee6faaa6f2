// Delta-resimulation: checkpoint/restore on sim.Runtime so a sweep or
// search point that repeats or extends an already simulated run reuses it
// instead of simulating from power-on.
//
// A recording run (RunCompiledTrail) seals the runtime's state and the
// Result at the end of the run into a Trail. The trail is then good for two
// things, both only at the container budget it was recorded at:
//
//   - the same run again: Trail.Serve fills the Result (and replays the
//     journal bytes) from the trail alone, without a runtime;
//   - a longer trace that verifiably begins with the recorded one
//     (workload.Compiled.Extends — equal phases, bursts and hot-spot sets,
//     and equal forecast seed tables): the recorded run's final state is
//     exactly the longer run's state at that boundary, so ResumeCompiled
//     restores it and simulates only the added phases.
//
// Everything else is refused, never guessed: another budget, a same-length
// trace that is not the recorded object, and any shorter trace (no
// truncation serves).
//
// Runs collecting a journal participate through a tee: the recording run's
// journal bytes are captured alongside the user's writer, and a served or
// resumed run replays them verbatim — restored runs are field-exact
// including journal bytes, which the oracle corpus pins.
package sim

import (
	"context"
	"fmt"
	"io"

	"rispp/internal/workload"
)

// Checkpointable is a Runtime that supports delta-resimulation: saving its
// complete mutable state at a phase boundary and restoring it into a
// runtime of the same configuration. States are opaque (NewState/SaveState/
// RestoreState use the runtime's own concrete type).
//
// Restore contract: a state saved by one runtime may be restored into
// another only when both were built from the same configuration — container
// budget included — and their forecasts were seeded from equal seed tables
// (workload.Compiled.Seeds). The simulator checks the budget and the trace
// side itself (a trail serves its own budget only, and ResumeCompiled
// accepts the recorded trace or a verified extension of it); the rest —
// same ISA, scheduler, policies and seeding mode — is the caller's, which
// is why callers key trails by exactly those knobs.
type Checkpointable interface {
	Runtime
	// ContainerBudget returns the container budget of this runtime, the
	// only budget a trail it records will serve.
	ContainerBudget() int
	// NewState allocates an empty state arena for SaveState. A runtime
	// without mutable state may return nil; its trails then hold no
	// runtime state and RestoreState receives nil.
	NewState() any
	// SaveState deep-copies the runtime's mutable state into a NewState
	// value; only legal at a phase boundary (between hot spots).
	SaveState(dst any)
	// RestoreState overwrites the runtime's state with a saved one,
	// replacing the Reset a fresh run would perform.
	RestoreState(src any)
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
	lastLat []int64
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

// Trail is one recorded simulation run, sealed at its end: the runtime's
// state, the Result and the journal bytes after the last phase. A Trail is
// immutable once complete, so concurrent readers need no locking; an
// incomplete Trail (recording failed mid-run) must be discarded.
//
// A trail remembers the budget it was recorded at and the identity of the
// compiled trace it recorded — by pointer, since workload.Compiled is
// immutable and callers (the Runner's compile memo) hold one canonical
// *Compiled per workload. Serve accepts only that very object;
// ResumeCompiled also accepts a longer trace that workload.Compiled.Extends
// vouches for. Any other budget or trace is refused: under ISA-switching
// workloads two different traces can agree on phase count and still
// schedule completely differently, and a silently wrong resume is the one
// failure mode delta-resimulation must never have.
type Trail struct {
	name       string
	budget     int
	ct         *workload.Compiled
	complete   bool
	hasJournal bool
	now        int64 // cycles at the end of the run
	rtState    any
	res        resultSnap
	jbuf       []byte // the run's journal bytes (hasJournal trails)
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
	t.jbuf = t.jbuf[:0]
}

// seal snapshots rt and res at the end of a successful run and completes
// the trail.
func (t *Trail) seal(rt Checkpointable, res *Result) {
	t.now = res.TotalCycles
	t.rtState = rt.NewState()
	rt.SaveState(t.rtState)
	t.res.save(res)
	t.complete = true
}

// usable reports whether the trail may stand in for the leading phases of a
// run of ct at budget with opts: it must be complete, recorded at that
// budget, with eligible options and the journal the run asks for, on ct
// itself or on a trace ct verifiably extends.
func (t *Trail) usable(ct *workload.Compiled, budget int, opts Options) bool {
	return t.complete && budget == t.budget && DeltaEligible(opts) &&
		(opts.Journal == nil || t.hasJournal) &&
		(t.ct == ct || ct.Extends(t.ct))
}

// ResumeDepth reports how many leading phases of ct a run at budget with
// opts skips by using this trail: len(ct.Phases) when Serve satisfies the
// run outright, fewer when ResumeCompiled restores the recorded run and
// simulates the rest, and 0 when the trail cannot be used. Callers holding
// several trails pick the deepest; the legality checks stay here, so no
// caller can vouch for a budget or trace on the trail's behalf.
func (t *Trail) ResumeDepth(ct *workload.Compiled, budget int, opts Options) int {
	if !t.usable(ct, budget, opts) {
		return 0
	}
	return len(t.ct.Phases)
}

// trailWriter appends the journal byte stream into the trail (the tee
// target next to the user's writer).
type trailWriter struct{ t *Trail }

func (w trailWriter) Write(p []byte) (int, error) {
	w.t.jbuf = append(w.t.jbuf, p...)
	return len(p), nil
}

// RunCompiledTrail is RunCompiled recording a checkpoint trail into t for
// later delta-resimulation. opts must be DeltaEligible. On error the trail
// is left incomplete and must be discarded.
func RunCompiledTrail(ctx context.Context, ct *workload.Compiled, rt Checkpointable, opts Options, res *Result, t *Trail) error {
	if !DeltaEligible(opts) {
		return fmt.Errorf("sim: options are not delta-eligible; use RunCompiled")
	}
	t.reset(rt.Name(), rt.ContainerBudget(), ct, opts.Journal != nil)
	if opts.Journal != nil {
		opts.Journal = io.MultiWriter(opts.Journal, trailWriter{t})
	}
	if err := RunCompiled(ctx, ct, rt, opts, res); err != nil {
		return err
	}
	t.seal(rt, res)
	return nil
}

// Serve satisfies a run of ct at budget entirely from the trail — no
// runtime, no simulation — when ct is the recorded trace itself and budget
// the recorded budget. It fills res (and replays the journal bytes when
// opts.Journal is set) and reports whether it could serve.
func (t *Trail) Serve(ct *workload.Compiled, budget int, opts Options, res *Result) (bool, error) {
	if t.ct != ct || !t.usable(ct, budget, opts) {
		return false, nil
	}
	res.reset(t.name, ct.NumSIs, len(ct.Phases), opts)
	t.res.restore(res)
	res.TotalCycles = t.now
	if opts.Journal != nil {
		if _, err := opts.Journal.Write(t.jbuf); err != nil {
			return true, fmt.Errorf("sim: journal: %w", err)
		}
	}
	return true, nil
}

// ResumeCompiled runs ct on rt from the end of src's recorded run instead
// of from power-on: ct is src's recorded trace or a verified extension of
// it (see Trail), and rt's budget must be the one src was recorded at. It
// restores src's final state into rt, replays the recorded journal bytes if
// a journal is collected, and simulates only the phases past the recorded
// ones. rec, when non-nil and not src, receives a complete trail of THIS
// run on ct, so a repeat of it can be served.
//
// The first return reports whether src was used; when false (ineligible
// options, incomplete trail, another budget or trace, or a journal
// requested from a journal-less trail) the caller falls back to
// RunCompiled/RunCompiledTrail. res is field-exact identical — journal
// bytes included — to a fresh run of rt, which the oracle corpus pins.
func ResumeCompiled(ctx context.Context, ct *workload.Compiled, rt Checkpointable, opts Options, res *Result, src *Trail, rec *Trail) (bool, error) {
	budget := rt.ContainerBudget()
	if !src.usable(ct, budget, opts) {
		return false, nil
	}
	if rec == src {
		rec = nil
	}
	if rec != nil {
		rec.reset(rt.Name(), budget, ct, opts.Journal != nil)
	}
	res.reset(rt.Name(), ct.NumSIs, len(ct.Phases), opts)
	src.res.restore(res)
	if opts.Journal != nil {
		if rec != nil {
			opts.Journal = io.MultiWriter(opts.Journal, trailWriter{rec})
		}
		// The recorded bytes go out before the run's buffered encoder is
		// set up, so ordering is preserved.
		if _, err := opts.Journal.Write(src.jbuf); err != nil {
			return true, fmt.Errorf("sim: journal: %w", err)
		}
	}
	rt.RestoreState(src.rtState)
	if err := runFrom(ctx, ct, rt, opts, res, len(src.ct.Phases), src.now); err != nil {
		return true, err
	}
	if rec != nil {
		rec.seal(rt, res)
	}
	return true, nil
}
