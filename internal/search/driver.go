package search

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"rispp/internal/explore"
)

// Config parameterizes one search run.
type Config struct {
	// Strategy names the proposal strategy (see StrategyNames).
	Strategy string
	// Seed seeds the strategy; equal (Strategy, Seed, Budget, BatchSize,
	// spec) reproduce byte-identical journals and fronts.
	Seed int64
	// Budget caps the number of evaluated points (result-cache hits
	// included — an observation is an observation). Must be positive.
	Budget int
	// BatchSize caps the points proposed per round (0: 16). Batches run
	// through Engine.ExecutePoints like any sweep: RunSet grouping and the
	// result cache apply to each batch.
	BatchSize int
	// Stream, when non-nil, receives every evaluated record as JSONL in
	// visit order — the same bytes a grid sweep of exactly the visited
	// points would emit.
	Stream io.Writer
	// Journal, when non-nil, receives the replayable search journal (see
	// the journal* types): a start line, then propose/eval lines per
	// round, then the final front.
	Journal io.Writer
}

// DefaultBatchSize is the per-round proposal cap when Config.BatchSize is
// zero.
const DefaultBatchSize = 16

// Outcome is the result of a search run.
type Outcome struct {
	Strategy    string       `json:"strategy"`
	Seed        int64        `json:"seed"`
	Budget      int          `json:"budget"`
	SpacePoints int          `json:"space_points"`
	Rounds      int          `json:"rounds"`
	Proposed    int          `json:"proposed"`
	Evaluated   int          `json:"evaluated"`
	CacheHits   int          `json:"cache_hits"`
	Failed      int          `json:"failed"`
	Evals       []Eval       `json:"-"`
	Front       []FrontPoint `json:"front"`
}

// Format renders the outcome as text (CLI summary).
func (o *Outcome) Format() string {
	out := fmt.Sprintf("%s search: %d/%d points evaluated (%d proposed, %d cached, %d failed) over %d rounds, space %d\n",
		o.Strategy, o.Evaluated, o.Budget, o.Proposed, o.CacheHits, o.Failed, o.Rounds, o.SpacePoints)
	return out + FormatFront(o.Front)
}

// journal line types. Every line is one JSON object with a "type" tag;
// field order is fixed by the struct declarations, so journals are
// byte-stable.
type journalStart struct {
	Type        string       `json:"type"` // "start"
	Version     int          `json:"v"`
	Strategy    string       `json:"strategy"`
	Seed        int64        `json:"seed"`
	Budget      int          `json:"budget"`
	Batch       int          `json:"batch"`
	SpacePoints int          `json:"space_points"`
	Spec        explore.Spec `json:"spec"`
}

type journalPropose struct {
	Type   string          `json:"type"` // "propose"
	Round  int             `json:"round"`
	Points []explore.Point `json:"points"`
}

type journalEval struct {
	Type  string `json:"type"` // "eval"
	Round int    `json:"round"`
	Eval
}

type journalFront struct {
	Type   string       `json:"type"` // "front"
	Points []FrontPoint `json:"points"`
}

// journalVersion is bumped on any incompatible journal change.
const journalVersion = 1

// Run executes a budgeted adaptive search over the engine. The spec is
// expanded and normalized exactly once, into the search space; every batch
// the strategy proposes is submitted pre-normalized through
// Engine.ExecutePoints (grouped RunSet path, result cache, per-job panic
// recovery all apply). Every evaluated point is fed back to the strategy
// and offered to the incremental Pareto front.
//
// Determinism: with a deterministic engine (the simulator is pure), equal
// (spec, Config) produce byte-identical Stream and Journal output and an
// identical front, at any engine worker count, with the grouped path on or
// off, and with a cold or warm result cache.
//
// On context cancellation the partial outcome is returned with ctx's
// error; the journal still ends with the front over the completed prefix.
func Run(ctx context.Context, eng *explore.Engine, spec explore.Spec, cfg Config) (*Outcome, error) {
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("search: budget must be positive (got %d)", cfg.Budget)
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	sp, err := NewSpace(spec)
	if err != nil {
		return nil, err
	}
	strat, err := New(cfg.Strategy, sp, cfg.Seed)
	if err != nil {
		return nil, err
	}

	var jw *json.Encoder
	if cfg.Journal != nil {
		jw = json.NewEncoder(cfg.Journal)
		if err := jw.Encode(journalStart{
			Type: "start", Version: journalVersion, Strategy: strat.Name(),
			Seed: cfg.Seed, Budget: cfg.Budget, Batch: batch,
			SpacePoints: sp.Len(), Spec: spec,
		}); err != nil {
			return nil, fmt.Errorf("search: journal: %w", err)
		}
	}

	out := &Outcome{
		Strategy:    strat.Name(),
		Seed:        cfg.Seed,
		Budget:      cfg.Budget,
		SpacePoints: sp.Len(),
	}
	front := &Front{}
	var runErr error
	for out.Evaluated < cfg.Budget {
		n := batch
		if left := cfg.Budget - out.Evaluated; n > left {
			n = left
		}
		ps := strat.Propose(n)
		if len(ps) == 0 {
			break // converged or exhausted
		}
		out.Rounds++
		out.Proposed += len(ps)
		if jw != nil {
			if err := jw.Encode(journalPropose{Type: "propose", Round: out.Rounds, Points: ps}); err != nil {
				return out, fmt.Errorf("search: journal: %w", err)
			}
		}
		res, err := eng.ExecutePoints(ctx, ps, cfg.Stream)
		if res != nil {
			evals := make([]Eval, 0, len(res.Records))
			for _, rec := range res.Records {
				e := evalOf(rec)
				evals = append(evals, e)
				out.Evals = append(out.Evals, e)
				out.Evaluated++
				if e.Cached {
					out.CacheHits++
				}
				if !e.OK() {
					out.Failed++
				} else {
					front.Add(FrontPoint{Point: e.Point, Cycles: e.Cycles, Area: e.Area})
				}
				if jw != nil {
					if jerr := jw.Encode(journalEval{Type: "eval", Round: out.Rounds, Eval: e}); jerr != nil {
						return out, fmt.Errorf("search: journal: %w", jerr)
					}
				}
			}
			strat.Observe(evals)
		}
		if err != nil {
			runErr = err // context cancellation: keep the completed prefix
			break
		}
	}
	out.Front = front.Points()
	if jw != nil {
		if err := jw.Encode(journalFront{Type: "front", Points: out.Front}); err != nil {
			return out, fmt.Errorf("search: journal: %w", err)
		}
	}
	return out, runErr
}
