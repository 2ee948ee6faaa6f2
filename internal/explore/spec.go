// Package explore is a concurrent, cancellable design-space exploration
// engine for the RISPP evaluation platform. A declarative Spec spans a grid
// (and/or an explicit list) of design points — scheduler, Atom-Container
// budget, workload knobs — which the Engine expands into deduplicated jobs
// and runs on a bounded worker pool with context cancellation, per-job
// panic recovery and a content-addressed result cache. Results stream as
// JSONL in job order (byte-identical regardless of parallelism) and are
// aggregated into best-per-AC, speedup and Pareto-front summaries.
//
// The discrete-event simulator of internal/sim is pure and deterministic,
// so the same spec yields bit-identical results at any worker count; this
// is what makes both the parallelism and the cache safe.
package explore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Point is one configuration of the design space: the knobs of a single
// simulation run. The zero value is normalized to the paper's defaults
// (HEF, 140 CIF frames) by Spec.Expand. Field order is the canonical
// serialization order — do not reorder fields, the cache keys depend on it.
type Point struct {
	// Scheduler is the run-time system: a RISPP SI-scheduler name, "Molen"
	// or "software" ("HEF" if empty).
	Scheduler string `json:"scheduler"`
	// NumACs is the Atom-Container budget (ignored for "software").
	NumACs int `json:"acs"`
	// Frames sizes the H.264 workload (140 if zero).
	Frames int `json:"frames"`
	// Seed is the workload PRNG seed.
	Seed int64 `json:"seed"`
	// Motion is the per-frame motion variability (0..1).
	Motion float64 `json:"motion"`
	// SceneChange, when > 0, raises the motion level from that frame on.
	SceneChange int `json:"scene_change"`
	// SeedForecasts seeds the monitor from the trace (design-time
	// estimation); almost always desirable.
	SeedForecasts bool `json:"seed_forecasts"`
	// Prefetch enables next-hot-spot reconfiguration prefetching.
	Prefetch bool `json:"prefetch"`
	// Scenario, when non-empty, replaces the H.264 workload generator
	// with the named scenario from internal/scenario: Frames becomes the
	// scenario iteration count, Seed selects a member of its seeded trace
	// family, and Motion/SceneChange must stay zero (they are H.264
	// generator knobs). The name participates in Key/Hash — shipped
	// scenarios are append-only precisely so the name is a sound content
	// address. omitempty keeps the keys (and caches) of all non-scenario
	// points unchanged.
	Scenario string `json:"scenario,omitempty"`
}

// Normalized fills the paper defaults so that equivalent points share one
// canonical form — and therefore one cache entry and one serving-layer
// dedup key. Spec.Expand normalizes every point; callers keying caches on
// points built by hand (e.g. a single-point HTTP request) must normalize
// first, or equal design points would hash differently.
func (p Point) Normalized() Point {
	if p.Scheduler == "" {
		p.Scheduler = "HEF"
	}
	if p.Frames == 0 {
		p.Frames = 140
	}
	return p
}

// Key returns the canonical serialized form of the point: compact JSON
// with fields in declaration order. Two points are the same design point
// iff their keys are equal.
func (p Point) Key() string {
	b, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("explore: marshal point: %v", err)) // plain scalars; cannot fail
	}
	return string(b)
}

// Hash returns the content address of the point — SHA-256 over Key — under
// which the result cache stores it.
func (p Point) Hash() string {
	h := sha256.Sum256([]byte(p.Key()))
	return hex.EncodeToString(h[:])
}

// Hash64 returns the first 8 bytes of Hash as a big-endian integer — the
// sharding key of the distributed sweep fabric. Shard assignment therefore
// depends only on the canonical point key, never on enumeration order, so
// any process that expands the same spec partitions it identically.
func (p Point) Hash64() uint64 {
	h := sha256.Sum256([]byte(p.Key()))
	return binary.BigEndian.Uint64(h[:8])
}

// Spec declares a design-space sweep: the cross product of every non-empty
// grid dimension, plus an explicit list of extra points. Empty grid
// dimensions default to a single paper-default value; a spec with only
// Points set runs exactly those. Specs round-trip through JSON for the
// risppexplore -spec file.
type Spec struct {
	Schedulers    []string  `json:"schedulers,omitempty"`
	ACs           []int     `json:"acs,omitempty"`
	Frames        []int     `json:"frames,omitempty"`
	Seeds         []int64   `json:"seeds,omitempty"`
	Motion        []float64 `json:"motion,omitempty"`
	SceneChanges  []int     `json:"scene_changes,omitempty"`
	SeedForecasts []bool    `json:"seed_forecasts,omitempty"`
	Prefetch      []bool    `json:"prefetch,omitempty"`
	// Scenarios spans the workload axis: "" is the H.264 generator, any
	// other entry a named scenario.
	Scenarios []string `json:"scenarios,omitempty"`
	Points    []Point  `json:"points,omitempty"`
}

// gridEmpty reports whether no grid dimension is set at all, in which case
// Expand emits only the explicit Points.
func (s Spec) gridEmpty() bool {
	return len(s.Schedulers) == 0 && len(s.ACs) == 0 && len(s.Frames) == 0 &&
		len(s.Seeds) == 0 && len(s.Motion) == 0 && len(s.SceneChanges) == 0 &&
		len(s.SeedForecasts) == 0 && len(s.Prefetch) == 0 && len(s.Scenarios) == 0
}

// Expand turns the spec into the ordered, deduplicated job list: the grid
// in nested-loop order (schedulers outermost, prefetch innermost), then the
// explicit points; duplicates keep their first position. The order is
// deterministic, so the JSONL result stream is byte-stable across runs and
// worker counts.
func (s Spec) Expand() ([]Point, error) {
	var grid []Point
	if !s.gridEmpty() {
		schedulers := s.Schedulers
		if len(schedulers) == 0 {
			schedulers = []string{"HEF"}
		}
		acs := s.ACs
		if len(acs) == 0 {
			acs = []int{10}
		}
		frames := s.Frames
		if len(frames) == 0 {
			frames = []int{140}
		}
		seeds := s.Seeds
		if len(seeds) == 0 {
			seeds = []int64{0}
		}
		motion := s.Motion
		if len(motion) == 0 {
			motion = []float64{0}
		}
		scenes := s.SceneChanges
		if len(scenes) == 0 {
			scenes = []int{0}
		}
		forecasts := s.SeedForecasts
		if len(forecasts) == 0 {
			forecasts = []bool{true}
		}
		prefetch := s.Prefetch
		if len(prefetch) == 0 {
			prefetch = []bool{false}
		}
		scenarios := s.Scenarios
		if len(scenarios) == 0 {
			scenarios = []string{""}
		}
		for _, wl := range scenarios {
			for _, sc := range schedulers {
				for _, n := range acs {
					for _, f := range frames {
						for _, sd := range seeds {
							for _, m := range motion {
								for _, sn := range scenes {
									for _, fc := range forecasts {
										for _, pf := range prefetch {
											grid = append(grid, Point{
												Scheduler: sc, NumACs: n, Frames: f,
												Seed: sd, Motion: m, SceneChange: sn,
												SeedForecasts: fc, Prefetch: pf,
												Scenario: wl,
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	all := append(grid, s.Points...)
	seen := make(map[string]bool, len(all))
	out := make([]Point, 0, len(all))
	for _, p := range all {
		p = p.Normalized()
		if p.NumACs < 0 {
			return nil, fmt.Errorf("explore: negative AC count %d", p.NumACs)
		}
		if p.Frames < 0 {
			return nil, fmt.Errorf("explore: negative frame count %d", p.Frames)
		}
		if p.Motion < 0 || p.Motion > 1 {
			return nil, fmt.Errorf("explore: motion variability %g outside [0,1]", p.Motion)
		}
		if p.Scenario != "" && (p.Motion != 0 || p.SceneChange != 0) {
			return nil, fmt.Errorf("explore: scenario %q combined with H.264 knobs (motion/scene_change)", p.Scenario)
		}
		k := p.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, p)
	}
	return out, nil
}
