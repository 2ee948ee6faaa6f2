package workload

import (
	"fmt"
	"sync"

	"rispp/internal/isa"
)

// CompiledBurst is one burst of a compiled trace with the SI metadata the
// simulator's inner loop needs pre-resolved, so executing it costs no map
// lookups, no ISA indirection and no interface calls beyond the Runtime
// itself.
type CompiledBurst struct {
	SI    isa.SIID
	Count int64
	Gap   int64
	// SWLatency is is.SI(SI).SWLatency: the trap latency that separates
	// software from hardware executions.
	SWLatency int
	// FastestLatency is is.SI(SI).Fastest().Latency: the floor against
	// which stall cycles are accounted.
	FastestLatency int
}

// CompiledPhase is one hot-spot phase of a compiled trace.
type CompiledPhase struct {
	HotSpot isa.HotSpotID
	Setup   int64
	// Bursts is a view into the trace-wide flat burst array.
	Bursts []CompiledBurst
	// Spot lists the SIs of the phase's hot spot; phases of the same hot
	// spot share one slice.
	Spot []isa.SIID
}

// Compiled is a trace lowered into flat arrays for the simulator hot path:
// all bursts live in one contiguous backing array, per-burst SI metadata is
// pre-resolved, and the hot-spot SI sets are computed once per hot spot
// instead of once per phase. A Compiled trace is immutable and safe for
// concurrent simulation runs.
type Compiled struct {
	// Trace is the source trace (for its name and phase structure).
	Trace *Trace
	// NumSIs is len(is.SIs) of the ISA the trace was compiled against; it
	// sizes the simulator's dense per-SI accounting.
	NumSIs int
	Phases []CompiledPhase

	// prefixes memoizes Extends per shorter trace (*Compiled → bool), so
	// the memo lives and dies with the traces it relates.
	prefixes sync.Map
}

// Extends reports whether c strictly extends prefix: prefix is shorter, was
// compiled for the same SI count, and every one of its phases equals c's
// phase at the same index — hot spot, setup, bursts with their SI metadata,
// and hot-spot SI set. No hot spot may first appear in c after the prefix
// either, so forecasts seeded from the first occurrence of each hot spot
// (SeedFromTrace, the design-time estimation flow) are identical for both
// traces. A run of c therefore passes through exactly the states a run of
// prefix passes through, phase boundary by phase boundary.
//
// The answer is memoized on c per prefix: a pair pays one phase-by-phase
// comparison, later calls a map lookup. Equal-length and longer traces are
// never extended — not even by a content-identical copy.
func (c *Compiled) Extends(prefix *Compiled) bool {
	if prefix == nil || len(prefix.Phases) >= len(c.Phases) {
		return false
	}
	if v, ok := c.prefixes.Load(prefix); ok {
		return v.(bool)
	}
	ok := c.extends(prefix)
	c.prefixes.Store(prefix, ok)
	return ok
}

func (c *Compiled) extends(prefix *Compiled) bool {
	if prefix.NumSIs != c.NumSIs {
		return false
	}
	seen := make(map[isa.HotSpotID]bool)
	for i := range prefix.Phases {
		p, q := &prefix.Phases[i], &c.Phases[i]
		if p.HotSpot != q.HotSpot || p.Setup != q.Setup ||
			len(p.Bursts) != len(q.Bursts) || len(p.Spot) != len(q.Spot) {
			return false
		}
		for j := range p.Bursts {
			if p.Bursts[j] != q.Bursts[j] {
				return false
			}
		}
		for j := range p.Spot {
			if p.Spot[j] != q.Spot[j] {
				return false
			}
		}
		seen[p.HotSpot] = true
	}
	for i := len(prefix.Phases); i < len(c.Phases); i++ {
		if !seen[c.Phases[i].HotSpot] {
			return false
		}
	}
	return true
}

// Compile validates the trace against the ISA and lowers it into the flat
// representation the simulator executes. Compile once and reuse the result
// across runs: the compiled form is read-only.
func Compile(tr *Trace, is *isa.ISA) (*Compiled, error) {
	// Trace.Validate only checks burst references; the compiled form also
	// bakes in per-SI metadata (Fastest()), so malformed ISAs must be
	// rejected here with errors rather than surfacing as index panics in
	// the hot path. The checks mirror internal/oracle's input validation.
	for i := range is.SIs {
		s := &is.SIs[i]
		if int(s.ID) != i {
			return nil, fmt.Errorf("workload: SI %q has id %d at index %d (duplicate or misnumbered ids)", s.Name, s.ID, i)
		}
		if len(s.Molecules) == 0 {
			return nil, fmt.Errorf("workload: SI %q has no hardware Molecule", s.Name)
		}
	}
	if err := tr.Validate(is); err != nil {
		return nil, err
	}
	total := 0
	for i := range tr.Phases {
		total += len(tr.Phases[i].Bursts)
	}
	flat := make([]CompiledBurst, 0, total)
	spots := make(map[isa.HotSpotID][]isa.SIID)
	ct := &Compiled{
		Trace:  tr,
		NumSIs: len(is.SIs),
		Phases: make([]CompiledPhase, 0, len(tr.Phases)),
	}
	for i := range tr.Phases {
		p := &tr.Phases[i]
		spot, ok := spots[p.HotSpot]
		if !ok {
			sis := is.HotSpotSIs(p.HotSpot)
			spot = make([]isa.SIID, 0, len(sis))
			for _, s := range sis {
				spot = append(spot, s.ID)
			}
			spots[p.HotSpot] = spot
		}
		start := len(flat)
		for _, b := range p.Bursts {
			si := is.SI(b.SI)
			flat = append(flat, CompiledBurst{
				SI:             b.SI,
				Count:          int64(b.Count),
				Gap:            int64(b.Gap),
				SWLatency:      si.SWLatency,
				FastestLatency: si.Fastest().Latency,
			})
		}
		ct.Phases = append(ct.Phases, CompiledPhase{
			HotSpot: p.HotSpot,
			Setup:   p.Setup,
			Bursts:  flat[start:len(flat):len(flat)],
			Spot:    spot,
		})
	}
	return ct, nil
}
