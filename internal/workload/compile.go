package workload

import (
	"fmt"
	"slices"
	"sync"

	"rispp/internal/isa"
)

// BlockLen is the number of bursts one block summary covers.
const BlockLen = 128

// CompiledPhase is one hot-spot phase of a compiled trace.
type CompiledPhase struct {
	HotSpot isa.HotSpotID
	Setup   int64
	// Bursts is the source phase's burst slice, read in place; its capacity
	// is capped at its length, so an append through it cannot write into
	// the source.
	Bursts []Burst
	// Spot lists the SIs of the phase's hot spot in ascending id order;
	// phases of the same hot spot share one slice.
	Spot []isa.SIID
	// Blocks summarizes every full run of BlockLen bursts, so the simulator
	// can run a block in one step when no event falls inside it. Block k
	// is Blocks[k*(1+len(Spot)):][:1+len(Spot)]: its glue cycles
	// (Σ Count·Gap of Bursts[k*BlockLen:(k+1)*BlockLen]) followed by its
	// executions of each Spot SI, in Spot order. A tail shorter than
	// BlockLen, and a phase shorter than BlockLen, carry no summary.
	Blocks []int64
}

// Compiled is a trace lowered for the simulator hot path: phases read the
// source bursts in place, the two per-SI latencies the inner loop needs are
// resolved once per SI into dense tables, the hot-spot SI sets are computed
// once per hot spot instead of once per phase, and every full block of
// BlockLen bursts carries a summary (glue cycles and per-SI executions) the
// simulator steps over in O(hot-spot SIs). The summaries of all phases and
// the forecast seed table are carved from one allocation. A Compiled trace
// is immutable and safe for concurrent simulation runs — provided its
// source trace is never modified after Compile, since the compiled phases
// alias the source's bursts and the summaries and seeds are derived from
// them.
type Compiled struct {
	// Trace is the source trace: its bursts back the compiled phases, and
	// the oracle reads it directly.
	Trace *Trace
	// NumSIs is len(is.SIs) of the ISA the trace was compiled against; it
	// sizes the simulator's dense per-SI accounting.
	NumSIs int
	// SWLatency[si] is is.SI(si).SWLatency: the trap latency that separates
	// software from hardware executions.
	SWLatency []int
	// FastestLatency[si] is is.SI(si).Fastest().Latency: the floor against
	// which stall cycles are accounted. Both tables are indexed by SI id and
	// share one backing array.
	FastestLatency []int
	// Seeds[si] is SI si's design-time forecast seed (Trace.ForecastSeeds):
	// its executions in the first phase of its hot spot. Runtimes built for
	// seeded forecasts read it in place.
	Seeds  []int64
	Phases []CompiledPhase

	// prefixes memoizes Extends per shorter trace (*Compiled → bool), so
	// the memo lives and dies with the traces it relates.
	prefixes sync.Map
}

// Extends reports whether c strictly extends prefix: prefix is shorter, was
// compiled for the same SI count and per-SI latency tables, and every one
// of its phases equals c's phase at the same index — hot spot, setup,
// bursts, and hot-spot SI set. Both traces must also have equal seed
// tables, so runs seeding their forecasts from them (the design-time
// estimation flow) start from the same forecasts: a hot spot that first
// appears in c after the prefix may do so only with no executions in its
// first phase. A run of c therefore passes through exactly the states a run
// of prefix passes through, phase boundary by phase boundary.
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
	if prefix.NumSIs != c.NumSIs || !slices.Equal(prefix.SWLatency, c.SWLatency) ||
		!slices.Equal(prefix.FastestLatency, c.FastestLatency) ||
		!slices.Equal(prefix.Seeds, c.Seeds) {
		return false
	}
	for i := range prefix.Phases {
		p, q := &prefix.Phases[i], &c.Phases[i]
		if p.HotSpot != q.HotSpot || p.Setup != q.Setup ||
			!slices.Equal(p.Bursts, q.Bursts) || !slices.Equal(p.Spot, q.Spot) {
			return false
		}
	}
	return true
}

// Compile validates the trace against the ISA and lowers it into the form
// the simulator executes. Compile once and reuse the result across runs.
// The compiled phases read tr's bursts in place, so tr is read-only from
// here on: modifying it would change every run of the compiled trace, and
// of any trail recorded on it. Clone a trace before changing it.
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
	n := len(is.SIs)
	lat := make([]int, 2*n)
	ct := &Compiled{
		Trace:          tr,
		NumSIs:         n,
		SWLatency:      lat[:n:n],
		FastestLatency: lat[n:],
		Phases:         make([]CompiledPhase, 0, len(tr.Phases)),
	}
	for i := range is.SIs {
		ct.SWLatency[i] = is.SIs[i].SWLatency
		ct.FastestLatency[i] = is.SIs[i].Fastest().Latency
	}
	spots := make(map[isa.HotSpotID][]isa.SIID)
	// pos[si] is si's index in its hot spot's Spot slice; small ISAs keep
	// the table on the stack.
	var posBuf [64]int
	pos := posBuf[:]
	if n > len(posBuf) {
		pos = make([]int, n)
	}
	nSums := 0
	for i := range tr.Phases {
		p := &tr.Phases[i]
		spot, ok := spots[p.HotSpot]
		if !ok {
			spot = hotSpotSIs(is, p.HotSpot)
			spots[p.HotSpot] = spot
			for j, si := range spot {
				pos[si] = j
			}
		}
		ct.Phases = append(ct.Phases, CompiledPhase{
			HotSpot: p.HotSpot,
			Setup:   p.Setup,
			Bursts:  p.Bursts[:len(p.Bursts):len(p.Bursts)],
			Spot:    spot,
		})
		nSums += len(p.Bursts) / BlockLen * (1 + len(spot))
	}
	// The seed table and the block summaries share one allocation.
	sums := make([]int64, n+nSums)
	ct.Seeds, sums = sums[:n:n], sums[n:]
	tr.seedsInto(ct.Seeds)
	for i := range ct.Phases {
		p := &ct.Phases[i]
		n := len(p.Bursts) / BlockLen * (1 + len(p.Spot))
		if n > 0 {
			p.Blocks, sums = sums[:n:n], sums[n:]
			summarize(p, pos)
		}
	}
	return ct, nil
}

// hotSpotSIs lists the ids of hot spot h's SIs in ascending order, sized
// by a counting pass so the slice is allocated once.
func hotSpotSIs(is *isa.ISA, h isa.HotSpotID) []isa.SIID {
	n := 0
	for i := range is.SIs {
		if is.SIs[i].HotSpot == h {
			n++
		}
	}
	spot := make([]isa.SIID, 0, n)
	for i := range is.SIs {
		if is.SIs[i].HotSpot == h {
			spot = append(spot, is.SIs[i].ID)
		}
	}
	return spot
}

// summarize fills p.Blocks from p.Bursts. Validate has checked that every
// burst's SI belongs to the phase's hot spot, so pos[b.SI] indexes p.Spot.
func summarize(p *CompiledPhase, pos []int) {
	stride := 1 + len(p.Spot)
	for k := 0; (k+1)*stride <= len(p.Blocks); k++ {
		blk := p.Blocks[k*stride : (k+1)*stride]
		for _, b := range p.Bursts[k*BlockLen : (k+1)*BlockLen] {
			blk[0] += int64(b.Count) * int64(b.Gap)
			blk[1+pos[b.SI]] += int64(b.Count)
		}
	}
}
