// Package workload models the application driving a RISPP processor as a
// trace of hot-spot phases, each consisting of bursts of Special
// Instruction executions interleaved with base-processor glue cycles.
//
// The package ships a calibrated generator for the paper's benchmark — an
// H.264 video encoder processing a CIF sequence (see H264Config) — and a
// generic builder for custom scenarios.
package workload

import (
	"fmt"
	"slices"

	"rispp/internal/isa"
)

// Burst is a run of identical SI executions: Count executions of SI, each
// followed by Gap base-processor cycles of glue code (address generation,
// loop control, …) that no accelerator removes.
type Burst struct {
	SI    isa.SIID
	Count int
	Gap   int
}

// Phase is one execution of a hot spot: the processor enters the hot spot,
// spends Setup base cycles (control code before the kernel loops), then
// executes the bursts in order.
type Phase struct {
	HotSpot isa.HotSpotID
	Setup   int64
	Bursts  []Burst
}

// Executions returns the total SI executions of the phase.
func (p *Phase) Executions() int64 {
	var n int64
	for _, b := range p.Bursts {
		n += int64(b.Count)
	}
	return n
}

// Trace is a complete application run: the phases in execution order.
type Trace struct {
	Name   string
	Phases []Phase
}

// Executions returns the total number of SI executions per SI.
func (t *Trace) Executions() map[isa.SIID]int64 {
	out := make(map[isa.SIID]int64)
	for i := range t.Phases {
		for _, b := range t.Phases[i].Bursts {
			out[b.SI] += int64(b.Count)
		}
	}
	return out
}

// TotalExecutions returns the total number of SI executions in the trace.
func (t *Trace) TotalExecutions() int64 {
	var n int64
	for i := range t.Phases {
		for _, b := range t.Phases[i].Bursts {
			n += int64(b.Count)
		}
	}
	return n
}

// SoftwareCycles returns the cycles the trace takes on the plain base
// processor (zero Atom Containers): every SI executes via its trap
// implementation.
func (t *Trace) SoftwareCycles(is *isa.ISA) int64 {
	var c int64
	for i := range t.Phases {
		p := &t.Phases[i]
		c += p.Setup
		for _, b := range p.Bursts {
			c += int64(b.Count) * int64(is.SI(b.SI).SWLatency+b.Gap)
		}
	}
	return c
}

// ForecastSeeds returns the design-time forecast seed of every SI of is by
// SI id — its executions in the first phase of its hot spot — from which
// seeded forecasts start (the offline estimation of the paper's toolchain;
// Compile derives the same Compiled.Seeds). t must be valid for is.
func (t *Trace) ForecastSeeds(is *isa.ISA) []int64 {
	seeds := make([]int64, len(is.SIs))
	t.seedsInto(seeds)
	return seeds
}

// seedsInto adds each SI's seed to seeds[si]; the few hot spots a trace
// visits are tracked on the stack.
func (t *Trace) seedsInto(seeds []int64) {
	var buf [16]isa.HotSpotID
	seen := buf[:0]
	for i := range t.Phases {
		p := &t.Phases[i]
		if slices.Contains(seen, p.HotSpot) {
			continue
		}
		seen = append(seen, p.HotSpot)
		for _, b := range p.Bursts {
			seeds[b.SI] += int64(b.Count)
		}
	}
}

// Validate checks the trace against an ISA: every referenced SI exists and
// belongs to the phase's hot spot, and all counts are sane.
func (t *Trace) Validate(is *isa.ISA) error {
	for i := range t.Phases {
		p := &t.Phases[i]
		if p.Setup < 0 {
			return fmt.Errorf("workload: phase %d has negative setup", i)
		}
		for j, b := range p.Bursts {
			if int(b.SI) < 0 || int(b.SI) >= len(is.SIs) {
				return fmt.Errorf("workload: phase %d burst %d references unknown SI %d", i, j, b.SI)
			}
			if is.SI(b.SI).HotSpot != p.HotSpot {
				return fmt.Errorf("workload: phase %d burst %d: SI %q does not belong to hot spot %d",
					i, j, is.SI(b.SI).Name, p.HotSpot)
			}
			if b.Count < 0 || b.Gap < 0 {
				return fmt.Errorf("workload: phase %d burst %d has negative count/gap", i, j)
			}
		}
	}
	return nil
}

// Builder assembles traces for custom scenarios.
type Builder struct {
	trace Trace
}

// NewBuilder starts a named trace.
func NewBuilder(name string) *Builder {
	return &Builder{trace: Trace{Name: name}}
}

// Phase opens a new hot-spot phase and returns the builder for chaining.
func (b *Builder) Phase(h isa.HotSpotID, setup int64) *Builder {
	b.trace.Phases = append(b.trace.Phases, Phase{HotSpot: h, Setup: setup})
	return b
}

// Burst appends an SI burst to the current phase; it panics when no phase
// is open.
func (b *Builder) Burst(si isa.SIID, count, gap int) *Builder {
	if len(b.trace.Phases) == 0 {
		panic("workload: Burst before Phase")
	}
	p := &b.trace.Phases[len(b.trace.Phases)-1]
	p.Bursts = append(p.Bursts, Burst{SI: si, Count: count, Gap: gap})
	return b
}

// Build returns the assembled trace. Its phase and burst slices are
// exact-capacity copies, so the trace keeps none of the builder's append
// slack and later calls on the builder leave it unchanged.
func (b *Builder) Build() *Trace {
	t := &Trace{Name: b.trace.Name, Phases: slices.Clip(slices.Clone(b.trace.Phases))}
	for i := range t.Phases {
		t.Phases[i].Bursts = slices.Clip(slices.Clone(t.Phases[i].Bursts))
	}
	return t
}
