package sim_test

import (
	"context"
	"testing"

	"rispp/internal/isa"
	"rispp/internal/molen"
	"rispp/internal/sim"
)

// countingRuntime forwards every call to a run-time system and counts the
// calls the simulator is meant to make once per event, not once per burst.
type countingRuntime struct {
	sim.Runtime
	latency, record, advance int
	lastNow                  int64 // now of the latest Record in this run
	backwards                int   // Records whose now is below the previous one
}

func (c *countingRuntime) Reset() {
	c.lastNow = 0
	c.Runtime.Reset()
}

func (c *countingRuntime) Latency(si isa.SIID) int {
	c.latency++
	return c.Runtime.Latency(si)
}

func (c *countingRuntime) Record(si isa.SIID, n int64, now int64) {
	c.record++
	if now < c.lastNow {
		c.backwards++
	}
	c.lastNow = now
	c.Runtime.Record(si, n, now)
}

func (c *countingRuntime) Advance(t int64) {
	c.advance++
	c.Runtime.Advance(t)
}

// TestRuntimeCalledPerEvent pins the simulator's call pattern without
// relying on machine speed. On a 2-frame H.264 trace, RISPP/HEF and Molen
// at 10 ACs run wrapped in a counting runtime: the result must equal the
// unwrapped run's, Record's now must never decrease, and without artifacts
// Latency and Record are each called at most once per hot-spot SI per
// segment between events — (Advance calls + phases) × the largest hot
// spot, far below one call per burst.
func TestRuntimeCalledPerEvent(t *testing.T) {
	is, ct := compiledFrame(t, 2)
	bursts, maxSpot := 0, 0
	for _, p := range ct.Phases {
		bursts += len(p.Bursts)
		maxSpot = max(maxSpot, len(p.Spot))
	}
	mo := molen.New(molen.Config{ISA: is, NumACs: 10, ForecastSeeds: ct.Seeds})
	for _, nr := range []namedRuntime{{"HEF", hefManager(is, ct)}, {"Molen", mo}} {
		t.Run(nr.name, func(t *testing.T) {
			var want, got sim.Result
			if err := sim.RunCompiled(context.Background(), ct, nr.rt, sim.Options{}, &want); err != nil {
				t.Fatal(err)
			}
			c := &countingRuntime{Runtime: nr.rt}
			if err := sim.RunCompiled(context.Background(), ct, c, sim.Options{}, &got); err != nil {
				t.Fatal(err)
			}
			requireSameRun(t, nr.name, &got, &want, nil, nil)
			if c.backwards > 0 {
				t.Errorf("%d of %d Records went back in time", c.backwards, c.record)
			}
			bound := (c.advance + len(got.Phases)) * maxSpot
			if bound >= bursts {
				t.Fatalf("bound %d does not separate per-event from per-burst calls (%d bursts)", bound, bursts)
			}
			if c.latency > bound || c.record > bound {
				t.Errorf("Latency called %d times, Record %d times, want ≤ %d each: (%d Advances + %d phases) × %d spot SIs; %d bursts",
					c.latency, c.record, bound, c.advance, len(got.Phases), maxSpot, bursts)
			}
		})
	}
}
