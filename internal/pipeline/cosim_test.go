package pipeline

import (
	"testing"

	"rispp/internal/core"
	"rispp/internal/isa"
	"rispp/internal/sched"
	"rispp/internal/workload"
)

// TestCoSimulationUpgradesMidLoop runs a motion-estimation inner loop
// instruction by instruction against a live Run-Time Manager: early
// iterations trap to software, then Atoms finish loading mid-loop and the
// very same SI instruction gets cheaper — the paper's as-soon-as-available
// execution observed at instruction granularity.
func TestCoSimulationUpgradesMidLoop(t *testing.T) {
	is := isa.H264()
	s, _ := sched.New("HEF")
	tr := workload.H264(workload.H264Config{Frames: 1})
	mgr := core.NewManager(core.Config{ISA: is, NumACs: 8, Scheduler: s, ForecastSeeds: tr.ForecastSeeds(is)})
	mgr.EnterHotSpot(isa.HotSpotME, 0)

	// 400 SAD invocations with glue, as the ME loop issues them.
	b := NewBuilder()
	b.Loop(400, func(b *Builder) {
		for _, in := range GlueShape() {
			b.prog = append(b.prog, in)
		}
		b.SI(int(isa.SISAD))
	})
	prog := b.Build()

	total := RunWithRuntime(prog, mgr, 0)
	swOnly := Run(prog, func(int) int { return is.SI(isa.SISAD).SWLatency })
	hwOnly := Run(prog, func(int) int { return is.SI(isa.SISAD).Fastest().Latency })
	if !(hwOnly < total && total < swOnly) {
		t.Fatalf("co-simulated %d cycles, want between full-hw %d and full-sw %d", total, hwOnly, swOnly)
	}
	// The fabric really did upgrade during the loop.
	if mgr.AtomLoads() == 0 {
		t.Fatal("no Atom loads applied during co-simulation")
	}
	if got := mgr.Latency(isa.SISAD); got >= is.SI(isa.SISAD).SWLatency {
		t.Fatal("SAD still in software after the loop")
	}
}

// TestCoSimulationMatchesStaticWhenIdle: with no reconfiguration pending,
// RunWithRuntime must agree exactly with the static Run.
func TestCoSimulationMatchesStaticWhenIdle(t *testing.T) {
	is := isa.H264()
	s, _ := sched.New("HEF")
	mgr := core.NewManager(core.Config{ISA: is, NumACs: 0, Scheduler: s}) // no fabric: nothing ever loads
	mgr.EnterHotSpot(isa.HotSpotME, 0)

	b := NewBuilder()
	b.Loop(50, func(b *Builder) { b.SI(int(isa.SISAD)) })
	prog := b.Build()

	dynamic := RunWithRuntime(prog, mgr, 0)
	static := Run(prog, func(int) int { return is.SI(isa.SISAD).SWLatency })
	if dynamic != static {
		t.Fatalf("idle co-simulation %d != static %d", dynamic, static)
	}
}
