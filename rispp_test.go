package rispp

import (
	"context"
	"reflect"
	"testing"

	"rispp/internal/explore"
	"rispp/internal/isa"
	"rispp/internal/membus"
	"rispp/internal/scenario"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

func shortTrace(frames int) *workload.Trace {
	return workload.H264(workload.H264Config{Frames: frames})
}

func TestRunDefaultsToHEF(t *testing.T) {
	res, err := Run(Config{Workload: shortTrace(2), NumACs: 10, SeedForecasts: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime != "RISPP/HEF" {
		t.Fatalf("default runtime = %q", res.Runtime)
	}
	if res.TotalCycles <= 0 {
		t.Fatal("no cycles simulated")
	}
}

func TestRunUnknownScheduler(t *testing.T) {
	if _, err := Run(Config{Scheduler: "bogus"}); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestRunRejectsMismatchedWorkload(t *testing.T) {
	bad := &workload.Trace{Phases: []workload.Phase{{
		HotSpot: isa.HotSpotME,
		Bursts:  []workload.Burst{{SI: 99, Count: 1}},
	}}}
	if _, err := Run(Config{Workload: bad}); err == nil {
		t.Fatal("invalid workload accepted")
	}
}

func TestSoftwareConfig(t *testing.T) {
	tr := shortTrace(1)
	res, err := Run(Config{Scheduler: "software", Workload: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != tr.SoftwareCycles(isa.H264()) {
		t.Fatalf("software run = %d cycles", res.TotalCycles)
	}
}

func TestMolenConfig(t *testing.T) {
	res, err := Run(Config{Scheduler: "Molen", NumACs: 10, Workload: shortTrace(2), SeedForecasts: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runtime != "Molen" {
		t.Fatalf("runtime = %q", res.Runtime)
	}
}

func TestAllSchedulersBeatSoftware(t *testing.T) {
	tr := shortTrace(3)
	sw := tr.SoftwareCycles(isa.H264())
	for _, s := range append([]string{"Molen"}, Schedulers...) {
		res, err := Run(Config{Scheduler: s, NumACs: 12, Workload: tr, SeedForecasts: true})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if res.TotalCycles >= sw {
			t.Errorf("%s with 12 ACs (%d) not faster than software (%d)", s, res.TotalCycles, sw)
		}
	}
}

func TestRunsAreReproducible(t *testing.T) {
	cfg := Config{Scheduler: "HEF", NumACs: 9, Workload: shortTrace(2), SeedForecasts: true}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles {
		t.Fatalf("non-deterministic: %d vs %d", a.TotalCycles, b.TotalCycles)
	}
}

func TestSweep(t *testing.T) {
	out, err := Sweep(Config{Workload: shortTrace(2), SeedForecasts: true},
		[]string{"HEF", "Molen"}, []int{6, 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || len(out["HEF"]) != 2 {
		t.Fatalf("sweep shape = %v", out)
	}
	if out["HEF"][12] >= out["Molen"][12] {
		t.Errorf("HEF (%d) not faster than Molen (%d) at 12 ACs", out["HEF"][12], out["Molen"][12])
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	if _, err := Sweep(Config{Workload: shortTrace(1)}, []string{"nope"}, []int{4}); err == nil {
		t.Fatal("sweep swallowed scheduler error")
	}
}

func TestCollectOptions(t *testing.T) {
	cfg := Config{Scheduler: "HEF", NumACs: 10, Workload: shortTrace(1), SeedForecasts: true}
	cfg.Collect.HistogramBucket = 100_000
	cfg.Collect.Timeline = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram == nil || res.Timeline == nil {
		t.Fatal("collection options ignored")
	}
}

func TestNewRuntimeExposesManager(t *testing.T) {
	rt, err := NewRuntime(Config{Scheduler: "ASF", NumACs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Name() != "RISPP/ASF" {
		t.Fatalf("Name = %q", rt.Name())
	}
}

// contendedBus squeezes both bus masters: glue cycles stretch 1.8× and
// Atom reloads 1.2×.
func contendedBus() *membus.Config {
	return &membus.Config{Policy: membus.Fair, CPULoad: 0.9, DMADemand: 0.6}
}

// resultFields projects a Result onto the fields the Bus comparison pins.
func resultFields(r *sim.Result) []any {
	return []any{r.Runtime, r.TotalCycles, r.StallCycles,
		r.Executions(), r.SWExecutions(), r.HWExecutions(), r.Phases}
}

func TestBusContentionConfig(t *testing.T) {
	tr := shortTrace(2)
	base, err := Run(Config{Scheduler: "HEF", NumACs: 10, Workload: tr, SeedForecasts: true})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Run(Config{Scheduler: "HEF", NumACs: 10, Workload: tr, SeedForecasts: true,
		Bus: &membus.Config{Policy: membus.CPUPriority, CPULoad: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.TotalCycles <= base.TotalCycles {
		t.Fatalf("bus contention did not slow the system: %d vs %d", loaded.TotalCycles, base.TotalCycles)
	}

	// The same points through a Runner whose base sets the Bus — a generated
	// H.264 trace, a scenario and a pinned workload, with delta-resimulation
	// on and off — match Run with that Bus field for field, on the first
	// run and on the repeat (a trail serve, or a second simulation with
	// delta-resimulation off).
	name := scenario.Names()[0]
	sc, _ := scenario.Find(name)
	cases := []struct {
		name   string
		runner Config // the Runner's base, Bus added below
		p      explore.Point
		run    Config // the equivalent Run config, Bus added below
	}{
		{"h264", Config{},
			explore.Point{Scheduler: "HEF", NumACs: 10, Frames: 2, SeedForecasts: true},
			Config{Scheduler: "HEF", NumACs: 10, Workload: tr, SeedForecasts: true}},
		{"scenario", Config{},
			explore.Point{Scheduler: "Molen", NumACs: 8, Frames: 2, Seed: 1, SeedForecasts: true, Scenario: name},
			Config{ISA: sc.ISA(), Workload: sc.Trace(2, 1), Scheduler: "Molen", NumACs: 8, SeedForecasts: true}},
		{"pinned", Config{Workload: tr},
			explore.Point{Scheduler: "ASF", NumACs: 6, Frames: 2, SeedForecasts: true},
			Config{Scheduler: "ASF", NumACs: 6, Workload: tr, SeedForecasts: true}},
	}
	for _, c := range cases {
		c.run.Bus = contendedBus()
		want, err := Run(c.run)
		if err != nil {
			t.Fatalf("%s: Run: %v", c.name, err)
		}
		for _, disable := range []bool{false, true} {
			rb := c.runner
			rb.Bus, rb.DisableDelta = contendedBus(), disable
			rn := NewRunner(rb)
			for i := 0; i < 2; i++ {
				got := new(sim.Result)
				if err := rn.RunPoint(context.Background(), c.p, sim.Options{}, got); err != nil {
					t.Fatalf("%s: RunPoint: %v", c.name, err)
				}
				if !reflect.DeepEqual(resultFields(got), resultFields(want)) {
					t.Errorf("%s (DisableDelta=%v, run %d): Runner with a Bus gives %v, Run gives %v",
						c.name, disable, i+1, resultFields(got), resultFields(want))
				}
			}
		}
	}
}
