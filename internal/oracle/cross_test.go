package oracle_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"rispp"
	"rispp/internal/isa"
	"rispp/internal/oracle"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

// simRuntime returns a constructor of the simulator's side of the
// configuration the oracle interprets: rispp.Build, which compiles the trace
// and builds the runtime with design-time forecast seeding, mirroring
// oracle.NewSystem.
func simRuntime(name string, is *isa.ISA, acs int, tr *workload.Trace) func() (*workload.Compiled, sim.Runtime, error) {
	return func() (*workload.Compiled, sim.Runtime, error) {
		return rispp.Build(rispp.Config{ISA: is, Workload: tr, Scheduler: name, NumACs: acs, SeedForecasts: true})
	}
}

// runSim runs the optimized simulator on the same configuration the oracle
// interprets (see simRuntime).
func runSim(t *testing.T, name string, is *isa.ISA, acs int, tr *workload.Trace, opts sim.Options) *sim.Result {
	t.Helper()
	ct, rt, err := simRuntime(name, is, acs, tr)()
	if err != nil {
		t.Fatal(err)
	}
	res := new(sim.Result)
	if err := sim.RunCompiled(context.Background(), ct, rt, opts, res); err != nil {
		t.Fatal(err)
	}
	return res
}

// allArtifacts collects every artifact the oracle can compare: histograms
// with the given bucket width, the latency timeline and the journal.
func allArtifacts(bucket int64) oracle.Options {
	return oracle.Options{HistogramBucket: bucket, Timeline: true, Journal: true}
}

// crossCheck compares the simulator with want, the oracle's account of the
// same configuration collected with allArtifacts(bucket), in two runs on
// fresh systems from build: one collecting the histogram, the timeline and
// the journal, and one with the journal only — the artifact-free options a
// sweep runs with, under which the simulator steps over whole blocks of
// bursts (a histogram needs every burst's start, so the first run walks
// them all). Both must match field-exact, journal bytes included, and
// satisfy the paper invariants; the first divergence is returned.
func crossCheck(tr *workload.Trace, is *isa.ISA, want *oracle.Result, bucket int64, build func() (*workload.Compiled, sim.Runtime, error)) error {
	bare := *want
	bare.Histogram, bare.Timeline = nil, nil
	runs := []struct {
		name string
		want *oracle.Result
		opts sim.Options
	}{
		{"with artifacts", want, sim.Options{HistogramBucket: bucket, Timeline: true}},
		{"artifact-free", &bare, sim.Options{}},
	}
	for _, run := range runs {
		ct, rt, err := build()
		if err != nil {
			return err
		}
		var journal bytes.Buffer
		run.opts.Journal = &journal
		got := new(sim.Result)
		err = sim.RunCompiled(context.Background(), ct, rt, run.opts, got)
		if err == nil {
			err = oracle.Diff(run.want, got)
		}
		if err == nil {
			err = oracle.DiffJournal(want.Journal, &journal)
		}
		if err == nil {
			err = oracle.Check(tr, is, got)
		}
		if err != nil {
			return fmt.Errorf("%s run: %w", run.name, err)
		}
	}
	return nil
}

// diverges reports whether the oracle and the simulator disagree (or either
// crashes) on one (hardware, trace, system, ACs) configuration — the
// predicate ShrinkTrace minimizes over.
func diverges(is *isa.ISA, tr *workload.Trace, sys string, acs int) (failed bool) {
	defer func() {
		if recover() != nil {
			failed = true
		}
	}()
	ort, err := oracle.NewSystem(sys, is, acs, tr)
	if err != nil {
		return true
	}
	want, err := oracle.Run(tr, is, ort, allArtifacts(50_000))
	if err != nil {
		return true
	}
	return crossCheck(tr, is, want, 50_000, simRuntime(sys, is, acs, tr)) != nil
}

// reportShrunk minimizes a diverging trace and logs the reproducer, so a CI
// failure carries the smallest input that still exhibits it.
func reportShrunk(t *testing.T, is *isa.ISA, tr *workload.Trace, sys string, acs int) {
	t.Helper()
	small := oracle.ShrinkTrace(tr, func(c *workload.Trace) bool { return diverges(is, c, sys, acs) })
	js, _ := json.Marshal(small)
	t.Logf("minimal reproducer (system %s, %d ACs, ISA %q): %s", sys, acs, is.Name, js)
}

// TestCrossCheckGeneratedCorpus is the acceptance gate of the oracle: 250
// seeded (hardware, workload, AC-count) configurations, each run through all
// six run-time systems — 1,500 triples — comparing the naive per-execution
// interpreter against the compiled hot path field by field (cycles, stalls,
// per-SI SW/HW splits, phases, latency timelines, histograms and the JSONL
// journal; see crossCheck for the two simulator runs per triple), and
// validating every simulator result against the paper invariants. A
// divergence fails the test with a shrunk minimal reproducer. Its phases
// hold at most five bursts, so no block step runs here; the H.264, scenario
// and rotation corpora reach it.
func TestCrossCheckGeneratedCorpus(t *testing.T) {
	failures := 0
	for seed := int64(0); seed < 250; seed++ {
		r := rand.New(rand.NewSource(seed))
		is := oracle.GenHardware(r)
		tr := oracle.GenWorkload(r, is)
		acs := oracle.GenNumACs(r)
		for _, sys := range oracle.Systems {
			ort, err := oracle.NewSystem(sys, is, acs, tr)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracle.Run(tr, is, ort, allArtifacts(50_000))
			if err != nil {
				t.Fatal(err)
			}
			if err := crossCheck(tr, is, want, 50_000, simRuntime(sys, is, acs, tr)); err != nil {
				t.Errorf("seed %d, system %s, %d ACs: %v", seed, sys, acs, err)
				reportShrunk(t, is, tr, sys, acs)
				if failures++; failures >= 5 {
					t.Fatal("stopping after 5 divergences")
				}
			}
		}
	}
}

// TestCrossCheckH264 cross-checks the oracle against the simulator on the
// paper's calibrated H.264 encoder workload for all six run-time systems,
// with every measurement artifact enabled and artifact-free (crossCheck).
// Short mode runs a 4-frame excerpt; the full 140-frame trace (7.4M SI
// executions) runs otherwise.
func TestCrossCheckH264(t *testing.T) {
	cfg := workload.H264Config{}
	if testing.Short() {
		cfg.Frames = 4
	}
	is := isa.H264()
	tr := workload.H264(cfg)
	for _, sys := range oracle.Systems {
		ort, err := oracle.NewSystem(sys, is, 10, tr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Run(tr, is, ort, allArtifacts(100_000))
		if err != nil {
			t.Fatal(err)
		}
		if err := crossCheck(tr, is, want, 100_000, simRuntime(sys, is, 10, tr)); err != nil {
			t.Errorf("system %s: %v", sys, err)
		}
	}
}
