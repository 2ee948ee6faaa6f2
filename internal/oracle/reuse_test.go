// Reuse-equivalence gate: a runtime that has already executed a workload
// and is then rerun (the simulator Resets it in place — the contract every
// caller that reuses a runtime relies on) must produce results field-exact
// identical to a freshly constructed runtime, including the JSONL journal
// byte for byte. The property is checked over the oracle's seeded
// generators: hundreds of (hardware, workload, AC-count) configurations
// across all six run-time systems.
package oracle_test

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"rispp"
	"rispp/internal/isa"
	"rispp/internal/oracle"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

const reuseSeeds = 100 // × len(oracle.Systems) = 600 triples

func newRuntime(t *testing.T, sys string, is *isa.ISA, acs int, tr *workload.Trace) sim.Runtime {
	t.Helper()
	rt, err := rispp.NewRuntime(rispp.Config{ISA: is, Workload: tr, Scheduler: sys, NumACs: acs, SeedForecasts: true})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestReuseEquivalenceGeneratedCorpus runs each generated configuration on
// a fresh runtime and on a runtime already dirtied by a previous full run,
// and requires every measurement artifact — cycles, stalls, per-SI splits,
// phases, timelines, histograms, journal bytes — to be identical.
func TestReuseEquivalenceGeneratedCorpus(t *testing.T) {
	opts := sim.Options{HistogramBucket: 50_000, Timeline: true}
	for seed := int64(0); seed < reuseSeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		is := oracle.GenHardware(r)
		tr := oracle.GenWorkload(r, is)
		acs := oracle.GenNumACs(r)
		ct, err := workload.Compile(tr, is)
		if err != nil {
			t.Fatal(err)
		}
		for _, sys := range oracle.Systems {
			freshOpts, reusedOpts := opts, opts
			var freshJournal, reusedJournal bytes.Buffer
			freshOpts.Journal = &freshJournal
			reusedOpts.Journal = &reusedJournal

			fresh := newRuntime(t, sys, is, acs, tr)
			var want sim.Result
			if err := sim.RunCompiled(context.Background(), ct, fresh, freshOpts, &want); err != nil {
				t.Fatal(err)
			}

			reused := newRuntime(t, sys, is, acs, tr)
			var scratch sim.Result
			// Dirty the runtime with a full artifact-free run, then rerun
			// with the real options — a reusing caller's pattern.
			if err := sim.RunCompiled(context.Background(), ct, reused, sim.Options{}, &scratch); err != nil {
				t.Fatal(err)
			}
			var got sim.Result
			if err := sim.RunCompiled(context.Background(), ct, reused, reusedOpts, &got); err != nil {
				t.Fatal(err)
			}

			if err := oracle.DiffResults(&want, &got); err != nil {
				t.Errorf("seed %d, system %s, %d ACs: %v", seed, sys, acs, err)
			}
			if !bytes.Equal(freshJournal.Bytes(), reusedJournal.Bytes()) {
				t.Errorf("seed %d, system %s, %d ACs: journal bytes differ between fresh and reused runtime",
					seed, sys, acs)
			}
		}
	}
}
