package oracle_test

import (
	"math/rand"
	"testing"

	"rispp/internal/oracle"
	"rispp/internal/scenario"
	"rispp/internal/workload"
)

// TestCrossCheckScenarioCorpus is the scenario-side acceptance gate: 90
// generated scenario specs (multi-app merged ISAs, branchy control flow,
// content-driven encodes), each expanded and run through all six run-time
// systems — 540 triples — comparing the reference interpreter against the
// compiled simulator field by field: cycles, stalls, per-SI SW/HW splits,
// phases, latency timelines, histograms and the byte-exact JSONL journal,
// with artifacts and artifact-free (crossCheck). Short mode runs a 15-spec
// excerpt (90 triples).
func TestCrossCheckScenarioCorpus(t *testing.T) {
	nSpecs := 90
	if testing.Short() {
		nSpecs = 15
	}
	failures := 0
	for seed := 0; seed < nSpecs; seed++ {
		r := rand.New(rand.NewSource(int64(7000 + seed)))
		spec := scenario.GenSpec(r)
		sc, err := scenario.New(spec)
		if err != nil {
			t.Fatalf("seed %d: GenSpec produced a rejected spec: %v", seed, err)
		}
		is := sc.ISA()
		frames := 2 + r.Intn(3)
		tr := sc.Trace(frames, int64(seed))
		if err := tr.Validate(is); err != nil {
			t.Fatalf("seed %d (%s): expansion invalid: %v", seed, spec.Name, err)
		}
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
				t.Errorf("seed %d (%s, kind %s), system %s, %d ACs: %v",
					seed, spec.Name, spec.Kind, sys, acs, err)
				reportShrunk(t, is, tr, sys, acs)
				if failures++; failures >= 5 {
					t.Fatal("stopping after 5 divergences")
				}
			}
		}
	}
}

// TestCrossCheckNamedScenarios cross-checks every shipped library scenario
// end to end: the published expansions the serving and exploration layers
// hand out must match the reference interpreter field-exactly, with every
// measurement artifact enabled and artifact-free (crossCheck), on each
// run-time system.
func TestCrossCheckNamedScenarios(t *testing.T) {
	frames := 5
	if testing.Short() {
		frames = 2
	}
	for _, name := range scenario.Names() {
		sc, ok := scenario.Find(name)
		if !ok {
			t.Fatalf("library lists %q but Find fails", name)
		}
		is := sc.ISA()
		for _, seed := range []int64{0, 3} {
			tr := sc.Trace(frames, seed)
			if err := tr.Validate(is); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			for _, sys := range oracle.Systems {
				ort, err := oracle.NewSystem(sys, is, 8, tr)
				if err != nil {
					t.Fatal(err)
				}
				want, err := oracle.Run(tr, is, ort, allArtifacts(50_000))
				if err != nil {
					t.Fatal(err)
				}
				if err := crossCheck(tr, is, want, 50_000, simRuntime(sys, is, 8, tr)); err != nil {
					t.Errorf("%s seed %d, system %s: %v", name, seed, sys, err)
					reportShrunk(t, is, tr, sys, 8)
				}
			}
		}
	}
}

// TestGenSpecDeterministic: equal rng seeds generate equal specs (the
// corpus is reproducible), and expansion of a generated spec is stable.
func TestGenSpecDeterministic(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		a := scenario.GenSpec(rand.New(rand.NewSource(seed)))
		b := scenario.GenSpec(rand.New(rand.NewSource(seed)))
		sa, err := scenario.New(a)
		if err != nil {
			t.Fatal(err)
		}
		sb, err := scenario.New(b)
		if err != nil {
			t.Fatal(err)
		}
		if sa.Digest() != sb.Digest() {
			t.Fatalf("seed %d: GenSpec not deterministic", seed)
		}
		ta := sa.Trace(3, 1)
		tb := sb.Trace(3, 1)
		if ta.TotalExecutions() != tb.TotalExecutions() || len(ta.Phases) != len(tb.Phases) {
			t.Fatalf("seed %d: expansions diverge", seed)
		}
		var _ *workload.Trace = ta
	}
}
