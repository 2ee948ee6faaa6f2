package oracle_test

import (
	"math/rand"
	"testing"

	"rispp/internal/oracle"
)

// FuzzRunCompiled fuzzes the compiled hot path against the oracle: every
// input decodes to a seeded (hardware, workload, system, ACs) configuration,
// both engines run it (the simulator with artifacts and artifact-free; see
// crossCheck), and any divergence from the reference interpreter or any
// violated paper invariant is a finding. The generated corpus already
// found one crash this way (a stale Atom load completing into a fully
// protected container array; see internal/core/stale_load_test.go).
func FuzzRunCompiled(f *testing.F) {
	f.Add(uint64(0), byte(0), byte(0))
	f.Add(uint64(23), byte(1), byte(2))  // ex-panic: stale load into protected array
	f.Add(uint64(59), byte(3), byte(4))  // ex-panic, HEF
	f.Add(uint64(130), byte(2), byte(5)) // ex-panic, ASF-only divergent seed
	f.Add(uint64(7), byte(0), byte(3))   // within-phase latency regression
	f.Add(uint64(1), byte(5), byte(12))  // software system, max fabric
	f.Fuzz(func(t *testing.T, seed uint64, sysIdx, acs byte) {
		r := rand.New(rand.NewSource(int64(seed)))
		is := oracle.GenHardware(r)
		tr := oracle.GenWorkload(r, is)
		sys := oracle.Systems[int(sysIdx)%len(oracle.Systems)]
		numACs := int(acs % 13)

		ort, err := oracle.NewSystem(sys, is, numACs, tr)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.Run(tr, is, ort, allArtifacts(50_000))
		if err != nil {
			t.Fatal(err)
		}
		if err := crossCheck(tr, is, want, 50_000, simRuntime(sys, is, numACs, tr)); err != nil {
			t.Errorf("seed %d, system %s, %d ACs: %v", seed, sys, numACs, err)
			reportShrunk(t, is, tr, sys, numACs)
		}
	})
}
