package oracle_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"rispp/internal/core"
	"rispp/internal/isa"
	"rispp/internal/oracle"
	"rispp/internal/reconfig"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

// crossCheckManager runs one RISPP configuration through the reference
// interpreter and the simulator on twin Managers built from cfg, with every
// measurement artifact enabled and artifact-free (crossCheck), and returns
// the Manager of the last simulator run with the first divergence, if any.
func crossCheckManager(is *isa.ISA, tr *workload.Trace, cfg core.Config) (m *core.Manager, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	cfg.ForecastSeeds = tr.ForecastSeeds(is)
	twin := func() *core.Manager { return core.NewManager(cfg) }
	want, err := oracle.Run(tr, is, twin(), allArtifacts(50_000))
	if err != nil {
		return nil, err
	}
	ct, err := workload.Compile(tr, is)
	if err != nil {
		return nil, err
	}
	err = crossCheck(tr, is, want, 50_000, func() (*workload.Compiled, sim.Runtime, error) {
		m = twin()
		return ct, m, nil
	})
	return m, err
}

// TestCrossCheckPrefetchEviction extends the generated cross-check past the
// paper defaults oracle.NewSystem builds, to the two run-time paths they
// leave out: reconfiguration prefetching, which NextEvent and Advance
// trigger, and Atom recency under every eviction policy, which Record
// stamps. 150 generated (hardware, workload, AC-count) configurations run
// on the four RISPP schedulers × {LRU, FIFO, seeded random} eviction ×
// prefetch off/on — 3,600 configurations — on twin Managers, compared field
// by field with every artifact and the journal bytes, and artifact-free. A
// divergence fails with a shrunk minimal reproducer.
func TestCrossCheckPrefetchEviction(t *testing.T) {
	policies := []reconfig.EvictionPolicy{reconfig.EvictLRU, reconfig.EvictFIFO, reconfig.EvictRandom}
	failures, prefetched, evicted := 0, 0, 0
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		is := oracle.GenHardware(r)
		tr := oracle.GenWorkload(r, is)
		acs := oracle.GenNumACs(r)
		for _, name := range []string{"FSFR", "ASF", "SJF", "HEF"} {
			s, err := sched.New(name)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range policies {
				for _, prefetch := range []bool{false, true} {
					cfg := core.Config{ISA: is, NumACs: acs, Scheduler: s, Eviction: ev, Seed: seed, Prefetch: prefetch}
					m, err := crossCheckManager(is, tr, cfg)
					if err == nil {
						if m.Prefetches > 0 {
							prefetched++
						}
						if ev != reconfig.EvictLRU && m.Evictions() > 0 {
							evicted++
						}
						continue
					}
					t.Errorf("seed %d, %s, %v eviction, prefetch %v, %d ACs: %v", seed, name, ev, prefetch, acs, err)
					small := oracle.ShrinkTrace(tr, func(c *workload.Trace) bool {
						_, err := crossCheckManager(is, c, cfg)
						return err != nil
					})
					js, _ := json.Marshal(small)
					t.Logf("minimal reproducer (ISA %q): %s", is.Name, js)
					if failures++; failures >= 5 {
						t.Fatal("stopping after 5 divergences")
					}
				}
			}
		}
	}
	// The corpus must keep reaching the paths it exists for.
	if prefetched == 0 || evicted == 0 {
		t.Fatalf("corpus reached %d prefetching and %d FIFO/random evicting configurations, want both > 0", prefetched, evicted)
	}
	t.Logf("%d configurations prefetched, %d evicted under FIFO or random", prefetched, evicted)
}
