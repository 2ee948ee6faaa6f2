package oracle_test

import (
	"encoding/json"
	"math/rand"
	"testing"

	"rispp/internal/core"
	"rispp/internal/isa"
	"rispp/internal/oracle"
	"rispp/internal/sched"
	"rispp/internal/workload"
)

// blockProbe wraps the runtime of an oracle run and counts the Atom-load
// events that land inside a full block of workload.BlockLen bursts: after
// one of the block's executions ran and before its last one did. The
// simulator cannot step over such a block whole; it walks it burst by burst
// and splits it at the event.
type blockProbe struct {
	oracle.Runtime
	tr     *workload.Trace
	phase  int // the current phase; -1 before the first
	burst  int // the burst of the phase's last execution
	done   int // that burst's executions run so far; 0 before the first
	inside int
}

func (p *blockProbe) Reset() {
	p.Runtime.Reset()
	p.phase, p.inside = -1, 0
}

func (p *blockProbe) EnterHotSpot(h isa.HotSpotID, now int64) {
	p.Runtime.EnterHotSpot(h, now)
	p.phase++
	p.burst, p.done = 0, 0
}

// Record is called once per execution by the oracle.
func (p *blockProbe) Record(si isa.SIID, n int64, now int64) {
	p.Runtime.Record(si, n, now)
	bursts := p.tr.Phases[p.phase].Bursts
	for bursts[p.burst].Count == p.done {
		p.burst, p.done = p.burst+1, 0
	}
	p.done += int(n)
}

func (p *blockProbe) Advance(t int64) {
	p.Runtime.Advance(t)
	bursts := p.tr.Phases[p.phase].Bursts
	next, done := p.burst, p.done
	for next < len(bursts) && bursts[next].Count == done {
		next, done = next+1, 0
	}
	full := len(bursts) / workload.BlockLen * workload.BlockLen
	if p.done > 0 && next < full && p.burst/workload.BlockLen == next/workload.BlockLen {
		p.inside++
	}
}

// TestCrossCheckRotationCorpus cross-checks the simulator against the
// oracle on GenRotation traces: long phases in a repeated order of three
// hot spots, where Atom loads complete inside blocks of bursts (which the
// simulator must then split instead of stepping over whole) and between
// them, and where the monitor can predict the next hot spot. Each of 60
// seeded (hardware, rotation) pairs runs at two budgets: a tight one (2..9
// ACs), where the hot spots evict each other's Atoms and prefetching has
// Atoms to load, and a roomier one (8..16 ACs), where some Atoms survive a
// rotation, so which ones Record's recency stamps let LRU evict shows in
// later latencies. Each budget runs the six paper-default systems and the
// four RISPP schedulers with prefetching — 1,200 configurations — compared
// with artifacts and artifact-free (crossCheck). Short mode runs 12 seeds.
// The corpus must keep reaching what it exists for, so it asserts floors on
// the events that land inside a block and on the share of prefetching
// configurations that issue a prefetch round.
func TestCrossCheckRotationCorpus(t *testing.T) {
	nSeeds := int64(60)
	if testing.Short() {
		nSeeds = 12
	}
	failures, inside, prefetching, prefetched := 0, 0, 0, 0
	for seed := int64(0); seed < nSeeds; seed++ {
		r := rand.New(rand.NewSource(9000 + seed))
		is := oracle.GenHardware(r)
		for len(is.HotSpots) < 3 {
			is = oracle.GenHardware(r)
		}
		tr := oracle.GenRotation(r, is)
		for _, acs := range []int{2 + r.Intn(8), 8 + r.Intn(9)} {
			for _, sys := range oracle.Systems {
				ort, err := oracle.NewSystem(sys, is, acs, tr)
				if err != nil {
					t.Fatal(err)
				}
				probe := &blockProbe{Runtime: ort, tr: tr}
				want, err := oracle.Run(tr, is, probe, allArtifacts(50_000))
				if err != nil {
					t.Fatal(err)
				}
				inside += probe.inside
				if err := crossCheck(tr, is, want, 50_000, simRuntime(sys, is, acs, tr)); err != nil {
					t.Errorf("seed %d, system %s, %d ACs: %v", seed, sys, acs, err)
					reportShrunk(t, is, tr, sys, acs)
					if failures++; failures >= 5 {
						t.Fatal("stopping after 5 divergences")
					}
				}
			}
			for _, name := range []string{"FSFR", "ASF", "SJF", "HEF"} {
				s, err := sched.New(name)
				if err != nil {
					t.Fatal(err)
				}
				cfg := core.Config{ISA: is, NumACs: acs, Scheduler: s, Prefetch: true}
				m, err := crossCheckManager(is, tr, cfg)
				if err == nil {
					prefetching++
					if m.Prefetches > 0 {
						prefetched++
					}
					continue
				}
				t.Errorf("seed %d, %s with prefetch, %d ACs: %v", seed, name, acs, err)
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
	t.Logf("%d Atom-load events landed inside a block; %d of %d prefetching configurations issued a prefetch round",
		inside, prefetched, prefetching)
	if inside < 20*int(nSeeds) || 4*prefetched < prefetching {
		t.Fatalf("corpus reached %d events inside a block (want ≥ %d) and %d of %d prefetching configurations issuing a round (want ≥ a quarter)",
			inside, 20*nSeeds, prefetched, prefetching)
	}
}
