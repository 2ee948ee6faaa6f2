package core

import (
	"testing"

	"rispp/internal/bitstream"
	"rispp/internal/isa"
	"rispp/internal/molecule"
	"rispp/internal/reconfig"
	"rispp/internal/sched"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

// newHEF builds an HEF Manager over acs containers, its forecasts seeded
// from seeds (nil for none).
func newHEF(t *testing.T, is *isa.ISA, acs int, seeds []int64) *Manager {
	t.Helper()
	s, err := sched.New("HEF")
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(Config{ISA: is, NumACs: acs, Scheduler: s, ForecastSeeds: seeds})
}

// meSeeds returns a seed table for is forecasting sad SAD and satd SATD
// executions in Motion Estimation.
func meSeeds(is *isa.ISA, sad, satd int64) []int64 {
	seeds := make([]int64, len(is.SIs))
	seeds[isa.SISAD], seeds[isa.SISATD] = sad, satd
	return seeds
}

func TestNewManagerValidation(t *testing.T) {
	s, _ := sched.New("HEF")
	cases := []Config{
		{NumACs: 4, Scheduler: s},    // no ISA
		{ISA: isa.H264(), NumACs: 4}, // no scheduler
		{ISA: isa.H264(), NumACs: -1, Scheduler: s},
	}
	for i, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: NewManager did not panic", i)
				}
			}()
			NewManager(cfg)
		}()
	}
}

func TestManagerName(t *testing.T) {
	m := newHEF(t, isa.H264(), 8, nil)
	if m.Name() != "RISPP/HEF" {
		t.Fatalf("Name = %q", m.Name())
	}
}

func TestHotSpotEntrySchedulesAtoms(t *testing.T) {
	is := isa.H264()
	m := newHEF(t, is, 8, meSeeds(is, 26000, 6000))
	m.EnterHotSpot(isa.HotSpotME, 0)
	if len(m.Requests) == 0 {
		t.Fatal("no Molecules selected")
	}
	if _, ok := m.NextEvent(); !ok {
		t.Fatal("no Atom loads scheduled")
	}
	if m.Latency(isa.SISAD) != is.SI(isa.SISAD).SWLatency {
		t.Fatal("SAD accelerated before any Atom loaded")
	}
}

func TestAtomLoadUpgradesLatency(t *testing.T) {
	is := isa.H264()
	m := newHEF(t, is, 8, meSeeds(is, 26000, 0))
	m.EnterHotSpot(isa.HotSpotME, 0)
	before := m.Latency(isa.SISAD)
	at, ok := m.NextEvent()
	if !ok {
		t.Fatal("nothing scheduled")
	}
	m.Advance(at)
	after := m.Latency(isa.SISAD)
	if after >= before {
		t.Fatalf("latency did not improve: %d -> %d", before, after)
	}
	if m.AtomLoads() != 1 {
		t.Fatalf("AtomLoads = %d", m.AtomLoads())
	}
}

func TestSeededForecastsDriveFirstSelection(t *testing.T) {
	is := isa.H264()
	unseeded := newHEF(t, is, 8, nil)
	unseeded.EnterHotSpot(isa.HotSpotME, 0)
	if len(unseeded.Requests) != 0 {
		t.Fatalf("cold manager selected %v without forecasts", unseeded.Requests)
	}

	tr := workload.H264(workload.H264Config{Frames: 1})
	seeded := newHEF(t, is, 8, tr.ForecastSeeds(is))
	seeded.EnterHotSpot(isa.HotSpotME, 0)
	if len(seeded.Requests) == 0 {
		t.Fatal("seeded manager selected nothing")
	}
}

func TestColdManagerLearnsAcrossFrames(t *testing.T) {
	// Without seeds the first ME runs in software; the monitor measures it
	// and the second ME gets hardware.
	is := isa.H264()
	m := newHEF(t, is, 8, nil)
	tr := workload.H264(workload.H264Config{Frames: 2})
	res, err := sim.Run(tr, is, m, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.HWExecutionsOf(isa.SISAD) == 0 {
		t.Fatal("manager never learned to accelerate SAD")
	}
	if res.SWExecutionsOf(isa.SISAD) == 0 {
		t.Fatal("first cold frame should have run SAD in software")
	}
}

func TestFullRunNeverExceedsCapacity(t *testing.T) {
	is := isa.H264()
	for _, acs := range []int{1, 3, 6, 12, 24} {
		tr := workload.H264(workload.H264Config{Frames: 3})
		m := newHEF(t, is, acs, tr.ForecastSeeds(is))
		if _, err := sim.Run(tr, is, m, sim.Options{}); err != nil {
			t.Fatalf("ACs=%d: %v", acs, err)
		}
		if got := m.Loaded().Determinant(); got > acs {
			t.Fatalf("ACs=%d: %d Atoms loaded", acs, got)
		}
	}
}

func TestZeroACsRunsInSoftware(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	m := newHEF(t, is, 0, tr.ForecastSeeds(is))
	res, err := sim.Run(tr, is, m, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != tr.SoftwareCycles(is) {
		t.Fatalf("0 ACs = %d cycles, want pure software %d", res.TotalCycles, tr.SoftwareCycles(is))
	}
	if len(res.HWExecutions()) != 0 {
		t.Fatal("hardware executions with zero containers")
	}
}

func TestMoreACsNeverHurt(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 5})
	prev := int64(1 << 62)
	for _, acs := range []int{0, 4, 8, 16, 32} {
		m := newHEF(t, is, acs, tr.ForecastSeeds(is))
		res, err := sim.Run(tr, is, m, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Allow 3% tolerance: more ACs can trigger longer reconfiguration
		// phases before paying off within so few frames.
		if float64(res.TotalCycles) > 1.03*float64(prev) {
			t.Fatalf("ACs=%d: %d cycles, noticeably worse than smaller fabric (%d)", acs, res.TotalCycles, prev)
		}
		if res.TotalCycles < prev {
			prev = res.TotalCycles
		}
	}
}

func TestUpgradesAreMonotoneWithinHotSpot(t *testing.T) {
	// Within one hot spot execution, an SI's latency must never increase:
	// Atoms needed by the current selection are protected from eviction, so
	// upgrades only go downward until the hot spot is left. Simulate single
	// phases in isolation (across phases latencies may legitimately rise
	// when another hot spot evicts shared Atoms).
	is := isa.H264()
	full := workload.H264(workload.H264Config{Frames: 1})
	for pi := range full.Phases {
		m := newHEF(t, is, 10, full.ForecastSeeds(is))
		one := &workload.Trace{Name: "phase", Phases: full.Phases[pi : pi+1]}
		res, err := sim.Run(one, is, m, sim.Options{Timeline: true})
		if err != nil {
			t.Fatal(err)
		}
		last := map[int]int{}
		for _, e := range res.Timeline.Events {
			if prev, ok := last[e.SI]; ok && e.Latency > prev {
				t.Fatalf("phase %d: SI %d latency rose %d -> %d at cycle %d",
					pi, e.SI, prev, e.Latency, e.Cycle)
			}
			last[e.SI] = e.Latency
		}
	}
}

func TestEvictionPoliciesAllComplete(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 2})
	for _, pol := range []reconfig.EvictionPolicy{reconfig.EvictLRU, reconfig.EvictFIFO, reconfig.EvictRandom} {
		s, _ := sched.New("HEF")
		m := NewManager(Config{ISA: is, NumACs: 10, Scheduler: s, Eviction: pol, Seed: 42, ForecastSeeds: tr.ForecastSeeds(is)})
		if _, err := sim.Run(tr, is, m, sim.Options{}); err != nil {
			t.Fatalf("policy %v: %v", pol, err)
		}
	}
}

func TestExhaustiveSelectionOnMEHotSpot(t *testing.T) {
	is := isa.H264()
	s, _ := sched.New("HEF")
	tr := workload.H264(workload.H264Config{Frames: 1})
	m := NewManager(Config{ISA: is, NumACs: 6, Scheduler: s, ExhaustiveSelection: true, ForecastSeeds: tr.ForecastSeeds(is)})
	// Run only the ME phase: exhaustive selection over 2 SIs is cheap.
	me := &workload.Trace{Name: "me", Phases: tr.Phases[:1]}
	if _, err := sim.Run(me, is, m, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if len(m.Requests) == 0 {
		t.Fatal("exhaustive selection chose nothing")
	}
}

func TestResetRestoresSeeds(t *testing.T) {
	is := isa.H264()
	m := newHEF(t, is, 8, meSeeds(is, 1234, 0))
	tr := workload.H264(workload.H264Config{Frames: 1})
	if _, err := sim.Run(tr, is, m, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if m.Monitor().Expected(isa.HotSpotME, isa.SISAD) == 1234 {
		t.Fatal("the run left the seeded forecast unchanged")
	}
	m.Reset()
	if got := m.Monitor().Expected(isa.HotSpotME, isa.SISAD); got != 1234 {
		t.Fatalf("seed lost on Reset: %d", got)
	}
	if m.AtomLoads() != 0 || m.Evictions() != 0 {
		t.Fatal("counters not reset")
	}
	if !m.Loaded().Equal(molecule.New(is.Dim())) {
		t.Fatal("containers not cleared on Reset")
	}
}

func TestRequestsFitSup(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	m := newHEF(t, is, 9, tr.ForecastSeeds(is))
	m.EnterHotSpot(isa.HotSpotEE, 0)
	sup := molecule.New(is.Dim())
	for _, r := range m.Requests {
		sup = sup.Sup(r.Selected.Atoms)
	}
	if sup.Determinant() > 9 {
		t.Fatalf("selection NA = %d > 9 ACs", sup.Determinant())
	}
}

func TestBitstreamRepositoryTimingIdentical(t *testing.T) {
	// Driving the port from the generated bitstream images must reproduce
	// the ISA-calibrated run exactly (image sizes equal the nominal sizes).
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 2})
	repo, err := bitstream.NewRepository(is, 5)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := sched.New("HEF")
	plain := NewManager(Config{ISA: is, NumACs: 10, Scheduler: s1, ForecastSeeds: tr.ForecastSeeds(is)})
	s2, _ := sched.New("HEF")
	withRepo := NewManager(Config{ISA: is, NumACs: 10, Scheduler: s2, Bitstreams: repo, ForecastSeeds: tr.ForecastSeeds(is)})

	a, err := sim.Run(tr, is, plain, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(tr, is, withRepo, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles {
		t.Fatalf("bitstream-driven run differs: %d vs %d", a.TotalCycles, b.TotalCycles)
	}
}

func TestMonitorLearnsHotSpotRotation(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 3})
	m := newHEF(t, is, 8, tr.ForecastSeeds(is))
	if _, err := sim.Run(tr, is, m, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	next, ok := m.Monitor().PredictNext(isa.HotSpotME)
	if !ok || next != isa.HotSpotEE {
		t.Fatalf("PredictNext(ME) = %v, %v; want EE", next, ok)
	}
	next, ok = m.Monitor().PredictNext(isa.HotSpotLF)
	if !ok || next != isa.HotSpotME {
		t.Fatalf("PredictNext(LF) = %v, %v; want ME", next, ok)
	}
}

func TestPrefetchingHelpsWithSlack(t *testing.T) {
	// Prefetching needs two things: an idle reconfiguration port (hot spots
	// outlasting their reload windows — 4CIF frames are 4x longer than CIF)
	// and slack containers beyond the current selection (a 40-AC fabric).
	// At the paper's CIF/5–24-AC operating points the port never idles, so
	// prefetching is a no-op there (see TestPrefetchingNeverHurts).
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 4, WidthMB: 44, HeightMB: 36})

	run := func(prefetch bool) (*sim.Result, *Manager) {
		s, _ := sched.New("HEF")
		m := NewManager(Config{ISA: is, NumACs: 40, Scheduler: s, Prefetch: prefetch, ForecastSeeds: tr.ForecastSeeds(is)})
		res, err := sim.Run(tr, is, m, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res, m
	}

	plain, _ := run(false)
	pre, mgr := run(true)
	if mgr.Prefetches == 0 {
		t.Fatal("prefetching never triggered despite idle port and slack capacity")
	}
	if pre.TotalCycles > plain.TotalCycles {
		t.Fatalf("prefetching hurt: %d vs %d cycles", pre.TotalCycles, plain.TotalCycles)
	}
}

func TestPrefetchingNeverHurts(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 5})
	for _, acs := range []int{6, 10, 14, 24} {
		run := func(prefetch bool) int64 {
			s, _ := sched.New("HEF")
			m := NewManager(Config{ISA: is, NumACs: acs, Scheduler: s, Prefetch: prefetch, ForecastSeeds: tr.ForecastSeeds(is)})
			res, err := sim.Run(tr, is, m, sim.Options{})
			if err != nil {
				t.Fatal(err)
			}
			return res.TotalCycles
		}
		plain, pre := run(false), run(true)
		if pre > plain {
			t.Errorf("ACs=%d: prefetching hurt: %d vs %d", acs, pre, plain)
		}
	}
}

func TestSetBudgetConstrainsSelection(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	m := newHEF(t, is, 20, tr.ForecastSeeds(is))

	m.EnterHotSpot(isa.HotSpotEE, 0)
	fullNA := molecule.New(is.Dim())
	for _, r := range m.Requests {
		fullNA = fullNA.Sup(r.Selected.Atoms)
	}

	m.SetBudget(6)
	if m.Budget() != 6 {
		t.Fatalf("Budget = %d", m.Budget())
	}
	m.EnterHotSpot(isa.HotSpotEE, 1_000_000)
	small := molecule.New(is.Dim())
	for _, r := range m.Requests {
		small = small.Sup(r.Selected.Atoms)
	}
	if small.Determinant() > 6 {
		t.Fatalf("constrained selection NA = %d > 6", small.Determinant())
	}
	if small.Determinant() >= fullNA.Determinant() {
		t.Fatalf("budget did not shrink the selection: %d vs %d",
			small.Determinant(), fullNA.Determinant())
	}

	// Clamping.
	m.SetBudget(-3)
	if m.Budget() != 0 {
		t.Fatal("negative budget not clamped")
	}
	m.SetBudget(99)
	if m.Budget() != 20 {
		t.Fatal("oversized budget not clamped to NumACs")
	}
	// Reset restores.
	m.Reset()
	if m.Budget() != 20 {
		t.Fatal("Reset did not restore the budget")
	}
}

func TestConstrainedRunStillValid(t *testing.T) {
	// Shrink the budget mid-run (thermal throttling at frame 2): the
	// system must keep working, just slower.
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 4})
	m := newHEF(t, is, 16, tr.ForecastSeeds(is))

	throttled := &budgetSchedule{Manager: m, at: 6, budget: 5}
	res, err := sim.Run(tr, is, throttled, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}

	m2 := newHEF(t, is, 16, tr.ForecastSeeds(is))
	full, err := sim.Run(tr, is, m2, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles <= full.TotalCycles {
		t.Fatalf("throttled run (%d) not slower than full fabric (%d)", res.TotalCycles, full.TotalCycles)
	}
}

// budgetSchedule throttles the manager's budget from the n-th hot-spot
// entry on.
type budgetSchedule struct {
	*Manager
	entries int
	at      int
	budget  int
}

func (b *budgetSchedule) EnterHotSpot(h isa.HotSpotID, now int64) {
	b.entries++
	if b.entries == b.at {
		b.SetBudget(b.budget)
	}
	b.Manager.EnterHotSpot(h, now)
}

func TestPrefetchWithoutPredictionIsNoop(t *testing.T) {
	// A manager that has only ever seen one hot spot has no successor to
	// predict; the prefetch path must stay quiet.
	is := isa.H264()
	s, _ := sched.New("HEF")
	full := workload.H264(workload.H264Config{Frames: 1})
	m := NewManager(Config{ISA: is, NumACs: 30, Scheduler: s, Prefetch: true, ForecastSeeds: full.ForecastSeeds(is)})
	me := &workload.Trace{Name: "me", Phases: full.Phases[:1]}
	if _, err := sim.Run(me, is, m, sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if m.Prefetches != 0 {
		t.Fatalf("prefetched %d times without a learned rotation", m.Prefetches)
	}
}

func TestZeroBudgetFallsBackToSoftware(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	m := newHEF(t, is, 12, tr.ForecastSeeds(is))
	// sim.Run resets the runtime (restoring the budget), so throttle at the
	// first hot-spot entry instead.
	zero := &budgetSchedule{Manager: m, at: 1, budget: 0}
	res, err := sim.Run(tr, is, zero, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != tr.SoftwareCycles(is) {
		t.Fatalf("zero budget ran %d cycles, want software %d", res.TotalCycles, tr.SoftwareCycles(is))
	}
}
