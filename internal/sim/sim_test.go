package sim

import (
	"bytes"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"rispp/internal/isa"
	"rispp/internal/workload"
)

func smallTrace() *workload.Trace {
	return workload.NewBuilder("small").
		Phase(isa.HotSpotME, 100).
		Burst(isa.SISAD, 10, 5).
		Burst(isa.SISATD, 4, 5).
		Phase(isa.HotSpotLF, 50).
		Burst(isa.SILFBS4, 8, 2).
		Build()
}

func TestSoftwareRuntimeCycleAccounting(t *testing.T) {
	is := isa.H264()
	tr := smallTrace()
	res, err := Run(tr, is, Software(is), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles != tr.SoftwareCycles(is) {
		t.Fatalf("TotalCycles = %d, want %d (the closed-form software count)", res.TotalCycles, tr.SoftwareCycles(is))
	}
	if res.ExecutionsOf(isa.SISAD) != 10 || res.ExecutionsOf(isa.SISATD) != 4 || res.ExecutionsOf(isa.SILFBS4) != 8 {
		t.Fatalf("Executions = %v", res.Executions())
	}
	if res.SWExecutions()[isa.SISAD] != 10 {
		t.Fatalf("SWExecutions = %v", res.SWExecutions())
	}
	if len(res.HWExecutions()) != 0 {
		t.Fatalf("HWExecutions = %v on the software runtime", res.HWExecutions())
	}
	if res.Runtime != "software" {
		t.Fatalf("Runtime = %q", res.Runtime)
	}
}

func TestSoftwareMatchesPaperZeroACs(t *testing.T) {
	// The 0-Atom-Container data point of Section 5: 7,403M cycles.
	is := isa.H264()
	tr := workload.H264(workload.H264Config{})
	res, err := Run(tr, is, Software(is), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCycles < 7_350_000_000 || res.TotalCycles > 7_450_000_000 {
		t.Fatalf("software encode = %d cycles, want ≈7,403M", res.TotalCycles)
	}
}

// eventRuntime is a scripted runtime: SI latency drops from slow to fast at
// a fixed event time, mimicking one Atom-load completion.
type eventRuntime struct {
	is      *isa.ISA
	eventAt int64
	fired   bool
	slow    int
	fast    int

	recorded int64
	records  []recordCall
}

// recordCall is one Record the scripted runtime received.
type recordCall struct {
	si     isa.SIID
	n, now int64
}

func (e *eventRuntime) Name() string                      { return "scripted" }
func (e *eventRuntime) Reset()                            { e.fired = false; e.recorded = 0; e.records = e.records[:0] }
func (e *eventRuntime) EnterHotSpot(isa.HotSpotID, int64) {}
func (e *eventRuntime) LeaveHotSpot(int64)                {}
func (e *eventRuntime) Latency(isa.SIID) int {
	if e.fired {
		return e.fast
	}
	return e.slow
}
func (e *eventRuntime) Record(si isa.SIID, n int64, now int64) {
	e.recorded += n
	e.records = append(e.records, recordCall{si, n, now})
}
func (e *eventRuntime) NextEvent() (int64, bool) {
	if e.fired {
		return 0, false
	}
	return e.eventAt, true
}
func (e *eventRuntime) Advance(t int64) {
	if t != e.eventAt {
		panic("advance at wrong time")
	}
	e.fired = true
}

func TestEventSplitsBurst(t *testing.T) {
	// 10 executions, 100 cycles each (latency 95 + gap 5); the upgrade
	// fires at cycle 250, so executions starting at 0, 100, 200 run slow
	// (the one at 200 still starts before 250) and the remaining 7 run at
	// 15 cycles each (10 + 5).
	is := isa.H264()
	tr := workload.NewBuilder("b").
		Phase(isa.HotSpotME, 0).
		Burst(isa.SISAD, 10, 5).
		Build()
	rt := &eventRuntime{is: is, eventAt: 250, slow: 95, fast: 10}
	res, err := Run(tr, is, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(3*100 + 7*15)
	if res.TotalCycles != want {
		t.Fatalf("TotalCycles = %d, want %d", res.TotalCycles, want)
	}
	if rt.recorded != 10 {
		t.Fatalf("recorded %d executions", rt.recorded)
	}
}

func TestEventInsideLastExecution(t *testing.T) {
	// The SAD burst's last execution starts at 200, before the upgrade at
	// 250, and ends at 300, after it: the whole burst runs slow and the
	// SATD burst after it runs fast.
	is := isa.H264()
	tr := workload.NewBuilder("b").
		Phase(isa.HotSpotME, 0).
		Burst(isa.SISAD, 3, 5).
		Burst(isa.SISATD, 4, 5).
		Build()
	rt := &eventRuntime{is: is, eventAt: 250, slow: 95, fast: 10}
	res, err := Run(tr, is, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(3*100 + 4*15); res.TotalCycles != want {
		t.Fatalf("TotalCycles = %d, want %d", res.TotalCycles, want)
	}
	want := []recordCall{{isa.SISAD, 3, 300}, {isa.SISATD, 4, 360}}
	if !slices.Equal(rt.records, want) {
		t.Fatalf("records = %v, want %v", rt.records, want)
	}
}

func TestZeroCountBurstMovesNoStamp(t *testing.T) {
	// No event interrupts the phase, so all three bursts share one
	// segment. The empty SATD burst at its end must leave SATD's report at
	// the end of SATD's last execution, ordered before SAD's.
	is := isa.H264()
	tr := workload.NewBuilder("b").
		Phase(isa.HotSpotME, 0).
		Burst(isa.SISATD, 2, 5).
		Burst(isa.SISAD, 3, 5).
		Burst(isa.SISATD, 0, 5).
		Build()
	rt := &eventRuntime{is: is, eventAt: 1 << 60, slow: 95, fast: 10}
	if _, err := Run(tr, is, rt, Options{}); err != nil {
		t.Fatal(err)
	}
	want := []recordCall{{isa.SISATD, 2, 200}, {isa.SISAD, 3, 500}}
	if !slices.Equal(rt.records, want) {
		t.Fatalf("records = %v, want %v", rt.records, want)
	}
}

// burstRun is n copies of one burst.
type burstRun struct {
	n int
	b workload.Burst
}

// blockTrace builds a one-phase ME trace of the runs' bursts in order.
func blockTrace(runs ...burstRun) *workload.Trace {
	tb := workload.NewBuilder("blocks").Phase(isa.HotSpotME, 0)
	for _, r := range runs {
		for i := 0; i < r.n; i++ {
			tb.Burst(r.b.SI, r.b.Count, r.b.Gap)
		}
	}
	return tb.Build()
}

// TestBlockStepEdges pins the block step at its edges. Every burst has gap
// 5, and every execution takes 100 cycles before the scripted upgrade and
// 15 after it, so a block of workload.BlockLen (B) one-execution bursts
// lasts 12,800 cycles at the slow latency. Each case runs twice: as sweeps
// run it, stepping over whole blocks, and with a histogram, which walks
// every burst; both must leave the same cycles and Records.
func TestBlockStepEdges(t *testing.T) {
	const B = workload.BlockLen
	sad := func(n, count int) burstRun { return burstRun{n, workload.Burst{SI: isa.SISAD, Count: count, Gap: 5}} }
	satd := func(n, count int) burstRun { return burstRun{n, workload.Burst{SI: isa.SISATD, Count: count, Gap: 5}} }
	never := int64(1) << 60
	cases := []struct {
		name    string
		tr      *workload.Trace
		eventAt int64
		total   int64
		records []recordCall
	}{{
		// Block 0 ends exactly at the event: it runs whole and slow, and
		// the segment ends with it.
		name: "event at a block's end", tr: blockTrace(sad(B, 1), satd(B, 1)), eventAt: 100 * B,
		total:   100*B + 15*B,
		records: []recordCall{{isa.SISAD, B, 100 * B}, {isa.SISATD, B, 100*B + 15*B}},
	}, {
		// One cycle into block 1: its first execution starts before the
		// event and runs slow, the rest run fast.
		name: "event one cycle inside a block", tr: blockTrace(sad(B, 1), satd(B, 1)), eventAt: 100*B + 1,
		total:   100*B + 100 + 15*(B-1),
		records: []recordCall{{isa.SISAD, B, 100 * B}, {isa.SISATD, 1, 100*B + 100}, {isa.SISATD, B - 1, 100*B + 100 + 15*(B-1)}},
	}, {
		// One cycle before block 0's last execution starts: that execution
		// runs fast, so the block cannot run whole at the slow latency.
		name: "event before a block's last execution", tr: blockTrace(sad(B, 1), satd(B, 1)), eventAt: 100*(B-1) - 1,
		total:   100*(B-1) + 15 + 15*B,
		records: []recordCall{{isa.SISAD, B - 1, 100 * (B - 1)}, {isa.SISAD, 1, 100*(B-1) + 15}, {isa.SISATD, B, 100*(B-1) + 15 + 15*B}},
	}, {
		// The event splits block 0 after 65 executions; the next segment
		// starts mid-block, walks to block 1 and steps over it whole.
		name: "segment starting mid-block", tr: blockTrace(sad(B, 1), satd(B, 1)), eventAt: 6450,
		total:   6500 + 15*(B-65) + 15*B,
		records: []recordCall{{isa.SISAD, 65, 6500}, {isa.SISAD, B - 65, 6500 + 15*(B-65)}, {isa.SISATD, B, 6500 + 15*(B-65) + 15*B}},
	}, {
		// Zero-count bursts open and close both blocks; SATD's empty last
		// burst must not move its report to the block's end.
		name: "zero-count bursts at block edges", eventAt: never,
		tr: blockTrace(satd(1, 0), satd(1, 2), sad(B-3, 1), satd(1, 0),
			sad(1, 0), satd(B-3, 1), sad(1, 1), satd(1, 0)),
		total:   200 + 100*(B-3) + 100*(B-3) + 100,
		records: []recordCall{{isa.SISATD, 2 + B - 3, 200 + 200*(B-3)}, {isa.SISAD, B - 2, 200 + 200*(B-3) + 100}},
	}, {
		// SATD's last burst opens block 0, and block 1 follows in the same
		// segment: SATD is reported at its own last execution's end.
		name: "SI whose last burst opens its block", eventAt: never,
		tr:      blockTrace(satd(1, 3), sad(B-1, 1), sad(B, 1)),
		total:   300 + 100*(2*B-1),
		records: []recordCall{{isa.SISATD, 3, 300}, {isa.SISAD, 2*B - 1, 300 + 100*(2*B-1)}},
	}}
	is := isa.H264()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, opts := range []Options{{}, {HistogramBucket: 1 << 40}} {
				rt := &eventRuntime{is: is, eventAt: c.eventAt, slow: 95, fast: 10}
				res, err := Run(c.tr, is, rt, opts)
				if err != nil {
					t.Fatal(err)
				}
				if res.TotalCycles != c.total {
					t.Errorf("histogram %t: TotalCycles = %d, want %d", opts.HistogramBucket > 0, res.TotalCycles, c.total)
				}
				if !slices.Equal(rt.records, c.records) {
					t.Errorf("histogram %t: records = %v, want %v", opts.HistogramBucket > 0, rt.records, c.records)
				}
			}
		})
	}
}

func TestEventDuringSetupApplies(t *testing.T) {
	is := isa.H264()
	tr := workload.NewBuilder("b").
		Phase(isa.HotSpotME, 1000). // upgrade completes during setup
		Burst(isa.SISAD, 5, 0).
		Build()
	rt := &eventRuntime{is: is, eventAt: 400, slow: 100, fast: 10}
	res, err := Run(tr, is, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(1000 + 5*10)
	if res.TotalCycles != want {
		t.Fatalf("TotalCycles = %d, want %d", res.TotalCycles, want)
	}
}

func TestHistogramCollection(t *testing.T) {
	is := isa.H264()
	tr := workload.NewBuilder("b").
		Phase(isa.HotSpotME, 0).
		Burst(isa.SISAD, 100, 0).
		Build()
	rt := &eventRuntime{is: is, eventAt: 1 << 60, slow: 100, fast: 1}
	res, err := Run(tr, is, rt, Options{HistogramBucket: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Histogram == nil {
		t.Fatal("histogram not collected")
	}
	counts := res.Histogram.Counts(int(isa.SISAD))
	if len(counts) != 10 {
		t.Fatalf("buckets = %d, want 10", len(counts))
	}
	for i, c := range counts {
		if c != 10 {
			t.Fatalf("bucket %d = %d, want 10 (100-cycle executions, 1000-cycle buckets)", i, c)
		}
	}
}

func TestTimelineCollection(t *testing.T) {
	is := isa.H264()
	tr := workload.NewBuilder("b").
		Phase(isa.HotSpotME, 0).
		Burst(isa.SISAD, 10, 0).
		Build()
	rt := &eventRuntime{is: is, eventAt: 250, slow: 100, fast: 10}
	res, err := Run(tr, is, rt, Options{Timeline: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline == nil {
		t.Fatal("timeline not collected")
	}
	if got := res.Timeline.LatencyAt(int(isa.SISAD), 0, -1); got != 100 {
		t.Fatalf("latency at 0 = %d", got)
	}
	if got := res.Timeline.LatencyAt(int(isa.SISAD), 300, -1); got != 10 {
		t.Fatalf("latency after event = %d", got)
	}
}

func TestMaxCyclesAborts(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 1})
	if _, err := Run(tr, is, Software(is), Options{MaxCycles: 1000}); err == nil {
		t.Fatal("MaxCycles not enforced")
	}
}

func TestStallCyclesAccounting(t *testing.T) {
	is := isa.H264()
	tr := workload.NewBuilder("b").
		Phase(isa.HotSpotME, 0).
		Burst(isa.SISAD, 3, 0).
		Build()
	res, err := Run(tr, is, Software(is), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fastest := is.SI(isa.SISAD).Fastest().Latency
	want := 3 * int64(is.SI(isa.SISAD).SWLatency-fastest)
	if res.StallCycles != want {
		t.Fatalf("StallCycles = %d, want %d", res.StallCycles, want)
	}
}

func TestRunResetsRuntime(t *testing.T) {
	is := isa.H264()
	tr := smallTrace()
	rt := &eventRuntime{is: is, eventAt: 50, slow: 100, fast: 10}
	a, err := Run(tr, is, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(tr, is, rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCycles != b.TotalCycles {
		t.Fatalf("re-run differs: %d vs %d (Reset broken)", a.TotalCycles, b.TotalCycles)
	}
}

func TestPhaseStats(t *testing.T) {
	is := isa.H264()
	tr := smallTrace()
	res, err := Run(tr, is, Software(is), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(res.Phases))
	}
	if res.Phases[0].Start != 0 || res.Phases[0].End != res.Phases[1].Start {
		t.Fatalf("phase boundaries not contiguous: %+v", res.Phases)
	}
	if res.Phases[1].End != res.TotalCycles {
		t.Fatalf("last phase ends at %d, total %d", res.Phases[1].End, res.TotalCycles)
	}
	var sum int64
	for _, p := range res.Phases {
		sum += p.Cycles()
	}
	if sum != res.TotalCycles {
		t.Fatalf("phase cycles sum %d != total %d", sum, res.TotalCycles)
	}
	if res.Phases[0].HotSpot != isa.HotSpotME || res.Phases[1].HotSpot != isa.HotSpotLF {
		t.Fatalf("phase hot spots wrong: %+v", res.Phases)
	}
}

func TestJournal(t *testing.T) {
	is := isa.H264()
	tr := smallTrace()
	var buf bytes.Buffer
	rt := &eventRuntime{is: is, eventAt: 500, slow: 100, fast: 10}
	if _, err := Run(tr, is, rt, Options{Journal: &buf}); err != nil {
		t.Fatal(err)
	}
	var enters, leaves, loads, lats int
	dec := json.NewDecoder(&buf)
	var last int64 = -1
	for dec.More() {
		var e JournalEvent
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		if e.Cycle < last {
			t.Fatalf("journal time went backwards: %d after %d", e.Cycle, last)
		}
		last = e.Cycle
		switch e.Event {
		case "enter":
			enters++
		case "leave":
			leaves++
		case "load":
			loads++
		case "latency":
			lats++
		default:
			t.Fatalf("unknown event %q", e.Event)
		}
	}
	if enters != 2 || leaves != 2 {
		t.Fatalf("enter/leave = %d/%d, want 2/2", enters, leaves)
	}
	if loads != 1 {
		t.Fatalf("loads = %d, want 1 (the scripted event)", loads)
	}
	if lats == 0 {
		t.Fatal("no latency events recorded")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestJournalWriteErrorSurfaces(t *testing.T) {
	is := isa.H264()
	tr := smallTrace()
	if _, err := Run(tr, is, Software(is), Options{Journal: failingWriter{}}); err == nil {
		t.Fatal("journal write error swallowed")
	}
}

func TestJournalRoundTrip(t *testing.T) {
	is := isa.H264()
	tr := workload.H264(workload.H264Config{Frames: 2})
	var buf bytes.Buffer
	rt := &eventRuntime{is: is, eventAt: 500_000, slow: 100, fast: 10}
	res, err := Run(tr, is, rt, Options{Journal: &buf})
	if err != nil {
		t.Fatal(err)
	}
	events, err := ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	summary, err := Summarize(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(summary.Phases) != len(res.Phases) {
		t.Fatalf("journal reconstructs %d phases, sim ran %d", len(summary.Phases), len(res.Phases))
	}
	for i, p := range summary.Phases {
		if p.Start != res.Phases[i].Start || p.End != res.Phases[i].End {
			t.Fatalf("phase %d boundaries differ: journal [%d,%d], sim [%d,%d]",
				i, p.Start, p.End, res.Phases[i].Start, res.Phases[i].End)
		}
		if int(res.Phases[i].HotSpot) != p.HotSpot {
			t.Fatalf("phase %d hot spot differs", i)
		}
	}
	if summary.Loads != 1 {
		t.Fatalf("journal loads = %d, want 1", summary.Loads)
	}
}

func TestReadJournalRejectsGarbage(t *testing.T) {
	cases := []string{
		"{not json}\n",
		`{"t":5,"ev":"explode"}` + "\n",
		`{"t":10,"ev":"enter","hotspot":0}` + "\n" + `{"t":5,"ev":"leave","hotspot":0}` + "\n",
	}
	for i, c := range cases {
		if _, err := ReadJournal(strings.NewReader(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestSummarizeRejectsMalformedSequences(t *testing.T) {
	cases := [][]JournalEvent{
		{{Event: "leave"}},
		{{Event: "enter"}, {Event: "enter"}},
		{{Event: "enter"}},
		{{Event: "enter", HotSpot: 1}, {Event: "leave", HotSpot: 2}},
	}
	for i, evs := range cases {
		if _, err := Summarize(evs); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
