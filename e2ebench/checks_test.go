package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/serve"
)

func newTestPass(t *testing.T) *pass {
	t.Helper()
	return &pass{
		cfg:   config{subject: paperGrid, seconds: 4 * time.Second, nproc: 2, scratch: t.TempDir()},
		e2e:   make(map[string]float64),
		layer: make(map[string]float64),
		notes: make(map[string]string),
		setup: make(map[string][]time.Duration),
		mem:   make(map[string]memDelta),
	}
}

// sweep runs spec through the engine risppexplore builds and returns the
// JSONL stream with its decoded records.
func sweep(t *testing.T, spec explore.Spec) ([]byte, []explore.Record) {
	t.Helper()
	var buf bytes.Buffer
	res, err := rispp.Explorer(rispp.Config{}, 2, nil).Execute(context.Background(), spec, &buf)
	if err := sweepErr(res, err, 0); err != nil {
		t.Fatal(err)
	}
	recs, err := decodeRecords(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), recs
}

var smallSpec = explore.Spec{Schedulers: []string{"HEF", "Molen"}, ACs: []int{4, 8}, Frames: []int{4}, SeedForecasts: []bool{true}}

func TestFlippedCycleCountFailsGridResimulation(t *testing.T) {
	_, recs := sweep(t, smallSpec)
	p := newTestPass(t)
	p.resimulateGrid(context.Background(), recs)
	if p.ops.failed != 0 || p.ops.attempted != len(recs) {
		t.Fatalf("clean records: %d of %d checks failed: %v", p.ops.failed, p.ops.attempted, p.ops.failures)
	}
	recs[2].TotalCycles ^= 1
	p = newTestPass(t)
	p.resimulateGrid(context.Background(), recs)
	if p.ops.failed != 1 {
		t.Fatalf("flipped cycle count: %d failed operations, want 1 (%v)", p.ops.failed, p.ops.failures)
	}
}

func TestDroppedOrReorderedLineFailsStreamCheck(t *testing.T) {
	stream, _ := sweep(t, smallSpec)
	lines := strings.SplitAfter(string(stream), "\n")
	lines = lines[:len(lines)-1] // trailing empty element
	dropped := strings.Join(append(append([]string(nil), lines[:1]...), lines[2:]...), "")
	reordered := strings.Join(append([]string{lines[1], lines[0]}, lines[2:]...), "")
	var ops tally
	ops.check("identical", sameStream(stream, []byte(strings.Join(lines, ""))))
	ops.check("dropped", sameStream(stream, []byte(dropped)))
	ops.check("reordered", sameStream(stream, []byte(reordered)))
	if ops.attempted != 3 || ops.failed != 2 {
		t.Fatalf("%d of %d failed, want the dropped and reordered streams: %v", ops.failed, ops.attempted, ops.failures)
	}
}

func TestShedAndServerErrorsFailOperations(t *testing.T) {
	codes := []int{http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusInternalServerError}
	var ops tally
	for _, code := range codes {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
			w.Write([]byte(`{}`))
		}))
		x := exchange{route: "/v1/simulate"}
		x.status, x.body, x.err = post(context.Background(), srv.Client(), srv.URL+"/v1/simulate", "gold", "t", []byte(`{}`))
		srv.Close()
		ops.check("status", statusErr(x))
	}
	dead := exchange{route: "/v1/simulate"}
	dead.status, dead.body, dead.err = post(context.Background(), http.DefaultClient, "http://127.0.0.1:1/v1/simulate", "gold", "t", nil)
	ops.check("refused", statusErr(dead))
	if ops.attempted != 5 || ops.failed != 4 {
		t.Fatalf("%d of %d failed, want every non-200 and the refused connection: %v", ops.failed, ops.attempted, ops.failures)
	}
}

// simulateVia posts points to a real server and returns the exchanges.
func simulateVia(t *testing.T, pts []explore.Point) []exchange {
	t.Helper()
	srv := serve.New(serve.Config{}, rispp.Config{})
	srv.Logf = quiet
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	var out []exchange
	for _, pt := range pts {
		x := exchange{route: "/v1/simulate", point: pt.Normalized()}
		x.status, x.body, x.err = post(context.Background(), hs.Client(), hs.URL+"/v1/simulate", "gold", "t", simulateBody(pt))
		if err := statusErr(x); err != nil {
			t.Fatal(err)
		}
		out = append(out, x)
	}
	return out
}

func TestCorruptedSimulateResponsesFailResimulation(t *testing.T) {
	pts, _ := smallSpec.Expand()
	sims := simulateVia(t, pts)
	_, recs := sweep(t, smallSpec)
	p := newTestPass(t)
	p.resimulateMix(context.Background(), sims, recs)
	if p.ops.failed != 0 {
		t.Fatalf("clean responses: %v", p.ops.failures)
	}

	corrupt := func(x exchange, edit func(*serve.SimulateResponse)) exchange {
		var resp serve.SimulateResponse
		if err := json.Unmarshal(x.body, &resp); err != nil {
			t.Fatal(err)
		}
		edit(&resp)
		x.body, _ = json.Marshal(resp)
		return x
	}
	sims[0] = corrupt(sims[0], func(r *serve.SimulateResponse) { r.TotalCycles++ })
	sims[1] = corrupt(sims[1], func(r *serve.SimulateResponse) { r.SIs[0].HWExecutions-- })
	recs[3].StallCycles++
	p = newTestPass(t)
	p.resimulateMix(context.Background(), sims, recs)
	if p.ops.failed != 3 {
		t.Fatalf("two corrupted bodies and one corrupted record: %d failed, want 3 (%v)", p.ops.failed, p.ops.failures)
	}
}

func TestRepeatedPointWithDifferentBodyFails(t *testing.T) {
	pt := explore.Point{Scheduler: "HEF", NumACs: 6, Frames: 2}.Normalized()
	ok := exchange{point: pt, status: http.StatusOK, body: []byte(`{"cycles":1}`)}
	same, other := ok, ok
	other.body = []byte(`{"cycles":2}`)
	p := newTestPass(t)
	p.checkRepeats([]exchange{ok, same, other})
	if p.ops.attempted != 2 || p.ops.failed != 1 {
		t.Fatalf("%d of %d repeats failed, want 1 of 2", p.ops.failed, p.ops.attempted)
	}
}

func TestWarmResimulationAndRetriesFail(t *testing.T) {
	var ops tally
	ops.check("warm", zeroCount("points simulated on warm passes", 0))
	ops.check("warm", zeroCount("points simulated on warm passes", 3))
	ops.check("retries", zeroCount("shard retries", 1))
	if ops.failed != 2 {
		t.Fatalf("%d failed, want 2", ops.failed)
	}
}

func TestSeedZeroGridReproducesTable2(t *testing.T) {
	spec := gridSpec(0)
	spec.Schedulers = []string{"HEF", "Molen"}
	spec.Frames = []int{140}
	_, recs := sweep(t, spec)
	if err := checkTable2(recs); err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if recs[i].Point.Scheduler == "Molen" && recs[i].Point.NumACs == 24 {
			recs[i].TotalCycles = recs[i].TotalCycles * 9 / 10
		}
	}
	if checkTable2(recs) == nil {
		t.Fatal("a Molen record off by 10% still passes the Table 2 check")
	}
}
