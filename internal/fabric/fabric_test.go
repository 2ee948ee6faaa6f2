package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rispp/internal/explore"
)

// fakeRun is a pure, deterministic stand-in for the simulator: metrics are a
// function of the point alone, so any partition of a sweep across fake
// workers must merge back to the unsharded stream byte-for-byte.
func fakeRun(_ context.Context, p explore.Point) (explore.Metrics, error) {
	if p.Scheduler == "explode" {
		return explore.Metrics{}, errors.New("boom")
	}
	h := int64(p.Hash64() % 1_000_000)
	return explore.Metrics{
		TotalCycles:  1_000_000 + h + int64(p.NumACs)*1000,
		StallCycles:  h % 10_000,
		SWExecutions: int64(p.Frames) * 10,
		HWExecutions: int64(p.Frames) * 90,
	}, nil
}

// referenceStream is the unsharded ground truth: one engine over the whole
// job list, exactly what a single risppserve process would stream.
func referenceStream(t *testing.T, pts []explore.Point) []byte {
	t.Helper()
	var buf bytes.Buffer
	eng := &explore.Engine{Run: fakeRun, Workers: 2}
	if _, err := eng.ExecutePoints(context.Background(), pts, &buf); err != nil {
		t.Fatalf("reference sweep: %v", err)
	}
	return buf.Bytes()
}

// workerRequest mirrors the serve-layer ExploreRequest fields the
// coordinator posts.
type workerRequest struct {
	Points []explore.Point `json:"points"`
}

// fakeWorker is an httptest server speaking the worker side of the fabric
// protocol: POST /v1/explore with a point list answers one JSONL record per
// point in posted order.
func fakeWorker(t *testing.T, middle func(call int, w http.ResponseWriter, pts []explore.Point) bool) *httptest.Server {
	t.Helper()
	var calls atomic.Int64
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/explore" {
			http.NotFound(w, r)
			return
		}
		var req workerRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		call := int(calls.Add(1))
		if middle != nil && middle(call, w, req.Points) {
			return
		}
		eng := &explore.Engine{Run: fakeRun, Workers: 1}
		eng.ExecutePoints(r.Context(), req.Points, w) //nolint:errcheck // streamed
	}))
}

func testPoints(t *testing.T, n int) []explore.Point {
	t.Helper()
	spec := explore.Spec{
		Schedulers: []string{"HEF", "Molen", "SJF"},
		ACs:        []int{4, 8, 12, 16},
		Frames:     []int{5, 10},
	}
	pts, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if n > 0 && n < len(pts) {
		pts = pts[:n]
	}
	return pts
}

func TestOwnerDeterministicAndBalanced(t *testing.T) {
	ids := []string{"w1", "w2", "w3", "w4"}
	pts := testPoints(t, 0)
	counts := map[string]int{}
	for _, p := range pts {
		a := Owner(p.Hash64(), ids)
		b := Owner(p.Hash64(), []string{"w3", "w1", "w4", "w2"})
		if a != b {
			t.Fatalf("owner depends on id order: %q vs %q", a, b)
		}
		counts[a]++
	}
	for _, id := range ids {
		if counts[id] == 0 {
			t.Errorf("worker %s got no points out of %d (distribution %v)", id, len(pts), counts)
		}
	}
}

// TestOwnerMinimalDisruption is the rendezvous-hashing property the fabric
// depends on: removing one worker moves only that worker's points.
func TestOwnerMinimalDisruption(t *testing.T) {
	all := []string{"w1", "w2", "w3", "w4"}
	without := []string{"w1", "w2", "w4"}
	for _, p := range testPoints(t, 0) {
		before := Owner(p.Hash64(), all)
		after := Owner(p.Hash64(), without)
		if before != "w3" && before != after {
			t.Fatalf("point moved from %s to %s although w3 left", before, after)
		}
		if before == "w3" && after == "w3" {
			t.Fatal("point still assigned to removed worker")
		}
	}
}

func TestOwnerEmpty(t *testing.T) {
	if got := Owner(42, nil); got != "" {
		t.Fatalf("Owner with no ids = %q, want empty", got)
	}
}

func newTestCoordinator(t *testing.T, workers ...*httptest.Server) *Coordinator {
	t.Helper()
	c := NewCoordinator()
	c.Logf = t.Logf
	c.ShardTimeout = 5 * time.Second
	for i, ws := range workers {
		if err := c.Register(fmt.Sprintf("w%d", i+1), ws.URL); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func collectSweep(t *testing.T, c *Coordinator, pts []explore.Point) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := c.Sweep(context.Background(), pts, SweepOptions{
		Emit: func(line []byte) error {
			buf.Write(line)
			return nil
		},
	})
	return buf.Bytes(), err
}

func TestSweepByteParity(t *testing.T) {
	pts := testPoints(t, 0)
	want := referenceStream(t, pts)

	w1, w2, w3 := fakeWorker(t, nil), fakeWorker(t, nil), fakeWorker(t, nil)
	defer w1.Close()
	defer w2.Close()
	defer w3.Close()
	c := newTestCoordinator(t, w1, w2, w3)

	got, err := collectSweep(t, c, pts)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("sharded stream differs from single-process stream:\nsharded: %d bytes\nsingle:  %d bytes", len(got), len(want))
	}
	if retries, failures := c.Stats(); retries != 0 || failures != 0 {
		t.Errorf("healthy sweep recorded retries=%d failures=%d", retries, failures)
	}
}

// TestSweepFailedPointParity: points whose simulation fails produce error
// records, which are real results — they must be forwarded, not retried.
func TestSweepFailedPointParity(t *testing.T) {
	pts := testPoints(t, 6)
	pts = append(pts, explore.Point{Scheduler: "explode", NumACs: 1, Frames: 1}.Normalized())
	want := referenceStream(t, pts)

	w1, w2 := fakeWorker(t, nil), fakeWorker(t, nil)
	defer w1.Close()
	defer w2.Close()
	c := newTestCoordinator(t, w1, w2)

	got, err := collectSweep(t, c, pts)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stream with a failing point differs from single-process stream")
	}
}

// TestSweepWorkerKilled kills one worker after it has streamed a single
// record: its remaining points must re-hash to the survivors and the merged
// stream must still match the single process byte-for-byte.
func TestSweepWorkerKilled(t *testing.T) {
	pts := testPoints(t, 0)
	want := referenceStream(t, pts)

	killer := fakeWorker(t, func(call int, w http.ResponseWriter, shard []explore.Point) bool {
		if call > 1 || len(shard) < 2 {
			return false
		}
		// Stream one valid record, then die mid-response.
		eng := &explore.Engine{Run: fakeRun, Workers: 1}
		eng.ExecutePoints(context.Background(), shard[:1], w) //nolint:errcheck // streamed
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	})
	w2, w3 := fakeWorker(t, nil), fakeWorker(t, nil)
	defer killer.Close()
	defer w2.Close()
	defer w3.Close()
	c := newTestCoordinator(t, killer, w2, w3)

	got, err := collectSweep(t, c, pts)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stream after worker kill differs from single-process stream")
	}
	retries, failures := c.Stats()
	if failures != 1 {
		t.Errorf("failures = %d, want 1", failures)
	}
	if retries == 0 {
		t.Error("no points recorded as retried after the kill")
	}
	if live := c.LiveWorkers(); live != 2 {
		t.Errorf("live workers = %d, want 2", live)
	}
}

// TestSweepSkippedRequeued: "skipped: ..." records are scheduling outcomes
// (the worker's request deadline hit), not results — the coordinator must
// re-dispatch those points, and a later round that completes them heals the
// sweep without marking the worker dead.
func TestSweepSkippedRequeued(t *testing.T) {
	pts := testPoints(t, 0)
	want := referenceStream(t, pts)

	flaky := fakeWorker(t, func(call int, w http.ResponseWriter, shard []explore.Point) bool {
		if call > 1 {
			return false
		}
		enc := json.NewEncoder(w)
		for _, p := range shard {
			enc.Encode(explore.Record{Point: p, Err: "skipped: context deadline exceeded"}) //nolint:errcheck // test stream
		}
		return true
	})
	w2 := fakeWorker(t, nil)
	defer flaky.Close()
	defer w2.Close()
	c := newTestCoordinator(t, flaky, w2)

	got, err := collectSweep(t, c, pts)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stream with requeued skips differs from single-process stream")
	}
	if _, failures := c.Stats(); failures != 0 {
		t.Errorf("skip requeue marked a worker dead (%d failures)", failures)
	}
	if retries, _ := c.Stats(); retries == 0 {
		t.Error("skipped points were not counted as retries")
	}
}

// TestSweepMisbehavingWorker: a worker answering the wrong point must be
// declared dead — its lines can never be merged safely.
func TestSweepMisbehavingWorker(t *testing.T) {
	pts := testPoints(t, 0)
	want := referenceStream(t, pts)

	wrong := explore.Point{Scheduler: "HEF", NumACs: 99, Frames: 1}.Normalized()
	liar := fakeWorker(t, func(call int, w http.ResponseWriter, shard []explore.Point) bool {
		if call > 1 {
			return false
		}
		json.NewEncoder(w).Encode(explore.Record{Point: wrong}) //nolint:errcheck // test stream
		return true
	})
	w2 := fakeWorker(t, nil)
	defer liar.Close()
	defer w2.Close()
	c := newTestCoordinator(t, liar, w2)

	got, err := collectSweep(t, c, pts)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stream after protocol violation differs from single-process stream")
	}
	if _, failures := c.Stats(); failures != 1 {
		t.Errorf("failures = %d, want 1 (misbehaving worker)", failures)
	}
}

func TestSweepNoWorkers(t *testing.T) {
	c := NewCoordinator()
	err := c.Sweep(context.Background(), testPoints(t, 3), SweepOptions{Emit: func([]byte) error { return nil }})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

func TestSweepFleetExhausted(t *testing.T) {
	dead := fakeWorker(t, nil)
	dead.Close() // refuses connections: first shard fails, no survivors
	c := newTestCoordinator(t)
	if err := c.Register("w1", dead.URL); err != nil {
		t.Fatal(err)
	}
	err := c.Sweep(context.Background(), testPoints(t, 3), SweepOptions{Emit: func([]byte) error { return nil }})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
	if live := c.LiveWorkers(); live != 0 {
		t.Errorf("live workers = %d, want 0", live)
	}
}

// TestSweepStalls: a lone worker that skips everything and stays alive
// would loop forever without the stall guard.
func TestSweepStalls(t *testing.T) {
	skipper := fakeWorker(t, func(_ int, w http.ResponseWriter, shard []explore.Point) bool {
		enc := json.NewEncoder(w)
		for _, p := range shard {
			enc.Encode(explore.Record{Point: p, Err: "skipped: context deadline exceeded"}) //nolint:errcheck // test stream
		}
		return true
	})
	defer skipper.Close()
	c := newTestCoordinator(t, skipper)
	err := c.Sweep(context.Background(), testPoints(t, 4), SweepOptions{Emit: func([]byte) error { return nil }})
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("err = %v, want stall", err)
	}
}

func TestSweepEmitErrorAborts(t *testing.T) {
	w1 := fakeWorker(t, nil)
	defer w1.Close()
	c := newTestCoordinator(t, w1)
	emitted := 0
	err := c.Sweep(context.Background(), testPoints(t, 6), SweepOptions{
		Emit: func([]byte) error {
			emitted++
			if emitted >= 2 {
				return errors.New("client went away")
			}
			return nil
		},
	})
	if err == nil || !strings.Contains(err.Error(), "client went away") {
		t.Fatalf("err = %v, want emit error", err)
	}
}

func TestSweepContextCanceled(t *testing.T) {
	release := make(chan struct{})
	slow := fakeWorker(t, func(_ int, w http.ResponseWriter, _ []explore.Point) bool {
		<-release
		return true
	})
	defer slow.Close()
	defer close(release)
	c := newTestCoordinator(t, slow)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- c.Sweep(ctx, testPoints(t, 3), SweepOptions{Emit: func([]byte) error { return nil }})
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sweep did not return after cancellation")
	}
	// A canceled sweep is the caller's doing, not the worker's fault.
	if live := c.LiveWorkers(); live != 1 {
		t.Errorf("live workers = %d after cancel, want 1", live)
	}
}

// TestSweepCancelMidRound cancels from inside the worker's handler, after
// its shard has started, so the round always ends with every point
// unfinished and no worker marked dead — the state the stall check also
// sees. The sweep must report the cancel, not a stall.
func TestSweepCancelMidRound(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w1 := fakeWorker(t, func(_ int, w http.ResponseWriter, _ []explore.Point) bool {
		cancel()
		return true // end the shard stream without a single record
	})
	defer w1.Close()
	c := newTestCoordinator(t, w1)
	err := c.Sweep(ctx, testPoints(t, 3), SweepOptions{Emit: func([]byte) error { return nil }})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if live := c.LiveWorkers(); live != 1 {
		t.Errorf("live workers = %d after cancel, want 1", live)
	}
}

func TestSweepProgress(t *testing.T) {
	pts := testPoints(t, 0)
	w1, w2 := fakeWorker(t, nil), fakeWorker(t, nil)
	defer w1.Close()
	defer w2.Close()
	c := newTestCoordinator(t, w1, w2)

	var mu sync.Mutex
	assigned, done := map[string]int{}, map[string]int{}
	err := c.Sweep(context.Background(), pts, SweepOptions{
		Emit: func([]byte) error { return nil },
		Progress: func(id string, a, d int) {
			mu.Lock()
			assigned[id] += a
			done[id] += d
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	totalA, totalD := 0, 0
	for id := range assigned {
		if assigned[id] != done[id] {
			t.Errorf("worker %s: assigned %d, done %d", id, assigned[id], done[id])
		}
		totalA += assigned[id]
		totalD += done[id]
	}
	if totalA != len(pts) || totalD != len(pts) {
		t.Errorf("progress totals assigned=%d done=%d, want %d", totalA, totalD, len(pts))
	}
}

func TestJobLifecycle(t *testing.T) {
	s := NewJobStore(4)
	canceled := false
	j, err := s.Create(3, func() { canceled = true })
	if err != nil {
		t.Fatal(err)
	}
	if st := j.Status(); st.State != JobRunning || st.Total != 3 || st.Done != 0 {
		t.Fatalf("fresh job status: %+v", st)
	}

	j.Append([]byte("a\n"))
	j.Shard("w1", 3, 0)
	j.Shard("w1", 0, 1)
	lines, state, changed := j.LinesFrom(0)
	if len(lines) != 1 || string(lines[0]) != "a\n" || state != JobRunning {
		t.Fatalf("LinesFrom(0): %d lines, state %s", len(lines), state)
	}

	go func() {
		j.Append([]byte("b\n"))
		j.Finish(nil)
	}()
	<-changed
	for {
		lines, state, changed = j.LinesFrom(1)
		if state.Terminal() {
			break
		}
		<-changed
	}
	if len(lines) != 1 || string(lines[0]) != "b\n" || state != JobDone {
		t.Fatalf("after finish: %d lines, state %s", len(lines), state)
	}
	st := j.Status()
	if st.Done != 2 || st.Bytes != 4 || len(st.Shards) != 1 || st.Shards[0].Assigned != 3 || st.Shards[0].Done != 1 {
		t.Fatalf("final status: %+v", st)
	}

	// Finish is idempotent; a later error must not flip a done job.
	j.Finish(errors.New("late"))
	if got := j.Status().State; got != JobDone {
		t.Fatalf("state after late Finish = %s", got)
	}
	j.Cancel()
	if !canceled {
		t.Fatal("Cancel did not invoke the cancel func")
	}
}

func TestJobFinishStates(t *testing.T) {
	s := NewJobStore(8)
	mk := func() *Job {
		j, err := s.Create(1, func() {})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	j := mk()
	j.Finish(context.Canceled)
	if got := j.Status().State; got != JobCanceled {
		t.Fatalf("canceled job state = %s", got)
	}
	j = mk()
	j.Finish(errors.New("boom"))
	if st := j.Status(); st.State != JobFailed || st.Error != "boom" {
		t.Fatalf("failed job status: %+v", st)
	}
}

func TestJobStoreEviction(t *testing.T) {
	s := NewJobStore(2)
	j1, _ := s.Create(1, func() {})
	j2, _ := s.Create(1, func() {})
	if _, err := s.Create(1, func() {}); err == nil {
		t.Fatal("Create succeeded with the store full of running jobs")
	}
	j1.Finish(nil)
	j3, err := s.Create(1, func() {})
	if err != nil {
		t.Fatalf("Create after a job finished: %v", err)
	}
	if _, ok := s.Get(j1.ID()); ok {
		t.Fatal("terminal job j1 was not evicted")
	}
	if _, ok := s.Get(j2.ID()); !ok {
		t.Fatal("running job j2 was evicted")
	}
	list := s.List()
	if len(list) != 2 || list[0].ID != j2.ID() || list[1].ID != j3.ID() {
		t.Fatalf("List() = %+v", list)
	}
	running, retained := s.Counts()
	if running != 2 || retained != 2 {
		t.Fatalf("Counts() = %d running, %d retained", running, retained)
	}
	s.CancelAll()
}

func TestPeerAndTiered(t *testing.T) {
	remote, err := explore.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hash := strings.TrimPrefix(r.URL.Path, "/v1/cache/")
		if !explore.ValidHash(hash) {
			http.Error(w, "bad hash", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			if b, ok := remote.GetRaw(hash); ok {
				w.Write(b) //nolint:errcheck // test server
				return
			}
			http.NotFound(w, r)
		case http.MethodPut:
			b, err := json.RawMessage(nil), error(nil)
			if b, err = readAll(r); err != nil || !explore.ValidEntryForHash(hash, b) {
				http.Error(w, "bad entry", http.StatusBadRequest)
				return
			}
			if err := remote.PutRaw(hash, b); err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.WriteHeader(http.StatusNoContent)
		}
	}))
	defer srv.Close()

	local, err := explore.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := &Tiered{Local: local, Peer: NewPeer(srv.URL)}

	p := explore.Point{Scheduler: "HEF", NumACs: 8, Frames: 5}.Normalized()
	m := explore.Metrics{TotalCycles: 123, StallCycles: 4, SWExecutions: 5, HWExecutions: 6}

	if _, ok := tiered.Get(p); ok {
		t.Fatal("empty tiers reported a hit")
	}
	if err := tiered.Put(p, m); err != nil {
		t.Fatal(err)
	}
	if got, ok := remote.Get(p); !ok || got != m {
		t.Fatalf("peer tier after Put: %+v ok=%v", got, ok)
	}

	// A second worker with an empty local tier must hit via the peer and
	// backfill its disk tier.
	local2, err := explore.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered2 := &Tiered{Local: local2, Peer: NewPeer(srv.URL)}
	if got, ok := tiered2.Get(p); !ok || got != m {
		t.Fatalf("peer-backed get: %+v ok=%v", got, ok)
	}
	if got, ok := local2.Get(p); !ok || got != m {
		t.Fatalf("local backfill after peer hit: %+v ok=%v", got, ok)
	}
	hits, misses, errs := tiered2.Peer.Stats()
	if hits != 1 || errs != 0 {
		t.Errorf("peer stats: hits=%d misses=%d errs=%d", hits, misses, errs)
	}

	// A dead peer degrades to local-only operation, never fails the store.
	srv.Close()
	if err := tiered.Put(p, m); err != nil {
		t.Fatalf("Put with dead peer: %v", err)
	}
	if got, ok := tiered.Get(p); !ok || got != m {
		t.Fatalf("Get with dead peer: %+v ok=%v", got, ok)
	}
}

func readAll(r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	_, err := buf.ReadFrom(r.Body)
	return buf.Bytes(), err
}
