package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"
)

var logName = regexp.MustCompile(`^log-\d{6}\.jsonl$`)

// cachePoints returns n distinct points, and cacheMetrics distinct metrics
// for each, so a record read under the wrong point cannot pass for a hit.
func cachePoints(n int) []Point {
	ps := make([]Point, n)
	for i := range ps {
		ps[i] = Point{Scheduler: "HEF", NumACs: i + 1, Frames: 3}.Normalized()
	}
	return ps
}

func cacheMetrics(p Point) Metrics {
	return Metrics{TotalCycles: int64(p.NumACs) * 1001, StallCycles: int64(p.NumACs),
		SWExecutions: 5, HWExecutions: 6}
}

// writeLog fills a fresh cache directory through one Cache and returns the
// bytes of its log.
func writeLog(t *testing.T, ps []Point) []byte {
	t.Helper()
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ps {
		if err := c.Put(p, cacheMetrics(p)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := os.ReadFile(filepath.Join(dir, "log-000001.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// openLog opens a Cache on a fresh directory holding log-000001.jsonl = b.
func openLog(t *testing.T, dir string, b []byte) *Cache {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "log-000001.jsonl"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// expectHit fails unless c serves p with its own metrics.
func expectHit(t *testing.T, c *Cache, p Point, what string) {
	t.Helper()
	if m, ok := c.Get(p); !ok || m != cacheMetrics(p) {
		t.Fatalf("%s: %s read %+v ok=%v, want %+v", what, p.Key(), m, ok, cacheMetrics(p))
	}
}

// TestCacheTornLastRecord cuts the log inside its last record at every
// byte offset, as a crash mid-append leaves it: the earlier records still
// hit, the torn one misses, and a Put after reopening lands in a new log
// and hits.
func TestCacheTornLastRecord(t *testing.T) {
	ps := cachePoints(3)
	full := writeLog(t, ps)
	last := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	base := t.TempDir()
	for cut := last; cut < len(full); cut++ {
		what := fmt.Sprintf("cut at %d of %d", cut, len(full))
		dir := filepath.Join(base, strconv.Itoa(cut))
		c := openLog(t, dir, full[:cut])
		expectHit(t, c, ps[0], what)
		expectHit(t, c, ps[1], what)
		if m, ok := c.Get(ps[2]); ok {
			t.Fatalf("%s: torn record read as %+v", what, m)
		}
		if err := c.Put(ps[2], cacheMetrics(ps[2])); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		expectHit(t, c, ps[2], what)
		if _, err := os.Stat(filepath.Join(dir, "log-000002.jsonl")); err != nil {
			t.Fatalf("%s: the Put after reopening did not start a new log: %v", what, err)
		}
		fresh, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range ps {
			expectHit(t, fresh, p, what+", reopened")
		}
	}
}

// TestCacheFlippedByte flips each bit of every byte of the middle record:
// that record always misses and no point ever reads another's metrics. The
// record before it always hits, and the one after it too unless the flip
// hit the newline that ends the middle record (the two lines then merge).
func TestCacheFlippedByte(t *testing.T) {
	ps := cachePoints(3)
	full := writeLog(t, ps)
	start := bytes.IndexByte(full, '\n') + 1
	end := start + bytes.IndexByte(full[start:], '\n') + 1
	dir := t.TempDir()
	b := make([]byte, len(full))
	for i := start; i < end; i++ {
		for bit := 0; bit < 8; bit++ {
			what := fmt.Sprintf("byte %d bit %d", i, bit)
			copy(b, full)
			b[i] ^= 1 << bit
			c := openLog(t, dir, b)
			expectHit(t, c, ps[0], what)
			if m, ok := c.Get(ps[1]); ok {
				t.Fatalf("%s: flipped record read as %+v", what, m)
			}
			if i < end-1 {
				expectHit(t, c, ps[2], what)
			} else if m, ok := c.Get(ps[2]); ok && m != cacheMetrics(ps[2]) {
				t.Fatalf("%s: %s read as %+v", what, ps[2].Key(), m)
			}
		}
	}
}

// TestCacheMislabeledRecord hand-writes a well-formed record (its CRC
// matches) whose content address is not the hash of the key it carries:
// Get misses under either point, and the body GetRaw serves a cache peer
// fails the peer's DecodeEntry.
func TestCacheMislabeledRecord(t *testing.T) {
	ps := cachePoints(2)
	p, q := ps[0], ps[1]
	entry := EncodeEntry(q, cacheMetrics(q))
	addr := p.Hash()
	sum := crcDigits([]byte(addr), entry)
	line := fmt.Sprintf("%s %s %s", addr, sum[:], entry)
	c := openLog(t, t.TempDir(), []byte(line))
	if m, ok := c.Get(p); ok {
		t.Fatalf("mislabeled record read as %+v", m)
	}
	if m, ok := c.Get(q); ok {
		t.Fatalf("record indexed under its key's address: %+v", m)
	}
	b, ok := c.GetRaw(addr)
	if !ok || !bytes.Equal(b, entry) {
		t.Fatalf("GetRaw = %q, %v; want the stored entry", b, ok)
	}
	if m, ok := DecodeEntry(p, b); ok {
		t.Fatalf("a peer decodes the mislabeled entry as %+v", m)
	}
}

// TestCacheInstancesSeeEachOther: two instances on one directory see each
// other's Puts on their next miss, whichever of them built its index first.
func TestCacheInstancesSeeEachOther(t *testing.T) {
	dir := t.TempDir()
	c1, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	ps := cachePoints(4)
	if _, ok := c1.Get(ps[0]); ok {
		t.Fatal("hit in an empty cache")
	}
	if err := c2.Put(ps[0], cacheMetrics(ps[0])); err != nil {
		t.Fatal(err)
	}
	expectHit(t, c1, ps[0], "c1 after c2's first Put")
	if err := c1.Put(ps[1], cacheMetrics(ps[1])); err != nil {
		t.Fatal(err)
	}
	expectHit(t, c2, ps[1], "c2 after c1's first Put")
	if _, ok := c2.Get(ps[2]); ok {
		t.Fatal("hit before the Put")
	}
	if err := c1.Put(ps[2], cacheMetrics(ps[2])); err != nil {
		t.Fatal(err)
	}
	expectHit(t, c2, ps[2], "c2 after c1 appended")
	if err := c2.Put(ps[3], cacheMetrics(ps[3])); err != nil {
		t.Fatal(err)
	}
	expectHit(t, c1, ps[3], "c1 after c2 appended")
	if n := c1.Len(); n != 4 {
		t.Errorf("Len = %d, want 4", n)
	}
}

// TestCacheFailedAppendStartsFreshLog: an append that fails mid-sweep
// surfaces as the record's CacheWarn, and the next Put starts a fresh log,
// so only the failed point re-simulates on resume.
func TestCacheFailedAppendStartsFreshLog(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	run := func(ctx context.Context, p Point) (Metrics, error) {
		if calls.Add(1) == 5 { // the fifth point's append fails
			cache.mu.Lock()
			if err := cache.log.Close(); err != nil {
				t.Error(err)
			}
			cache.mu.Unlock()
		}
		return fakeRun(nil)(ctx, p)
	}
	res, err := (&Engine{Run: run, Cache: cache, Workers: 1}).Execute(context.Background(), testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s := res.Summary; s.Failed != 0 || s.Simulated != 12 || s.CacheWriteFailures != 1 {
		t.Fatalf("summary %+v, want 12 simulated and 1 cache write failure", s)
	}
	if res.Records[4].CacheWarn == "" {
		t.Fatal("the failed append carries no CacheWarn")
	}
	for _, name := range []string{"log-000001.jsonl", "log-000002.jsonl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	fresh, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	res, err = (&Engine{Run: fakeRun(&calls), Cache: fresh}).Execute(context.Background(), testSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.CacheHits != 11 || calls.Load() != 1 {
		t.Fatalf("resume: %+v, %d simulated; want 11 hits and the failed point re-simulated", res.Summary, calls.Load())
	}
}

// TestCacheMissCostIgnoresOtherFiles pins the refresh a miss makes: it
// stats each log and probes the next free number, so its cost grows with
// the number of logs and not with the directory's other entries. Listing
// the directory allocates per entry; a miss in a directory that also holds
// 2,000 per-point files of the old layout must allocate as much as without
// them. The old files are not read either.
func TestCacheMissCostIgnoresOtherFiles(t *testing.T) {
	missAllocs := func(dir string) float64 {
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		q := Point{Scheduler: "Molen", NumACs: 99, Frames: 3}.Normalized()
		c.Get(q) // builds the index
		return testing.AllocsPerRun(20, func() { c.Get(q) })
	}
	dir := t.TempDir()
	var perLogs []float64
	for _, p := range cachePoints(4) {
		c, err := OpenCache(dir) // one log per writing instance
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Put(p, cacheMetrics(p)); err != nil {
			t.Fatal(err)
		}
		perLogs = append(perLogs, missAllocs(dir))
	}
	if per := (perLogs[3] - perLogs[0]) / 3; per > 4 {
		t.Errorf("a miss allocates %v with one log and %v with four: more than 4 per log", perLogs[0], perLogs[3])
	}
	var old Point
	for i := 0; i < 2000; i++ {
		old = Point{Scheduler: "ASF", NumACs: i, Frames: 3}.Normalized()
		if err := os.WriteFile(filepath.Join(dir, old.Hash()+".json"), EncodeEntry(old, Metrics{TotalCycles: 1}), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly as much without the race detector, which drops sync.Pool
	// items at random; a listing would add 2,000 or more.
	if got, want := missAllocs(dir), perLogs[3]; got > want+8 {
		t.Errorf("a miss allocates %v with 2,000 other files in the directory, %v without", got, want)
	}
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := c.Get(old); ok {
		t.Errorf("an old per-point file was read: %+v", m)
	}
	if n := c.Len(); n != 4 {
		t.Errorf("Len = %d, want the 4 logged entries", n)
	}
}

// TestColdSweepLeavesOneLog: a cold 240-point sweep over two workers
// appends to one log and creates no other file.
func TestColdSweepLeavesOneLog(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	res, err := (&Engine{Run: noopRun, Cache: cache, Workers: 2}).Execute(context.Background(), roundTripSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Simulated != 240 {
		t.Fatalf("summary %+v, want 240 simulated", res.Summary)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !logName.MatchString(entries[0].Name()) {
		t.Fatalf("the sweep left %d files, want one log", len(entries))
	}
}

// TestPutRawKeepsOneLinePerRecord: a peer body spread over several lines
// is stored as one line, so it stays one record.
func TestPutRawKeepsOneLinePerRecord(t *testing.T) {
	p := cachePoints(1)[0]
	body, err := json.MarshalIndent(cacheEntry{Key: p.Key(), Metrics: cacheMetrics(p)}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PutRaw(p.Hash(), body); err != nil {
		t.Fatal(err)
	}
	fresh, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	expectHit(t, fresh, p, "multi-line peer body")
	if b, _ := fresh.GetRaw(p.Hash()); !bytes.Equal(b, EncodeEntry(p, cacheMetrics(p))) {
		t.Errorf("stored %q, want the compact entry", b)
	}
}
