package fabric

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rispp/internal/explore"
)

// ErrNoWorkers is returned by Sweep when every worker of the fleet is dead
// while points remain unassigned. The serving layer uses it to fall back to
// local execution.
var ErrNoWorkers = errors.New("fabric: no live workers")

// Worker is a registry snapshot entry: one risppserve backend of the fleet.
type Worker struct {
	// ID is the rendezvous-hash identity. Shard assignment depends on it,
	// so a worker that re-registers under the same ID reclaims exactly its
	// old hash range.
	ID string `json:"id"`
	// URL is the base URL of the worker's HTTP API.
	URL string `json:"url"`
	// Alive reports whether the coordinator currently dispatches to the
	// worker. A failed or stalled shard marks its worker dead; re-registering
	// revives it.
	Alive bool `json:"alive"`
	// LastErr is the failure that marked the worker dead, if any.
	LastErr string `json:"last_err,omitempty"`
}

// Coordinator shards sweeps across a registry of worker backends. All
// methods are safe for concurrent use; one Coordinator serves any number of
// concurrent sweeps.
type Coordinator struct {
	// Client performs the worker HTTP requests; http.DefaultClient if nil.
	Client *http.Client
	// ShardTimeout is the per-shard inactivity watchdog: a worker that
	// streams no line for this long is declared dead and its unfinished
	// points are re-hashed. 30s if zero.
	ShardTimeout time.Duration
	// Logf, when non-nil, receives coordinator events (worker deaths,
	// retry rounds).
	Logf func(format string, args ...any)

	mu      sync.Mutex
	workers map[string]*Worker

	retries  atomic.Int64 // points re-dispatched after a shard failure
	failures atomic.Int64 // workers declared dead
}

// NewCoordinator returns an empty-fleet coordinator.
func NewCoordinator() *Coordinator {
	return &Coordinator{workers: make(map[string]*Worker)}
}

// Register adds a worker to the fleet, or revives it if it is already known
// (same ID); the URL is updated either way.
func (c *Coordinator) Register(id, url string) error {
	if id == "" || url == "" {
		return errors.New("fabric: register: empty worker id or url")
	}
	url = strings.TrimSuffix(url, "/")
	c.mu.Lock()
	defer c.mu.Unlock()
	c.workers[id] = &Worker{ID: id, URL: url, Alive: true}
	return nil
}

// Remove deletes a worker from the fleet. Running sweeps finish its
// in-flight shard; future rounds no longer assign to it.
func (c *Coordinator) Remove(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.workers, id)
}

// Workers returns a registry snapshot sorted by ID.
func (c *Coordinator) Workers() []Worker {
	c.mu.Lock()
	out := make([]Worker, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, *w)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LiveWorkers counts the workers currently eligible for dispatch.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, w := range c.workers {
		if w.Alive {
			n++
		}
	}
	return n
}

// Stats reports lifetime counters: points re-dispatched after shard
// failures, and workers declared dead.
func (c *Coordinator) Stats() (shardRetries, workerFailures int64) {
	return c.retries.Load(), c.failures.Load()
}

func (c *Coordinator) live() (ids []string, urls map[string]string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	urls = make(map[string]string)
	for id, w := range c.workers {
		if w.Alive {
			ids = append(ids, id)
			urls[id] = w.URL
		}
	}
	sort.Strings(ids)
	return ids, urls
}

func (c *Coordinator) markDead(id, reason string) {
	c.failures.Add(1)
	c.mu.Lock()
	if w, ok := c.workers[id]; ok && w.Alive {
		w.Alive = false
		w.LastErr = reason
	}
	c.mu.Unlock()
	c.logf("fabric: worker %s marked dead: %s", id, reason)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// SweepOptions configures one Sweep call.
type SweepOptions struct {
	// Emit receives every record line (including its trailing newline) in
	// canonical spec order. A non-nil error aborts the sweep. Required.
	Emit func(line []byte) error
	// Progress, when non-nil, is invoked as shards advance: once per
	// dispatch with the shard size (done == 0 and assigned > 0), then once
	// per completed line (assigned == 0 and done == 1). Counts accumulate
	// per worker across retry rounds.
	Progress func(workerID string, assigned, done int)
}

// sweepState is the reassembly buffer of one sweep: completed lines are
// held until they are contiguous from the front, then emitted — the same
// contiguous-flush discipline as explore.Engine, so the merged stream is in
// canonical order no matter how shards interleave.
type sweepState struct {
	mu      sync.Mutex
	lines   [][]byte
	done    []bool
	next    int
	emit    func([]byte) error
	emitErr error
	abort   context.CancelFunc
}

func (st *sweepState) finish(i int, line []byte) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lines[i] = line
	st.done[i] = true
	for st.next < len(st.done) && st.done[st.next] {
		if st.emitErr == nil {
			if err := st.emit(st.lines[st.next]); err != nil {
				st.emitErr = fmt.Errorf("fabric: emit: %w", err)
				st.abort()
			}
		}
		st.lines[st.next] = nil // emitted; free the buffer
		st.next++
	}
}

// Sweep runs the points across the live fleet and emits the merged record
// stream in canonical order. Points must already be expanded and normalized
// (Spec.Expand). Failed or stalled workers are marked dead and their
// unfinished points re-hashed across the survivors; Sweep fails only when
// the fleet is exhausted (ErrNoWorkers), the context ends (the emitted
// prefix then matches a truncated single-process stream), or Emit errors.
func (c *Coordinator) Sweep(ctx context.Context, points []explore.Point, opt SweepOptions) error {
	if opt.Emit == nil {
		return errors.New("fabric: SweepOptions.Emit is required")
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	st := &sweepState{
		lines: make([][]byte, len(points)),
		done:  make([]bool, len(points)),
		emit:  opt.Emit,
		abort: cancel,
	}

	pending := make([]int, len(points))
	for i := range points {
		pending[i] = i
	}
	for len(pending) > 0 {
		if err := ctx.Err(); err != nil {
			if st.emitErr != nil {
				return st.emitErr
			}
			return err
		}
		ids, urls := c.live()
		if len(ids) == 0 {
			return fmt.Errorf("%w (%d points unfinished)", ErrNoWorkers, len(pending))
		}
		shards := make(map[string][]int)
		for _, i := range pending {
			w := Owner(points[i].Hash64(), ids)
			shards[w] = append(shards[w], i)
		}
		var (
			wg      sync.WaitGroup
			retryMu sync.Mutex
			retry   []int
		)
		for id, idxs := range shards {
			if opt.Progress != nil {
				opt.Progress(id, len(idxs), 0)
			}
			wg.Add(1)
			go func(id, url string, idxs []int) {
				defer wg.Done()
				left := c.runShard(ctx, id, url, points, idxs, st, opt.Progress)
				if len(left) > 0 {
					retryMu.Lock()
					retry = append(retry, left...)
					retryMu.Unlock()
				}
			}(id, urls[id], idxs)
		}
		wg.Wait()
		if st.emitErr != nil {
			return st.emitErr
		}
		// A cancel that lands mid-round returns every shard unfinished
		// without marking a worker dead, which the stall check below would
		// misreport; the caller's cancel comes first.
		if err := ctx.Err(); err != nil {
			return err
		}
		if len(retry) > 0 {
			// A round that neither completed a point nor lost a worker would
			// re-dispatch the identical shards forever; bail out instead.
			if len(retry) == len(pending) && c.LiveWorkers() == len(ids) {
				return fmt.Errorf("fabric: sweep stalled: %d points retried with no progress", len(retry))
			}
			c.retries.Add(int64(len(retry)))
			sort.Ints(retry)
			c.logf("fabric: re-dispatching %d points after shard failure", len(retry))
		}
		pending = retry
	}
	if st.emitErr != nil {
		return st.emitErr
	}
	return ctx.Err()
}

// recordProbe is the minimal parse of a worker record line: enough to
// verify which point it answers and whether the worker skipped it.
type recordProbe struct {
	Point explore.Point `json:"point"`
	Err   string        `json:"err"`
}

// runShard posts the shard's points to one worker, verifies and finishes
// each streamed line, and returns the indexes that still need a home:
// points the worker skipped, plus everything unread when the stream broke.
// Any protocol failure (bad status, truncation, out-of-order records,
// inactivity past ShardTimeout) marks the worker dead.
func (c *Coordinator) runShard(ctx context.Context, id, url string, points []explore.Point, idxs []int, st *sweepState, progress func(string, int, int)) []int {
	pts := make([]explore.Point, len(idxs))
	for k, i := range idxs {
		pts[k] = points[i]
	}
	req := struct {
		Points    []explore.Point `json:"points"`
		TimeoutMS int64           `json:"timeout_ms,omitempty"`
	}{Points: pts}
	if d, ok := ctx.Deadline(); ok {
		if ms := time.Until(d).Milliseconds(); ms > 0 {
			req.TimeoutMS = ms
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("fabric: marshal shard request: %v", err)) // plain scalars; cannot fail
	}

	shardTimeout := c.ShardTimeout
	if shardTimeout <= 0 {
		shardTimeout = 30 * time.Second
	}
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	watchdog := time.AfterFunc(shardTimeout, cancel)
	defer watchdog.Stop()

	fail := func(k int, reason string) []int {
		// Only the worker is at fault when the parent sweep is still live;
		// a canceled sweep tears down shard requests by design.
		if ctx.Err() == nil {
			c.markDead(id, reason)
		}
		return idxs[k:]
	}

	client := c.Client
	if client == nil {
		client = http.DefaultClient
	}
	hreq, err := http.NewRequestWithContext(sctx, http.MethodPost, url+"/v1/explore", bytes.NewReader(body))
	if err != nil {
		return fail(0, fmt.Sprintf("build request: %v", err))
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		return fail(0, fmt.Sprintf("post shard: %v", err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fail(0, fmt.Sprintf("shard rejected: %s: %s", resp.Status, bytes.TrimSpace(msg)))
	}

	// The worker streams exactly one line per posted point, in posted
	// order, so line k answers pts[k]; the stored key check below turns any
	// violation of that contract into a dead worker instead of a corrupt
	// merge.
	var requeue []int
	rd := bufio.NewReader(resp.Body)
	for k, i := range idxs {
		line, err := readLine(rd)
		if err != nil {
			requeue = append(requeue, fail(k, fmt.Sprintf("stream ended after %d/%d records: %v", k, len(idxs), err))...)
			return requeue
		}
		watchdog.Reset(shardTimeout)
		var probe recordProbe
		if err := json.Unmarshal(line, &probe); err != nil || probe.Point.Key() != pts[k].Key() {
			requeue = append(requeue, fail(k, fmt.Sprintf("record %d does not answer its point", k))...)
			return requeue
		}
		if strings.HasPrefix(probe.Err, "skipped: ") {
			// The worker gave up on the point (its request deadline hit)
			// without measuring it; that is a scheduling outcome of this
			// shard, not a property of the point — re-hash it.
			requeue = append(requeue, i)
			continue
		}
		st.finish(i, line)
		if progress != nil {
			progress(id, 0, 1)
		}
	}
	return requeue
}

// readLine reads one newline-terminated line of unbounded length,
// returning it with the newline included. A final unterminated fragment is
// a truncated stream, not a record.
func readLine(rd *bufio.Reader) ([]byte, error) {
	line, err := rd.ReadBytes('\n')
	if err == nil {
		return line, nil
	}
	if err == io.EOF && len(line) > 0 {
		return nil, io.ErrUnexpectedEOF
	}
	return nil, err
}
