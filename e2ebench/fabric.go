package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/fabric"
	"rispp/internal/serve"
)

// fabricWarm is how often each cold sweep is re-posted warm.
const fabricWarm = 8

// fabricSpec is six systems × even ACs 4–24 × workload seeds 1–2 at 40
// frames: 132 points. It is the same on every run seed: which worker owns
// which point, and so how unevenly the shards load the workers, follows
// from the points, and a fabric change is to be compared on one sharding.
func fabricSpec() explore.Spec {
	var acs []int
	for n := 4; n <= 24; n += 2 {
		acs = append(acs, n)
	}
	return explore.Spec{
		Schedulers:    gridSystems,
		ACs:           acs,
		Frames:        []int{40},
		Seeds:         []int64{1, 2},
		SeedForecasts: []bool{true},
	}
}

// node is one in-process serve.Server behind a real loopback listener.
type node struct {
	id   string
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func startNode(id string, srv *serve.Server, h http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{id: id, srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln) //nolint:errcheck // returns http.ErrServerClosed on close
	}()
	return n, nil
}

// close stops the listener and every connection, and waits for Serve to
// return.
func (n *node) close() {
	n.hs.Close() //nolint:errcheck // nothing to report: the node is discarded
	<-n.done
}

// exploreSimulated reads rispp_explore_simulated_total from the node's
// metrics exposition.
func (n *node) exploreSimulated() int64 {
	return scrapeCounter(n.srv.Metrics(), "rispp_explore_simulated_total")
}

// scrapeCounter returns the value of an unlabeled series (or the sum over a
// labeled one) in a Prometheus text exposition.
func scrapeCounter(text, name string) int64 {
	var total int64
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(rest)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += int64(v)
		}
	}
	return total
}

// fleet is a coordinator node plus nproc worker nodes, each worker with a
// fabric.Tiered local+peer store, wired like internal/load's fleet harness.
type fleet struct {
	coord      *fabric.Coordinator
	front      *node
	workers    []*node
	transports []*http.Transport
	dir        string
}

func quiet(string, ...any) {}

// newTransport is the coordinator's and peers' HTTP transport; traced, it
// records a span per request named by name.
func (p *pass) newTransport(f *fleet, name func(*http.Request) string, cur *sweepRef) http.RoundTripper {
	t := http.DefaultTransport.(*http.Transport).Clone()
	f.transports = append(f.transports, t)
	if p.tr == nil {
		return t
	}
	return &timedTransport{base: t, tr: p.tr, name: name, group: cur.get}
}

func (p *pass) startFleet(cur *sweepRef) (*fleet, error) {
	dir, err := os.MkdirTemp(p.cfg.scratch, "fabric-*")
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	coordCache, err := explore.OpenCache(filepath.Join(f.dir, "coordinator"))
	if err != nil {
		return nil, err
	}
	f.coord = fabric.NewCoordinator()
	f.coord.Logf = quiet
	f.coord.Client = &http.Client{Transport: p.newTransport(f, func(*http.Request) string { return "fabric.shard" }, cur)}
	cs := serve.New(serve.Config{}, rispp.Config{})
	cs.Logf = quiet
	cs.SetExploreCache(coordCache)
	cs.SetCoordinator(f.coord)
	if f.front, err = startNode("coordinator", cs, spanHandler(cs.Handler(), p.tr, "coordinator")); err != nil {
		return nil, err
	}
	peerName := func(r *http.Request) string {
		if r.Method == http.MethodPut {
			return "fabric.peer_put"
		}
		return "fabric.peer_get"
	}
	peerClient := &http.Client{Transport: p.newTransport(f, peerName, cur)}
	for i := 1; i <= p.cfg.nproc; i++ {
		local, err := explore.OpenCache(filepath.Join(f.dir, fmt.Sprintf("w%d", i)))
		if err != nil {
			f.close()
			return nil, err
		}
		peer := fabric.NewPeer(f.front.url)
		peer.Client = peerClient
		ws := serve.New(serve.Config{}, rispp.Config{})
		ws.Logf = quiet
		ws.SetExploreStore(&fabric.Tiered{Local: local, Peer: peer}, local)
		n, err := startNode(fmt.Sprintf("w%d", i), ws, spanHandler(ws.Handler(), p.tr, "worker"))
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, n)
		if err := f.coord.Register(n.id, n.url); err != nil {
			f.close()
			return nil, err
		}
	}
	return f, nil
}

func (f *fleet) close() {
	for _, n := range f.workers {
		n.close()
	}
	if f.front != nil {
		f.front.close()
	}
	for _, t := range f.transports {
		t.CloseIdleConnections()
	}
	os.RemoveAll(f.dir) //nolint:errcheck // scratch space; the run dir is removed at exit too
}

// simulated sums rispp_explore_simulated_total over every node.
func (f *fleet) simulated() int64 {
	total := f.front.exploreSimulated()
	for _, n := range f.workers {
		total += n.exploreSimulated()
	}
	return total
}

func (f *fleet) ids() []string {
	ids := make([]string, len(f.workers))
	for i, n := range f.workers {
		ids[i] = n.id
	}
	return ids
}

// postSweep posts a sweep to a node's /v1/explore and reads the merged
// stream to its last line.
func postSweep(ctx context.Context, client *http.Client, url string, body []byte, reqID string) ([]byte, error) {
	x := exchange{route: "/v1/explore"}
	x.status, x.body, x.err = post(ctx, client, url+"/v1/explore", "", reqID, body)
	return x.body, statusErr(x)
}

// fabricRun is the fabric-sweep workload: the sweep posted cold to a fresh
// fleet's coordinator, then re-posted warm, one fleet per repetition.
type fabricRun struct {
	p      *pass
	spec   explore.Spec
	points []explore.Point
	body   []byte
	ct     *http.Transport // the benchmark's client: one connection
	client *http.Client

	rep               int
	budget            time.Duration // share of the run not yet spent
	cold, warm        []float64
	first             []byte
	last              *fleet // kept alive for the retained-heap reading
	simCold, simWarm  int64
	retries, failures int64
	imbalance         float64
}

func (f *fabricRun) setup(context.Context) error {
	f.spec = fabricSpec()
	var err error
	if f.points, err = f.spec.Expand(); err != nil {
		return err
	}
	if f.body, err = json.Marshal(serve.ExploreRequest{Spec: f.spec}); err != nil {
		return err
	}
	f.ct = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	f.client = &http.Client{Transport: f.ct}
	return nil
}

// step spends the workload's share of the round on fleets. A fleet takes
// longer than a round's share, so what one overran is carried into the
// next rounds: the fleets spread over the run and together take about the
// workload's share of it.
func (f *fabricRun) step(ctx context.Context, window time.Duration) error {
	f.budget += window
	for f.budget > 0 {
		d, err := f.sweep(ctx)
		if err != nil {
			return err
		}
		f.budget -= d
	}
	return nil
}

// sweep sets up a fleet, posts the sweep cold and then warm, and returns
// the wall time of the posts.
func (f *fabricRun) sweep(ctx context.Context) (time.Duration, error) {
	const w = fabricSweep
	p := f.p
	rep := f.rep
	f.rep++
	t0 := time.Now()
	group := fmt.Sprintf("fabric-cold-%d", rep)
	cur := &sweepRef{group: group}
	fl, err := p.startFleet(cur)
	if err != nil {
		return 0, err
	}
	p.setup[w] = append(p.setup[w], time.Since(t0))
	if f.last != nil {
		f.last.close()
	}
	f.last = fl

	var stream []byte
	total := p.timed(w, func() {
		sp := p.tr.begin("client /v1/explore", group, 0)
		stream, err = postSweep(ctx, f.client, fl.front.url, f.body, group)
		sp.end(0)
	})
	f.cold = append(f.cold, total.Seconds())
	p.ops.check("fabric-sweep cold sweep", err)
	if f.first == nil {
		f.first = stream
	} else {
		p.ops.check("fabric-sweep cold stream matches the first", sameStream(f.first, stream))
	}
	afterCold := fl.simulated()
	f.simCold += afterCold

	runtime.GC() // the cold sweep's garbage is not the warm passes' to collect
	for k := 0; k < fabricWarm; k++ {
		group := fmt.Sprintf("fabric-warm-%d-%d", rep, k)
		cur.set(group, 0)
		d := p.timed(w, func() {
			sp := p.tr.begin("client /v1/explore", group, 0)
			stream, err = postSweep(ctx, f.client, fl.front.url, f.body, group)
			sp.end(0)
		})
		total += d
		f.warm = append(f.warm, d.Seconds())
		p.ops.check("fabric-sweep warm sweep", err)
		p.ops.check("fabric-sweep warm stream matches cold", sameStream(f.first, stream))
	}
	sim := fl.simulated() - afterCold
	f.simWarm += sim
	p.ops.check("fabric-sweep warm passes simulate nothing", zeroCount("points simulated on warm passes", sim))
	r, fails := fl.coord.Stats()
	f.retries += r
	f.failures += fails
	p.ops.check("fabric-sweep shard retries", zeroCount("shard retries", r))
	p.ops.check("fabric-sweep worker failures", zeroCount("worker failures", fails))
	if rep == 0 {
		f.imbalance = shardImbalance(f.points, fl.ids())
	}
	return total, ctx.Err()
}

func (f *fabricRun) close() {
	if f.last != nil {
		f.last.close()
		f.last = nil
	}
	if f.ct != nil {
		f.ct.CloseIdleConnections()
	}
}

func (f *fabricRun) finish(ctx context.Context) {
	p := f.p
	p.e2e["fabric_cold_s"] = median(f.cold)
	p.e2e["fabric_warm_ms"] = 1000 * median(f.warm)
	p.notes["fabric_cold_s"] = fmt.Sprintf("median of %d cold sweeps of %d points on %d workers", len(f.cold), len(f.points), p.cfg.nproc)
	p.notes["fabric_warm_ms"] = fmt.Sprintf("median of %d warm sweeps", len(f.warm))

	var ref bytes.Buffer
	res, err := rispp.Explorer(rispp.Config{}, p.cfg.nproc, nil).Execute(ctx, f.spec, &ref)
	p.ops.check("fabric-sweep single-process reference", sweepErr(res, err, 0))
	p.ops.check("fabric-sweep fleet stream matches single-process sweep", sameStream(ref.Bytes(), f.first))

	if p.tr == nil {
		return
	}
	c := fabricSpans(p.tr.all())
	n := float64(max(f.rep, 1))
	l := p.layer
	l["fabric.shard_max_s"] = c.shardMax.Seconds() / n
	l["fabric.shard_sum_s"] = c.shardSum.Seconds() / n
	l["fabric.merge_self_ms"] = 1000 * c.mergeSelf.Seconds() / n
	l["fabric.worker_busy_s"] = c.workerBusy.Seconds() / n
	l["fabric.peer_get_ms"] = 1000 * c.peerGet.Seconds() / n
	l["fabric.peer_gets"] = float64(c.peerGets) / n
	// Rendezvous ownership sends a warm point to the worker that simulated
	// it cold, so its local tier, not the peer, is expected to answer.
	p.notes["fabric.peer_gets"] = fmt.Sprintf("%.1f per fleet on warm re-posts, the rest cold-pass misses", float64(c.warmPeerGets)/n)
	l["fabric.peer_put_ms"] = 1000 * c.peerPut.Seconds() / n
	l["fabric.peer_puts"] = float64(c.peerPuts) / n
	l["fabric.shard_imbalance"] = f.imbalance
	l["fabric.shard_retries"] = float64(f.retries) / n
	l["fabric.worker_failures"] = float64(f.failures) / n
	l["fabric.simulated_cold"] = float64(f.simCold) / n
	l["fabric.simulated_warm"] = float64(f.simWarm) / float64(max(len(f.warm), 1))
	p.notes["fabric.rows"] = fmt.Sprintf("means per fleet over %d fleets; peer rows cover each cold sweep and its %d warm re-posts", f.rep, fabricWarm)
}

func zeroCount(what string, n int64) error {
	if n != 0 {
		return fmt.Errorf("%d %s, want 0", n, what)
	}
	return nil
}

// shardImbalance is max/mean points per worker under rendezvous ownership.
func shardImbalance(points []explore.Point, ids []string) float64 {
	per := make(map[string]int, len(ids))
	for _, pt := range points {
		per[fabric.Owner(pt.Hash64(), ids)]++
	}
	most := 0
	for _, n := range per {
		most = max(most, n)
	}
	return float64(most) * float64(len(ids)) / float64(len(points))
}

// fabricCounters are the traced fabric sweeps reduced to totals.
type fabricCounters struct {
	shardMax, shardSum, mergeSelf, workerBusy, peerGet, peerPut time.Duration
	peerGets, peerPuts, warmPeerGets                            int
}

// fabricSpans sums, over every cold sweep, the longest shard, all shards,
// the coordinator's self time (its /v1/explore span minus the union of
// shard spans) and the workers' /v1/explore time; peer traffic is summed
// over cold and warm sweeps.
func fabricSpans(spans []Span) fabricCounters {
	var c fabricCounters
	workers := named(spans, "worker /v1/explore")
	for _, cl := range named(spans, "client /v1/explore") {
		if !strings.HasPrefix(cl.Group, "fabric-") {
			continue // serve-mix's batch tenant posts /v1/explore too
		}
		g := inGroup(spans, cl.Group)
		for _, s := range named(g, "fabric.peer_get") {
			c.peerGet += s.dur()
			c.peerGets++
			if strings.HasPrefix(cl.Group, "fabric-warm-") {
				c.warmPeerGets++
			}
		}
		for _, s := range named(g, "fabric.peer_put") {
			c.peerPut += s.dur()
			c.peerPuts++
		}
		if !strings.HasPrefix(cl.Group, "fabric-cold-") {
			continue
		}
		shards := named(g, "fabric.shard")
		var longest time.Duration
		for _, s := range shards {
			longest = max(longest, s.dur())
		}
		c.shardMax += longest
		c.shardSum += totalDur(shards)
		for _, co := range named(g, "coordinator /v1/explore") {
			c.mergeSelf += selfTime(co, shards)
		}
		for _, s := range workers {
			if s.Start >= cl.Start && s.End <= cl.End {
				c.workerBusy += s.dur()
			}
		}
	}
	return c
}
