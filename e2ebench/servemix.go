package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/isa"
	"rispp/internal/scenario"
	"rispp/internal/search"
	"rispp/internal/serve"
	"rispp/internal/sim"
	"rispp/internal/workload"
)

const (
	mixFrames     = 20  // every serve-mix request simulates 20 frames
	popularPoints = 32  // the Zipf-popular interactive set
	setupRepeats  = 2   // serve-mix set-ups before the first slice (plus one per spareEvery slices)
	spareEvery    = 4   // slices per spare node
	batchBudget   = 48  // evaluations per adaptive-search session
	batchSessions = 3   // adaptive-search sessions per slice
	batchCount    = 16  // points per /v1/suggest
	resimSimulate = 16  // interactive responses re-simulated after the window
	resimBatch    = 8   // batch records re-simulated after the window
	keptRecords   = 512 // batch records kept as the re-simulation pool
	minBeyondP99  = 10  // samples a run must leave beyond simulate_p99_ms
)

// mixSchedulers are the run-time systems the interactive tenant asks for.
var mixSchedulers = []string{"FSFR", "ASF", "SJF", "HEF", "Molen"}

// mixBlock is one shuffled block of interactive request classes: 54% from
// the popular set, 28% new configurations of workloads already requested,
// 18% new workloads — 1% fresh H.264 seeds (each retains megabytes of traces
// and trails for the rest of the run), the rest fresh branchy-modes and
// video-crypto seeds. The popular share sits off 50% so the median does not
// fall on the boundary between cache hits and simulations. Exact counts per
// block keep the class mix, and with it the retained heap, steady from seed
// to seed.
var mixBlock = func() []string {
	var b []string
	add := func(class string, n int) {
		for i := 0; i < n; i++ {
			b = append(b, class)
		}
	}
	add("popular", 54)
	add("config", 28)
	add("h264", 1)
	add("branchy-modes", 8)
	add("video-crypto", 9)
	return b
}()

// workRef names one workload at mixFrames: the H.264 generator when
// scenario is empty, a shipped scenario otherwise.
type workRef struct {
	scenario string
	seed     int64
}

func (w workRef) point(sched string, acs int, prefetch bool) explore.Point {
	return explore.Point{
		Scheduler: sched, NumACs: acs, Frames: mixFrames, Seed: w.seed,
		SeedForecasts: true, Prefetch: prefetch, Scenario: w.scenario,
	}.Normalized()
}

// arrival is one scheduled interactive request.
type arrival struct {
	Seq   int
	At    time.Duration // due time from the start of the window
	Class string
	Point explore.Point
}

// mixSchedule generates serve-mix's inputs from the seed alone: interactive
// arrival times and points, and the batch tenant's search-session seeds.
// Every prefix of each stream is a pure function of the seed.
type mixSchedule struct {
	rng      *rand.Rand
	sessions *rand.Rand
	rate     float64
	at       time.Duration
	popular  []explore.Point
	zipf     *rand.Zipf
	known    []workRef
	seen     map[string]bool
	block    []string
	fresh    int64
	batch    int64 // the last batch session's workload seed
	seq      int
	peeked   *arrival
}

func newMixSchedule(seed int64, rate float64) *mixSchedule {
	s := &mixSchedule{
		rng:      rand.New(rand.NewSource(seed)),
		sessions: rand.New(rand.NewSource(seed ^ 0x5eed)),
		rate:     rate,
		seen:     make(map[string]bool),
		known:    []workRef{{seed: seed}},
		fresh:    1_000_000 * (seed + 1),
		batch:    1_000_000*(seed+1) + 500_000,
	}
	for len(s.popular) < popularPoints {
		if p := s.newConfig(s.known[0]); p.Frames != 0 {
			s.popular = append(s.popular, p)
		}
	}
	s.zipf = rand.NewZipf(s.rng, 1.1, 1, popularPoints-1)
	return s
}

// newConfig draws a scheduler/AC/prefetch configuration of w not requested
// before (the zero Point if 64 draws found none).
func (s *mixSchedule) newConfig(w workRef) explore.Point {
	for i := 0; i < 64; i++ {
		p := w.point(mixSchedulers[s.rng.Intn(len(mixSchedulers))], 1+s.rng.Intn(24), s.rng.Intn(2) == 1)
		if k := p.Key(); !s.seen[k] {
			s.seen[k] = true
			return p
		}
	}
	return explore.Point{}
}

// next returns the next interactive arrival: one every 1/rate seconds,
// classes from shuffled mixBlocks.
func (s *mixSchedule) next() arrival {
	s.at += time.Duration(float64(time.Second) / s.rate)
	if len(s.block) == 0 {
		s.block = append(s.block, mixBlock...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	class := s.block[0]
	s.block = s.block[1:]
	s.seq++
	a := arrival{Seq: s.seq, At: s.at, Class: class}
	switch class {
	case "popular":
		a.Point = s.popular[s.zipf.Uint64()]
	case "config":
		for a.Point.Frames == 0 {
			a.Point = s.newConfig(s.known[s.rng.Intn(len(s.known))])
		}
	default:
		s.fresh++
		w := workRef{seed: s.fresh}
		if class != "h264" {
			w.scenario = class
		}
		s.known = append(s.known, w)
		a.Point = s.newConfig(w)
	}
	return a
}

// until returns the arrivals due before end, holding back the first later
// one for the next call.
func (s *mixSchedule) until(end time.Duration) []arrival {
	var out []arrival
	for {
		if s.peeked == nil {
			a := s.next()
			s.peeked = &a
		}
		if s.peeked.At >= end {
			return out
		}
		out = append(out, *s.peeked)
		s.peeked = nil
	}
}

// batchSession is one adaptive-search session of the batch tenant: its
// strategy seed and the fresh H.264 workload seed its space searches. A
// fresh workload per session keeps the tenant's points simulations that
// take slots beside the interactive tenant, rather than reads of the
// explore cache the sessions before it filled.
type batchSession struct {
	Strategy, Workload int64
}

// nextSession is the batch tenant's next session. Its workload seeds count
// up from half a million past the interactive tenant's first fresh seed.
func (s *mixSchedule) nextSession() batchSession {
	s.batch++
	return batchSession{Strategy: s.sessions.Int63(), Workload: s.batch}
}

// batchSpace is the batch tenant's search space: {HEF, SJF, ASF, Molen} ×
// ACs 4–20 × prefetch at mixFrames on the H.264 workload of seed.
func batchSpace(seed int64) explore.Spec {
	var acs []int
	for n := 4; n <= 20; n++ {
		acs = append(acs, n)
	}
	return explore.Spec{
		Schedulers: []string{"HEF", "SJF", "ASF", "Molen"},
		ACs:        acs,
		Frames:     []int{mixFrames},
		Seeds:      []int64{seed},
		Prefetch:   []bool{false, true},
	}
}

// mixServerConfig is the soak harness's two-tenant QoS policy: weighted
// fair queueing with interactive and batch queues, so a busy server queues
// rather than answering 429.
func mixServerConfig(nproc int) serve.Config {
	return serve.Config{
		Workers: nproc,
		QoS: serve.QoSConfig{
			Tenants: map[string]serve.TenantLimits{
				"gold":   {Weight: 3, MaxQueue: 256},
				"bronze": {Weight: 1, MaxQueue: 256},
			},
			InteractiveQueue: 64,
			BatchQueue:       1024,
		},
	}
}

// exchange is one HTTP request the serve-mix clients made.
type exchange struct {
	route   string
	point   explore.Point
	due     time.Time
	lag     time.Duration // send start − due time
	latency time.Duration // completion − due time
	status  int
	err     error
	body    []byte
}

// post sends one JSON request, as tenant unless that is empty, and reads
// the whole response.
func post(ctx context.Context, client *http.Client, url, tenant, reqID string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	req.Header.Set("X-Request-Id", reqID)
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// statusErr fails any exchange that did not end in a 200: transport errors,
// timeouts, sheds (429) and server errors alike.
func statusErr(x exchange) error {
	switch {
	case x.err != nil:
		return x.err
	case x.status != http.StatusOK:
		return fmt.Errorf("status %d: %.200s", x.status, x.body)
	}
	return nil
}

func simulateBody(p explore.Point) []byte {
	b, err := json.Marshal(serve.SimulateRequest{Point: p})
	if err != nil {
		panic(err) // plain struct; cannot fail
	}
	return b
}

// mixNode is one serve-mix server with the clients pointed at it.
type mixNode struct {
	*node
	interactive, batch *http.Client
	transports         []*http.Transport
	dir                string
}

func (m *mixNode) close() {
	m.node.close()
	for _, t := range m.transports {
		t.CloseIdleConnections()
	}
	os.RemoveAll(m.dir) //nolint:errcheck // scratch space; the run dir is removed at exit too
}

// startMix builds a server, its listener and cache dir, and the two
// clients: at most nproc connections, one of them the batch tenant's.
func (p *pass) startMix() (*mixNode, error) {
	dir, err := os.MkdirTemp(p.cfg.scratch, "mix-*")
	if err != nil {
		return nil, err
	}
	cache, err := explore.OpenCache(dir)
	if err != nil {
		return nil, err
	}
	srv := serve.New(mixServerConfig(p.cfg.nproc), rispp.Config{})
	srv.Logf = quiet
	srv.SetExploreCache(cache)
	n, err := startNode("serve", srv, spanHandler(srv.Handler(), p.tr, "serve"))
	if err != nil {
		return nil, err
	}
	conns := max(1, p.cfg.nproc-1)
	it := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	bt := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	return &mixNode{
		node:        n,
		interactive: &http.Client{Transport: it, Timeout: time.Minute},
		batch:       &http.Client{Transport: bt, Timeout: time.Minute},
		transports:  []*http.Transport{it, bt},
		dir:         dir,
	}, nil
}

// mixRun is the serve-mix workload: one server whose slots and Runner an
// open-loop interactive tenant and a closed-loop batch search tenant share.
// Its window is cut into one slice per round; the server, its caches and
// both tenants' streams carry on from slice to slice.
type mixRun struct {
	p      *pass
	sched  *mixSchedule
	m      *mixNode
	window time.Duration // slices measured so far
	sims   []exchange
	slices [][]float64 // latencies (ms) of each slice's successful requests
	batch  batchRun
	depths [2][]float64

	before, after string // metrics expositions around the slices
}

func (r *mixRun) setup(ctx context.Context) error {
	r.sched = newMixSchedule(r.p.cfg.seed, interactiveRate)
	for i := 0; i < setupRepeats; i++ {
		if r.m != nil {
			r.m.close()
		}
		var err error
		if r.m, err = r.warmNode(ctx); err != nil {
			return err
		}
	}
	r.before = r.m.srv.Metrics()
	return nil
}

// warmNode starts a node and warms its response LRU with the popular set,
// adding the time it took to the workload's set-up times.
func (r *mixRun) warmNode(ctx context.Context) (*mixNode, error) {
	p := r.p
	t0 := time.Now()
	m, err := p.startMix()
	if err != nil {
		return nil, err
	}
	n := len(p.setup[serveMix])
	for k, pt := range r.sched.popular {
		x := exchange{route: "/v1/simulate", point: pt}
		x.status, x.body, x.err = post(ctx, m.interactive, m.url+"/v1/simulate", "gold", fmt.Sprintf("warm-%d-%d", n, k), simulateBody(pt))
		p.ops.check("serve-mix warm-up "+pt.Key(), statusErr(x))
	}
	p.setup[serveMix] = append(p.setup[serveMix], time.Since(t0))
	return m, nil
}

// step runs one slice: the interactive arrivals due in it, open loop, and
// batchSessions search sessions, closed loop, from its start. A fixed
// amount of batch work per slice keeps the fresh workloads the sessions
// leave in the Runner, and with them retained_heap_mb, the same from run to
// run. After every spareEvery-th slice, a spare node is set up and
// discarded, so the set-up times sample the whole run rather than its first
// second.
func (r *mixRun) step(ctx context.Context, window time.Duration) error {
	p := r.p
	arrivals := r.sched.until(r.window + window)
	stopped := make(chan struct{})
	var sampled sync.WaitGroup
	if p.tr != nil {
		sampled.Add(1)
		go func() {
			defer sampled.Done()
			sampleQueueDepths(r.m.srv, stopped, &r.depths)
		}()
	}
	p.timed(serveMix, func() {
		start := time.Now()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.runBatch(ctx, r.m, r.sched, batchSessions, &r.batch)
		}()
		sims := p.runInteractive(ctx, r.m, arrivals, start.Add(-r.window))
		wg.Wait()
		var lat []float64
		for _, x := range sims {
			if statusErr(x) == nil {
				lat = append(lat, x.latency.Seconds()*1000)
			}
		}
		r.sims = append(r.sims, sims...)
		r.slices = append(r.slices, lat)
	})
	close(stopped)
	sampled.Wait()
	r.window += window
	r.after = r.m.srv.Metrics()
	if len(r.slices)%spareEvery != 0 {
		return ctx.Err()
	}
	spare, err := r.warmNode(ctx)
	if err != nil {
		return err
	}
	spare.close()
	return ctx.Err()
}

func (r *mixRun) close() {
	if r.m != nil {
		r.m.close()
		r.m = nil
	}
}

func (r *mixRun) finish(ctx context.Context) {
	p := r.p
	var lag []float64
	for _, x := range r.sims {
		p.ops.check("serve-mix simulate "+x.point.Key(), statusErr(x))
		lag = append(lag, x.lag.Seconds()*1000)
	}
	// The median latency is the median over the slices, like the other
	// timings of the run; the tail needs the whole run's samples to leave ten
	// beyond it. A session's rate is its points over the time from its first
	// suggestion to its last record, and the run reports the median session.
	var p50s, all []float64
	var detail []string
	for _, lat := range r.slices {
		p50 := percentile(lat, 0.50)
		p50s = append(p50s, p50.Value)
		detail = append(detail, p50.String())
		all = append(all, lat...)
	}
	p99 := percentile(all, 0.99)
	p.ops.check("serve-mix simulate_p99_ms has enough samples beyond it", enoughBeyond(p99))
	p.e2e["simulate_p50_ms"] = median(p50s)
	p.e2e["simulate_p99_ms"] = p99.Value
	p.notes["simulate_p50_ms"] = fmt.Sprintf("median over %d slices of %s", len(r.slices), strings.Join(detail, "; "))
	p.notes["simulate_p99_ms"] = fmt.Sprintf("over the run, %s; open loop at %g/s", p99, interactiveRate)
	p.e2e["batch_points_per_s"] = median(r.batch.rates)
	p.notes["batch_points_per_s"] = fmt.Sprintf("median of %d sessions of %d points", len(r.batch.rates), batchBudget)
	for _, x := range r.batch.exchanges {
		p.ops.check("serve-mix batch "+x.route, statusErr(x))
	}
	for _, err := range r.batch.errs {
		p.ops.check("serve-mix batch records", err)
	}
	p.checkRepeats(r.sims)
	p.resimulateMix(ctx, r.sims, r.batch.records)
	if p.tr != nil {
		p.mixLayers(r, lag)
	}
}

func enoughBeyond(q quantile) error {
	if q.Beyond < minBeyondP99 {
		return fmt.Errorf("%d samples beyond the percentile, want >= %d (n=%d)", q.Beyond, minBeyondP99, q.N)
	}
	return nil
}

// runInteractive sends arrivals open loop, each due at origin + its At, and
// times every request from that due time.
func (p *pass) runInteractive(ctx context.Context, m *mixNode, arrivals []arrival, origin time.Time) []exchange {
	out := make([]exchange, len(arrivals))
	var wg sync.WaitGroup
	for i, a := range arrivals {
		if ctx.Err() != nil {
			out = out[:i]
			break
		}
		due := origin.Add(a.At)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[i] = exchange{route: "/v1/simulate", point: a.Point, due: due}
		wg.Add(1)
		go func(x *exchange, id string) {
			defer wg.Done()
			x.lag = time.Since(x.due)
			sp := p.tr.begin("client /v1/simulate", id, 0)
			x.status, x.body, x.err = post(ctx, m.interactive, m.url+"/v1/simulate", "gold", id, simulateBody(x.point))
			x.latency = time.Since(x.due)
			sp.end(0)
		}(&out[i], fmt.Sprintf("sim-%d", a.Seq))
	}
	wg.Wait()
	return out
}

// batchRun is what the batch tenant got back in the window.
type batchRun struct {
	points, sessions, requests int
	workloads                  []int64   // each session's H.264 workload seed
	rates                      []float64 // each completed session's points per second
	exchanges                  []exchange
	records                    []explore.Record
	errs                       []error
}

// runBatch runs n adaptive-search sessions back to back, closed loop on one
// connection: suggest, evaluate through /v1/explore, feed the records back
// as observations, until the session's budget is spent.
func (p *pass) runBatch(ctx context.Context, m *mixNode, sched *mixSchedule, n int, b *batchRun) {
	for i := 0; i < n && ctx.Err() == nil; i++ {
		sess := sched.nextSession()
		space := batchSpace(sess.Workload)
		b.sessions++
		b.workloads = append(b.workloads, sess.Workload)
		start, points := time.Now(), b.points
		var observed []search.Eval
		for len(observed) < batchBudget {
			req := search.SuggestRequest{Strategy: "evolve", Seed: sess.Strategy, Count: min(batchCount, batchBudget-len(observed)), Spec: space, Observed: observed}
			body, err := json.Marshal(req)
			if err != nil {
				b.errs = append(b.errs, err)
				return
			}
			b.requests++
			id := fmt.Sprintf("batch-%d", b.requests)
			x := exchange{route: "/v1/suggest"}
			sp := p.tr.begin("client /v1/suggest", id, 0)
			x.status, x.body, x.err = post(ctx, m.batch, m.url+"/v1/suggest", "bronze", id, body)
			sp.end(0)
			var sug search.Suggestion
			if statusErr(x) != nil {
				b.exchanges = append(b.exchanges, x)
				return
			}
			err = json.Unmarshal(x.body, &sug)
			// What the benchmark keeps must not grow with the tenant's
			// throughput, or retained_heap_mb would measure the client.
			x.body = nil
			b.exchanges = append(b.exchanges, x)
			if err != nil {
				b.errs = append(b.errs, fmt.Errorf("suggest reply: %w", err))
				return
			}
			if len(sug.Points) == 0 {
				break
			}
			evals, x := p.explorePoints(ctx, m, id, sug.Points, b)
			b.exchanges = append(b.exchanges, x)
			if statusErr(x) != nil {
				return
			}
			observed = append(observed, evals...)
		}
		b.rates = append(b.rates, float64(b.points-points)/time.Since(start).Seconds())
	}
}

// explorePoints posts points to /v1/explore and checks that the stream
// answers each point, in order, without error.
func (p *pass) explorePoints(ctx context.Context, m *mixNode, id string, pts []explore.Point, b *batchRun) ([]search.Eval, exchange) {
	x := exchange{route: "/v1/explore"}
	body, err := json.Marshal(serve.ExploreRequest{Spec: explore.Spec{Points: pts}})
	if err != nil {
		x.err = err
		return nil, x
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, m.url+"/v1/explore", bytes.NewReader(body))
	if err != nil {
		x.err = err
		return nil, x
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Tenant", "bronze")
	req.Header.Set("X-Request-Id", id)
	sp := p.tr.begin("client /v1/explore", id, 0)
	defer sp.end(0)
	resp, err := m.batch.Do(req)
	if err != nil {
		x.err = err
		return nil, x
	}
	defer resp.Body.Close()
	x.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		x.body, _ = io.ReadAll(resp.Body)
		return nil, x
	}
	var evals []search.Eval
	rd := bufio.NewReader(resp.Body)
	for i := 0; ; i++ {
		line, err := rd.ReadBytes('\n')
		if len(line) > 0 {
			var rec explore.Record
			switch {
			case json.Unmarshal(line, &rec) != nil:
				b.errs = append(b.errs, fmt.Errorf("explore record %d does not decode", i))
			case i >= len(pts) || rec.Point.Key() != pts[i].Key():
				b.errs = append(b.errs, fmt.Errorf("explore record %d answers %s, want the posted point", i, rec.Point.Key()))
			case !rec.OK():
				b.errs = append(b.errs, fmt.Errorf("explore record %s: %s", rec.Point.Key(), rec.Err))
			default:
				b.points++
				if len(b.records) < keptRecords {
					b.records = append(b.records, rec)
				}
				evals = append(evals, search.Eval{Point: rec.Point, Cycles: rec.TotalCycles, StallCycles: rec.StallCycles, Area: rec.Area})
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			x.err = err
			return evals, x
		}
	}
	if len(evals) != len(pts) {
		b.errs = append(b.errs, fmt.Errorf("explore answered %d of %d points", len(evals), len(pts)))
	}
	return evals, x
}

// checkRepeats requires every repeated point to get byte-identical bodies.
func (p *pass) checkRepeats(sims []exchange) {
	first := make(map[string][]byte)
	for _, x := range sims {
		if statusErr(x) != nil {
			continue
		}
		k := x.point.Key()
		if b, ok := first[k]; ok {
			p.ops.check("serve-mix repeated "+k, sameBody(b, x.body))
		} else {
			first[k] = x.body
		}
	}
}

func sameBody(want, got []byte) error {
	if !bytes.Equal(want, got) {
		return fmt.Errorf("body differs from the first response: %.120s vs %.120s", want, got)
	}
	return nil
}

// resimulateMix re-simulates a seeded sample of distinct interactive points
// and batch records through a fresh Runner with delta-resimulation off, and
// compares total cycles, stall cycles and per-SI counts.
func (p *pass) resimulateMix(ctx context.Context, sims []exchange, recs []explore.Record) {
	rng := rand.New(rand.NewSource(p.cfg.seed + 1))
	rn := rispp.NewRunner(rispp.Config{DisableDelta: true})
	seen := make(map[string]bool)
	var distinct []exchange
	for _, x := range sims {
		if k := x.point.Key(); statusErr(x) == nil && !seen[k] {
			seen[k] = true
			distinct = append(distinct, x)
		}
	}
	for _, i := range rng.Perm(len(distinct))[:min(resimSimulate, len(distinct))] {
		x := distinct[i]
		var resp serve.SimulateResponse
		err := json.Unmarshal(x.body, &resp)
		if err == nil {
			res := rn.GetResult()
			if err = rn.RunPoint(ctx, x.point, sim.Options{}, res); err == nil {
				err = checkSimulateResponse(&resp, res)
			}
			rn.PutResult(res)
		}
		p.ops.check("serve-mix re-simulation of "+x.point.Key(), err)
	}
	run := rn.EngineRun()
	for _, i := range rng.Perm(len(recs))[:min(resimBatch, len(recs))] {
		m, err := run(ctx, recs[i].Point)
		if err == nil {
			err = sameMetrics(recs[i].Metrics, m)
		}
		p.ops.check("serve-mix batch re-simulation of "+recs[i].Point.Key(), err)
	}
}

// checkSimulateResponse compares a /v1/simulate body with a fresh result:
// total and stall cycles and every SI's execution counts.
func checkSimulateResponse(resp *serve.SimulateResponse, res *sim.Result) error {
	if resp.TotalCycles != res.TotalCycles || resp.StallCycles != res.StallCycles {
		return fmt.Errorf("cycles %d/%d stall, fresh run %d/%d", resp.TotalCycles, resp.StallCycles, res.TotalCycles, res.StallCycles)
	}
	executed := res.ExecutedSIs()
	if len(resp.SIs) != len(executed) {
		return fmt.Errorf("%d SIs reported, fresh run executed %d", len(resp.SIs), len(executed))
	}
	for i, si := range executed {
		got := resp.SIs[i]
		if got.SI != int(si) || got.Executions != res.ExecutionsOf(si) ||
			got.SWExecutions != res.SWExecutionsOf(si) || got.HWExecutions != res.HWExecutionsOf(si) {
			return fmt.Errorf("SI %d: %+v, fresh run %d execs (%d sw, %d hw)", si, got,
				res.ExecutionsOf(si), res.SWExecutionsOf(si), res.HWExecutionsOf(si))
		}
	}
	return nil
}

// sampleQueueDepths reads rispp_qos_queue_depth from the metrics exposition
// every 50 ms until stop closes.
func sampleQueueDepths(srv *serve.Server, stop <-chan struct{}, depths *[2][]float64) {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			text := srv.Metrics()
			depths[0] = append(depths[0], float64(scrapeCounter(text, `rispp_qos_queue_depth{class="interactive"}`)))
			depths[1] = append(depths[1], float64(scrapeCounter(text, `rispp_qos_queue_depth{class="batch"}`)))
		}
	}
}

// scrapeErrors sums rispp_requests_total over 5xx status codes.
func scrapeErrors(text string) int64 {
	var n int64
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "rispp_requests_total{") && strings.Contains(line, `code="5`) {
			n += scrapeCounter(line, "rispp_requests_total")
		}
	}
	return n
}

// mixLayers reduces the traced window to the serve, load, workload and
// search rows. Server counters are deltas over the window.
func (p *pass) mixLayers(r *mixRun, lag []float64) {
	spans := p.tr.all()
	delta := func(name string) float64 {
		return float64(scrapeCounter(r.after, name) - scrapeCounter(r.before, name))
	}
	ratio := func(hit, miss string) float64 {
		h, m := delta(hit), delta(miss)
		return h / max(h+m, 1)
	}
	var handler []float64
	for _, s := range named(spans, "serve /v1/simulate") {
		if strings.HasPrefix(s.Group, "sim-") {
			handler = append(handler, s.dur().Seconds()*1000)
		}
	}
	suggest := durations(named(spans, "serve /v1/suggest"))
	for i := range suggest {
		suggest[i] *= 1000
	}
	l := p.layer
	hp50, hp99, sp50 := percentile(handler, 0.5), percentile(handler, 0.99), percentile(suggest, 0.5)
	l["serve.simulate_handler_p50_ms"] = hp50.Value
	l["serve.simulate_handler_p99_ms"] = hp99.Value
	l["serve.lru_hit_ratio"] = ratio(`rispp_simulate_cache_total{outcome="hit"}`, `rispp_simulate_cache_total{outcome="miss"}`)
	l["serve.pool_hit_ratio"] = ratio(`rispp_runtime_pool_total{outcome="hit"}`, `rispp_runtime_pool_total{outcome="miss"}`)
	l["serve.queue_depth_interactive"] = mean(r.depths[0])
	l["serve.queue_depth_batch"] = mean(r.depths[1])
	l["serve.explore_busy_s"] = totalDur(named(spans, "serve /v1/explore")).Seconds()
	l["serve.explore_simulated"] = delta("rispp_explore_simulated_total")
	l["serve.explore_cache_hits"] = delta("rispp_explore_cache_hits_total")
	l["serve.shed"] = delta("rispp_tenant_shed_total")
	l["serve.errors"] = float64(scrapeErrors(r.after) - scrapeErrors(r.before))
	lp99 := percentile(lag, 0.99)
	l["load.send_lag_p99_ms"] = lp99.Value
	l["search.suggest_p50_ms"] = sp50.Value
	l["workload.lowering_s"] = lowering(r.sims, r.batch.workloads).Seconds()
	p.notes["serve.simulate_handler_p50_ms"] = hp50.String()
	p.notes["serve.simulate_handler_p99_ms"] = hp99.String()
	p.notes["load.send_lag_p99_ms"] = lp99.String()
	p.notes["search.suggest_p50_ms"] = sp50.String()
	p.notes["serve.queue_depth"] = fmt.Sprintf("means of %d samples", len(r.depths[0]))
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(max(len(xs), 1))
}

// lowering times trace generation plus workload.Compile once for every
// distinct workload the window requested.
func lowering(sims []exchange, batch []int64) time.Duration {
	seen := make(map[workRef]bool)
	var refs []workRef
	add := func(w workRef) {
		if !seen[w] {
			seen[w] = true
			refs = append(refs, w)
		}
	}
	for _, x := range sims {
		add(workRef{scenario: x.point.Scenario, seed: x.point.Seed})
	}
	for _, seed := range batch {
		add(workRef{seed: seed})
	}
	h264 := isa.H264()
	var total time.Duration
	for _, w := range refs {
		t0 := time.Now()
		var tr *workload.Trace
		is := h264
		if w.scenario == "" {
			tr = workload.H264(workload.H264Config{Frames: mixFrames, Seed: w.seed})
		} else if sc, ok := scenario.Find(w.scenario); ok {
			tr, is = sc.Trace(mixFrames, w.seed), sc.ISA()
		}
		if tr != nil {
			workload.Compile(tr, is) //nolint:errcheck // the served runs already compiled these
		}
		total += time.Since(t0)
	}
	return total
}
