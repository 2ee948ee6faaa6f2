// Command e2ebench is the repository's end-to-end benchmark. One process
// runs the three workloads — paper-grid, serve-mix and fabric-sweep — with
// the system under test in-process, checks every output, and prints each
// end-to-end metric with its unit followed by one JSON result line.
//
//	bash e2ebench/run.sh --workload paper-grid --seed 0 --seconds 24 --trace 0
//
// Every run executes all three workloads, so every metric is measured on
// every run, in sixteen interleaved rounds so that each metric samples the
// host across the whole run. Over the rounds serve-mix's interactive tenant
// gets 35% of --seconds and fabric-sweep 25%; paper-grid runs restart sweeps
// every round and a cold sweep every sixth round, about another 40% on two
// cores. --workload names the subject whose CPU profile and allocation
// figures the traced pass reports.
// With --trace 1 the workloads run once untraced and once traced; the
// traced pass records spans around the calls the benchmark makes into each
// module, reads the counters those modules export, profiles the subject,
// and prints the per-layer table plus the tracing overhead. All timings are
// host time; simulated cycles are outputs, checked and never timed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"
)

const (
	paperGrid   = "paper-grid"
	serveMix    = "serve-mix"
	fabricSweep = "fabric-sweep"

	// interactiveRate is serve-mix's open-loop /v1/simulate rate, recorded
	// with the workload in BENCHMARK.json.
	interactiveRate = 330.0

	// runDeadline bounds one invocation, both passes included.
	runDeadline = 170 * time.Second
)

// workloads is also the order every run executes them in.
var workloads = []string{paperGrid, serveMix, fabricSweep}

// config is one invocation's settings.
type config struct {
	subject string
	seed    int64
	seconds time.Duration
	nproc   int
	scratch string // directory for cache dirs, profiles and spans
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", paperGrid, "subject workload: paper-grid, serve-mix or fabric-sweep")
	seed := fs.Int64("seed", 0, "workload seed (0 = the paper's H.264 sequence)")
	seconds := fs.Int("seconds", 24, "measuring time of the whole run, in seconds")
	trace := fs.Int("trace", 0, "1 = add a traced pass and print the per-layer table")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !slices.Contains(workloads, *workload) || *seconds <= 0 || (*trace != 0 && *trace != 1) || *seed < 0 {
		fmt.Fprintf(stderr, "e2ebench: want --workload %s, --seed >= 0, --seconds > 0, --trace 0|1\n", strings.Join(workloads, "|"))
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	cfg := config{
		subject: *workload,
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		nproc:   nproc,
		scratch: ".bench_build",
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(cfg.scratch, "run-*")
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir) //nolint:errcheck // best-effort cleanup of scratch state
	cfg.scratch = dir

	env := environment(cfg, *trace == 1)
	envLine, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envLine)

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	res, err := benchmark(ctx, cfg, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// benchmark runs the untraced pass, and with traced the traced pass after
// it, printing the tables as it goes.
func benchmark(ctx context.Context, cfg config, traced bool, out io.Writer) (*result, error) {
	plain, err := runPass(ctx, cfg, nil)
	if err != nil {
		return nil, err
	}
	ops := plain.ops
	printEndToEnd(out, plain)
	res := &result{Metrics: make(map[string]metricValue)}
	if !traced {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{plain.e2e[m.name], m.unit}
		}
	} else {
		tp, err := runPass(ctx, cfg, newTracer())
		if err != nil {
			return nil, err
		}
		ops.add(tp.ops)
		for _, m := range timings {
			tp.layer["overhead."+m.name] = overhead(m, plain.e2e[m.name], tp.e2e[m.name])
		}
		tp.notes["overhead.rows"] = "the traced pass against the untraced pass before it; one pair, so the host's drift between the passes shows too"
		for _, m := range interactive { // end-to-end figures come from the untraced pass
			tp.layer[m.name] = plain.e2e[m.name]
		}
		if err := writeSpans(cfg, tp.tr); err != nil {
			return nil, err
		}
		printLayers(out, cfg, tp)
		for _, m := range perLayer {
			v, ok := tp.layer[m.name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	fmt.Fprintf(out, "operations: %d attempted, %d failed\n", ops.attempted, ops.failed)
	for _, f := range ops.failures {
		fmt.Fprintf(out, "FAILED %s\n", f)
	}
	res.Attempted, res.Failed = ops.attempted, ops.failed
	res.Correct = ops.failed == 0
	return res, nil
}

// overhead is how much tracing worsened an end-to-end metric, in percent.
func overhead(m metricDef, untraced, traced float64) float64 {
	if m.better == "higher" {
		return 100 * (untraced/traced - 1)
	}
	return 100 * (traced/untraced - 1)
}

// pass is one execution of all three workloads, untraced (tr == nil) or
// traced.
type pass struct {
	cfg   config
	tr    *tracer
	ops   tally
	e2e   map[string]float64
	layer map[string]float64
	notes map[string]string // sample counts behind percentile metrics

	setup    map[string][]time.Duration
	mem      map[string]memDelta
	profiles []string // the subject's CPU profiles (traced pass only)
	profile  *os.File // the one being written
}

// memDelta is the allocation and GC activity over a workload's timed phases.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
}

// workloadRun is one workload inside a pass: set up once, measured in one
// step per round, then checked and reduced to metrics.
type workloadRun interface {
	setup(ctx context.Context) error
	// step measures one round; window is the workload's share of the
	// round, where it has one (see runPass).
	step(ctx context.Context, window time.Duration) error
	// close releases what the workload kept alive for the heap reading.
	close()
	finish(ctx context.Context)
}

// rounds is how often each workload is measured per run. The rounds
// interleave the workloads, so every metric samples the host across the
// whole run rather than one stretch of it. The host's speed wanders over
// half a second to a few seconds, so the millisecond repetitions run in
// many short bursts, one per round, rather than a few long ones.
const rounds = 16

func runPass(ctx context.Context, cfg config, tr *tracer) (*pass, error) {
	p := &pass{
		cfg:   cfg,
		tr:    tr,
		e2e:   make(map[string]float64),
		layer: make(map[string]float64),
		notes: make(map[string]string),
		setup: make(map[string][]time.Duration),
		mem:   make(map[string]memDelta),
	}
	heap0 := liveHeapMB()
	runs := []workloadRun{&gridRun{p: p}, &mixRun{p: p}, &fabricRun{p: p}}
	closeAll := func() { // every close is idempotent
		for _, r := range runs {
			r.close()
		}
	}
	defer closeAll()
	for i, r := range runs {
		if err := r.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", workloads[i], err)
		}
	}
	for round := 0; round < rounds; round++ {
		for i, r := range runs {
			var window time.Duration // paper-grid's steps are fixed: see gridRun.step
			switch workloads[i] {
			case serveMix:
				window = cfg.seconds * 35 / 100 / rounds
			case fabricSweep:
				window = cfg.seconds / 4 / rounds
			}
			// Each step starts from a collected heap, so no workload's
			// garbage is collected on another's clock.
			runtime.GC()
			profiled := tr != nil && workloads[i] == cfg.subject
			if profiled {
				if err := p.startProfile(round); err != nil {
					return nil, err
				}
			}
			err := r.step(ctx, window)
			if profiled {
				pprof.StopCPUProfile()
				p.profile.Close() //nolint:errcheck // pprof reads it back and reports damage
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", workloads[i], err)
			}
		}
	}
	p.e2e["retained_heap_mb"] = liveHeapMB() - heap0
	closeAll()
	for _, r := range runs {
		r.finish(ctx)
	}

	var setup float64
	var parts []string
	for _, w := range workloads {
		ds := make([]float64, len(p.setup[w]))
		for i, d := range p.setup[w] {
			ds[i] = d.Seconds()
		}
		setup += median(ds)
		parts = append(parts, fmt.Sprintf("%s %.1f ms (median of %d)", w, 1000*median(ds), len(ds)))
	}
	p.e2e["setup_s"] = setup
	p.notes["setup_s"] = strings.Join(parts, ", ")
	p.notes["retained_heap_mb"] = "live heap after the rounds minus before set-up"
	m := p.mem[cfg.subject]
	p.layer["go.alloc_mb"] = float64(m.allocBytes) / 1e6
	p.layer["go.gc_cycles"] = float64(m.gcCycles)
	if tr != nil {
		shares, err := cpuShares(ctx, p.profiles)
		if err != nil {
			return nil, err
		}
		for k, v := range shares {
			p.layer[k] = v
		}
	}
	return p, nil
}

// timed runs f as one timed phase of workload w and returns its wall time.
// MemStats are read around it, outside the timed interval.
func (p *pass) timed(w string, f func()) time.Duration {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	runtime.ReadMemStats(&b)
	m := p.mem[w]
	m.allocBytes += b.TotalAlloc - a.TotalAlloc
	m.gcCycles += b.NumGC - a.NumGC
	p.mem[w] = m
	return d
}

// startProfile starts the CPU profile of one subject step.
func (p *pass) startProfile(round int) error {
	name := filepath.Join(p.cfg.scratch, fmt.Sprintf("cpu-%d.pprof", round))
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.profiles = append(p.profiles, name)
	p.profile = f
	return nil
}

// liveHeapMB forces a collection and returns the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

func writeSpans(cfg config, tr *tracer) error {
	name := fmt.Sprintf("spans-%s-%d.jsonl", cfg.subject, cfg.seed)
	f, err := os.Create(filepath.Join(filepath.Dir(cfg.scratch), name))
	if err != nil {
		return err
	}
	if err := tr.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// metricDef describes one reported metric. For a per-layer metric, moves
// and on name the end-to-end metric and workload it should move ("subject"
// is the run's --workload).
type metricDef struct {
	name, unit, better string
	moves, on          string
}

var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "grid_cold_s", unit: "s", better: "lower"},
	{name: "grid_restart_ms", unit: "ms", better: "lower"},
	{name: "batch_points_per_s", unit: "points/s", better: "higher"},
	{name: "fabric_cold_s", unit: "s", better: "lower"},
	{name: "fabric_warm_ms", unit: "ms", better: "lower"},
	{name: "retained_heap_mb", unit: "MB", better: "lower"},
}

// interactive are serve-mix's open-loop latency figures. They print with the
// end-to-end metrics but are gated only as per-layer rows: on a shared
// 2-vCPU host their quartile spread from run to run reached 0.3 to 0.7 of
// the median (p50) and 0.4 to 1.9 (p99), wider than the largest bound a
// benchmark may set. Queueing behind the one interactive connection and the
// closed-loop batch tenant magnifies every stall the host adds.
var interactive = []metricDef{
	{"simulate_p50_ms", "ms", "lower", "simulate_p50_ms", serveMix},
	{"simulate_p99_ms", "ms", "lower", "simulate_p99_ms", serveMix},
}

// timings are the figures whose tracing overhead the traced run reports.
var timings = func() []metricDef {
	var defs []metricDef
	for _, m := range append(slices.Clone(endToEnd), interactive...) {
		if m.name != "setup_s" && m.name != "retained_heap_mb" {
			defs = append(defs, m)
		}
	}
	return defs
}()

var perLayer = func() []metricDef {
	defs := []metricDef{
		{"runner.busy_s", "s", "lower", "grid_cold_s", paperGrid},
		{"runner.calls", "count", "lower", "grid_cold_s", paperGrid},
		{"runner.delta_records", "count", "lower", "grid_cold_s", paperGrid},
		{"runner.delta_resumes", "count", "higher", "grid_cold_s", paperGrid},
		{"runner.delta_serves", "count", "higher", "grid_cold_s", paperGrid},
		{"runner.pool_hits", "count", "higher", "grid_cold_s", paperGrid},
		{"runner.pool_misses", "count", "lower", "grid_cold_s", paperGrid},
		{"runner.ns_per_simulated_si", "ns", "lower", "grid_cold_s", paperGrid},
		{"explore.self_ms", "ms", "lower", "grid_cold_s", paperGrid},
		{"explore.restart_self_ms", "ms", "lower", "grid_restart_ms", paperGrid},
		{"explore.cache_get_ms", "ms", "lower", "grid_restart_ms", paperGrid},
		{"explore.cache_put_ms", "ms", "lower", "grid_cold_s", paperGrid},
		{"explore.cache_hits", "count", "higher", "grid_restart_ms", paperGrid},
		{"explore.cache_misses", "count", "lower", "grid_cold_s", paperGrid},
	}
	defs = append(defs, interactive...)
	defs = append(defs, []metricDef{
		{"serve.simulate_handler_p50_ms", "ms", "lower", "simulate_p50_ms", serveMix},
		{"serve.simulate_handler_p99_ms", "ms", "lower", "simulate_p99_ms", serveMix},
		{"serve.lru_hit_ratio", "ratio", "higher", "simulate_p50_ms", serveMix},
		{"serve.pool_hit_ratio", "ratio", "higher", "simulate_p99_ms", serveMix},
		{"serve.queue_depth_interactive", "requests", "lower", "simulate_p99_ms", serveMix},
		{"serve.queue_depth_batch", "requests", "lower", "batch_points_per_s", serveMix},
		{"serve.explore_busy_s", "s", "lower", "batch_points_per_s", serveMix},
		{"serve.explore_simulated", "count", "lower", "batch_points_per_s", serveMix},
		{"serve.explore_cache_hits", "count", "higher", "batch_points_per_s", serveMix},
		{"serve.shed", "count", "lower", "simulate_p99_ms", serveMix},
		{"serve.errors", "count", "lower", "simulate_p99_ms", serveMix},
		{"load.send_lag_p99_ms", "ms", "lower", "simulate_p99_ms", serveMix},
		{"workload.lowering_s", "s", "lower", "simulate_p99_ms", serveMix},
		{"search.suggest_p50_ms", "ms", "lower", "batch_points_per_s", serveMix},
		{"fabric.shard_max_s", "s", "lower", "fabric_cold_s", fabricSweep},
		{"fabric.shard_sum_s", "s", "lower", "fabric_cold_s", fabricSweep},
		{"fabric.merge_self_ms", "ms", "lower", "fabric_cold_s", fabricSweep},
		{"fabric.shard_imbalance", "ratio", "lower", "fabric_cold_s", fabricSweep},
		{"fabric.worker_busy_s", "s", "lower", "fabric_cold_s", fabricSweep},
		{"fabric.peer_get_ms", "ms", "lower", "fabric_warm_ms", fabricSweep},
		{"fabric.peer_gets", "count", "lower", "fabric_warm_ms", fabricSweep},
		{"fabric.peer_put_ms", "ms", "lower", "fabric_cold_s", fabricSweep},
		{"fabric.peer_puts", "count", "lower", "fabric_cold_s", fabricSweep},
		{"fabric.shard_retries", "count", "lower", "fabric_cold_s", fabricSweep},
		{"fabric.worker_failures", "count", "lower", "fabric_cold_s", fabricSweep},
		{"fabric.simulated_cold", "count", "lower", "fabric_cold_s", fabricSweep},
		{"fabric.simulated_warm", "count", "lower", "fabric_warm_ms", fabricSweep},
		{"go.alloc_mb", "MB", "lower", "grid_cold_s,simulate_p99_ms", "subject"},
		{"go.gc_cycles", "count", "lower", "grid_cold_s,simulate_p99_ms", "subject"},
	}...)
	for _, m := range cpuModules {
		defs = append(defs, metricDef{"cpu." + m, "%", "lower", "subject's timings", "subject"})
	}
	for _, m := range timings {
		defs = append(defs, metricDef{"overhead." + m.name, "%", "lower", m.name, "all"})
	}
	return defs
}()

func printEndToEnd(out io.Writer, p *pass) {
	fmt.Fprintf(out, "end-to-end (untraced, subject %s, seed %d)\n", p.cfg.subject, p.cfg.seed)
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-20s %14.4f %-9s %s\n", m.name, p.e2e[m.name], m.unit, p.notes[m.name])
	}
	for _, m := range interactive {
		fmt.Fprintf(out, "  %-20s %14.4f %-9s %s (per-layer row)\n", m.name, p.e2e[m.name], m.unit, p.notes[m.name])
	}
}

func printLayers(out io.Writer, cfg config, p *pass) {
	fmt.Fprintf(out, "per-layer (traced, subject %s, seed %d)\n", cfg.subject, cfg.seed)
	fmt.Fprintf(out, "  %-30s %14s %-8s %-28s %s\n", "metric", "value", "unit", "should move", "on")
	for _, m := range perLayer {
		on := m.on
		if on == "subject" {
			on = cfg.subject
		}
		fmt.Fprintf(out, "  %-30s %14.4f %-8s %-28s %s\n", m.name, p.layer[m.name], m.unit, m.moves, on)
	}
	if notes := sortedNotes(p.notes); notes != "" {
		fmt.Fprintf(out, "%s", notes)
	}
}

func sortedNotes(notes map[string]string) string {
	keys := make([]string, 0, len(notes))
	for k := range notes {
		if strings.Contains(k, ".") {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s: %s\n", k, notes[k])
	}
	return b.String()
}
