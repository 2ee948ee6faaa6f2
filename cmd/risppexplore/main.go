// Command risppexplore batch-runs design-space sweeps: schedulers ×
// Atom-Container budgets × workload knobs, expanded from a spec file or
// flags, executed concurrently on a bounded worker pool with result
// caching. Results stream as JSONL (byte-identical at any -j); a human
// summary — best per AC budget, Pareto front, speedups vs a baseline —
// goes to stderr.
//
// Usage:
//
//	risppexplore -sched HEF,ASF,Molen -acs 5-24 -frames 20
//	risppexplore -spec sweep.json -j 8 -timeout 10m -out results.jsonl
//	risppexplore -sched HEF -acs 4-32 -cache .explore-cache   # -resume: only new points simulate
//
// A spec file is the JSON form of explore.Spec, e.g.
//
//	{"schedulers": ["HEF", "Molen"], "acs": [5, 10, 15], "motion": [0, 0.3]}
//
// Instead of exhaustively expanding the grid, -search runs an adaptive
// multi-objective strategy (internal/search) over the same spec: points are
// proposed in seeded deterministic batches, evaluated through the engine
// with every result validated by the reference oracle, and the
// cycles-vs-area Pareto front is maintained incrementally under an
// evaluation budget:
//
//	risppexplore -sched HEF,Molen,software -acs 4-32 -search evolve -budget 100 -seed 1
//	risppexplore -spec sweep.json -search halving -budget 200 -journal run.jsonl
//	risppexplore -replay run.jsonl            # verify a journal byte-for-byte
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"encoding/json"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/profiling"
	"rispp/internal/search"
)

// stopProfiles, once set, flushes active profiles; fatal calls it so that
// -cpuprofile/-trace output survives error exits.
var stopProfiles func() error

func main() {
	var (
		prof      profiling.Config
		specFile  = flag.String("spec", "", "sweep spec file (JSON explore.Spec); dimension flags override its dimensions")
		scheds    = flag.String("sched", "", "comma-separated schedulers (FSFR, ASF, SJF, HEF, Molen, software)")
		acs       = flag.String("acs", "", "Atom-Container budgets: comma list and/or ranges, e.g. 5-24 or 4,8,16")
		frames    = flag.String("frames", "", "comma-separated frame counts")
		seeds     = flag.String("seeds", "", "comma-separated workload PRNG seeds")
		motion    = flag.String("motion", "", "comma-separated motion-variability values (0..1)")
		scenes    = flag.String("scene", "", "comma-separated scene-change frames (0 = none)")
		prefetch  = flag.String("prefetch", "", "comma-separated booleans for the prefetch dimension")
		forecasts = flag.String("seedforecasts", "", "comma-separated booleans for the forecast-seeding dimension")
		workers   = flag.Int("j", 0, "parallel simulations (0 = GOMAXPROCS)")
		timeout   = flag.Duration("timeout", 0, "overall deadline (0 = none)")
		cacheDir  = flag.String("cache", "", "content-addressed result cache directory (each run appends to a log-*.jsonl of its own)")
		resume    = flag.Bool("resume", true, "reuse completed points from -cache (false: re-simulate and append a superseding record)")
		out       = flag.String("out", "-", "JSONL output file (- = stdout)")
		summary   = flag.Bool("summary", true, "print the sweep summary to stderr")
		baseline  = flag.String("baseline", "Molen", "baseline scheduler for the speedup table")

		searchName = flag.String("search", "", "adaptive search strategy instead of a full grid sweep: "+strings.Join(search.StrategyNames(), ", "))
		budget     = flag.Int("budget", 0, "evaluation budget for -search (required with -search)")
		seed       = flag.Int64("seed", 1, "PRNG seed for -search (same seed = byte-identical journal)")
		batch      = flag.Int("search-batch", search.DefaultBatchSize, "points proposed per -search round")
		journalOut = flag.String("journal", "", "write the replayable search journal (JSONL) to this file")
		replayFile = flag.String("replay", "", "verify a search journal and print its summary (no simulation)")
		check      = flag.Bool("check", false, "validate every simulated point with the reference oracle (always on under -search)")
	)
	prof.AddFlags(flag.CommandLine)
	flag.Parse()

	if *replayFile != "" {
		f, err := os.Open(*replayFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		rep, err := search.Replay(f)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Format())
		return
	}

	var spec explore.Spec
	if *specFile != "" {
		b, err := os.ReadFile(*specFile)
		if err != nil {
			fatal(err)
		}
		if err := json.Unmarshal(b, &spec); err != nil {
			fatal(fmt.Errorf("spec %s: %w", *specFile, err))
		}
	}
	if *scheds != "" {
		spec.Schedulers = splitList(*scheds)
	}
	if *acs != "" {
		v, err := parseIntRanges(*acs)
		if err != nil {
			fatal(err)
		}
		spec.ACs = v
	}
	if *frames != "" {
		v, err := parseInts(*frames)
		if err != nil {
			fatal(err)
		}
		spec.Frames = v
	}
	if *seeds != "" {
		v, err := parseInt64s(*seeds)
		if err != nil {
			fatal(err)
		}
		spec.Seeds = v
	}
	if *motion != "" {
		v, err := parseFloats(*motion)
		if err != nil {
			fatal(err)
		}
		spec.Motion = v
	}
	if *scenes != "" {
		v, err := parseInts(*scenes)
		if err != nil {
			fatal(err)
		}
		spec.SceneChanges = v
	}
	if *prefetch != "" {
		v, err := parseBools(*prefetch)
		if err != nil {
			fatal(err)
		}
		spec.Prefetch = v
	}
	if *forecasts != "" {
		v, err := parseBools(*forecasts)
		if err != nil {
			fatal(err)
		}
		spec.SeedForecasts = v
	}
	jobs, err := spec.Expand()
	if err != nil {
		fatal(err)
	}
	if len(jobs) == 0 {
		fatal(fmt.Errorf("empty sweep: give -spec or at least one dimension flag"))
	}

	stop, err := prof.Start()
	if err != nil {
		fatal(err)
	}
	stopProfiles = stop

	var cache *explore.Cache
	if *cacheDir != "" {
		cache, err = explore.OpenCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		cache.WriteOnly = !*resume
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	bw := bufio.NewWriter(w)
	defer bw.Flush()

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *searchName != "" {
		runSearch(ctx, spec, cache, searchFlags{
			strategy: *searchName, seed: *seed, budget: *budget, batch: *batch,
			workers: *workers, journal: *journalOut, summary: *summary,
		}, bw)
		return
	}

	start := time.Now()
	eng := rispp.Explorer(rispp.Config{}, *workers, cache)
	if *check {
		eng = rispp.CheckedExplorer(rispp.Config{}, *workers, cache)
	}
	res, err := eng.Execute(ctx, spec, bw)
	if flushErr := bw.Flush(); err == nil {
		err = flushErr
	}
	if perr := stop(); err == nil {
		err = perr
	}
	stopProfiles = nil
	if *summary && res != nil {
		fmt.Fprintf(os.Stderr, "\n%s\nelapsed: %s\n", res.Format(*baseline), time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		fatal(err)
	}
	if res.Summary.Failed > 0 {
		fatal(fmt.Errorf("%d of %d jobs failed (first: %v)", res.Summary.Failed, res.Summary.Total, res.FirstErr()))
	}
}

type searchFlags struct {
	strategy string
	seed     int64
	budget   int
	batch    int
	workers  int
	journal  string
	summary  bool
}

// runSearch executes the adaptive-search path: the engine is always the
// oracle-checked one, so a guided strategy can never converge onto a
// simulator bug. Evaluated records stream to bw as JSONL (same format as a
// grid sweep); the replayable journal goes to -journal when given.
func runSearch(ctx context.Context, spec explore.Spec, cache *explore.Cache, sf searchFlags, bw *bufio.Writer) {
	start := time.Now()
	var journal io.Writer
	var jf *os.File
	if sf.journal != "" {
		f, err := os.Create(sf.journal)
		if err != nil {
			fatal(err)
		}
		jf = f
		journal = f
	}
	eng := rispp.CheckedExplorer(rispp.Config{}, sf.workers, cache)
	out, err := search.Run(ctx, eng, spec, search.Config{
		Strategy:  sf.strategy,
		Seed:      sf.seed,
		Budget:    sf.budget,
		BatchSize: sf.batch,
		Stream:    bw,
		Journal:   journal,
	})
	if flushErr := bw.Flush(); err == nil {
		err = flushErr
	}
	if jf != nil {
		if cerr := jf.Close(); err == nil {
			err = cerr
		}
	}
	if perr := stopProfiles(); err == nil {
		err = perr
	}
	stopProfiles = nil
	if sf.summary && out != nil {
		fmt.Fprintf(os.Stderr, "\n%selapsed: %s\n", out.Format(), time.Since(start).Round(time.Millisecond))
	}
	if err != nil {
		fatal(err)
	}
	if out.Failed > 0 {
		fatal(fmt.Errorf("%d of %d evaluated points failed", out.Failed, out.Evaluated))
	}
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseIntRanges accepts "5-24", "4,8,16" and mixtures of both.
func parseIntRanges(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		if lo, hi, ok := strings.Cut(f, "-"); ok {
			a, err1 := strconv.Atoi(lo)
			b, err2 := strconv.Atoi(hi)
			if err1 != nil || err2 != nil || a > b {
				return nil, fmt.Errorf("bad range %q", f)
			}
			for n := a; n <= b; n++ {
				out = append(out, n)
			}
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad int %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad int %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseInt64s(s string) ([]int64, error) {
	var out []int64
	for _, f := range splitList(s) {
		n, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad int %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range splitList(s) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, fmt.Errorf("bad float %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseBools(s string) ([]bool, error) {
	var out []bool
	for _, f := range splitList(s) {
		v, err := strconv.ParseBool(f)
		if err != nil {
			return nil, fmt.Errorf("bad bool %q", f)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	if stopProfiles != nil {
		stopProfiles()
	}
	fmt.Fprintln(os.Stderr, "risppexplore:", err)
	os.Exit(1)
}
