// Command benchcheck is the CI bench-regression gate: it parses `go test
// -bench` output from stdin, reduces repeated runs (-count=N) to the best
// observation per benchmark, and compares ns/op and allocs/op against a
// committed baseline.
//
//	go test -run '^$' -bench BenchmarkRun -benchtime 100x -benchmem -count 5 ./internal/sim \
//	    | go run ./scripts/benchcheck -baseline BENCH_baseline.json
//
// The gate fails (exit 1) when any baselined benchmark regresses more than
// -tolerance in ns/op (default 0.25 = +25%), when allocs/op increases at
// all, or when a baselined benchmark is missing from the input. Benchmarks
// without a baseline entry are reported but not gated. -update rewrites
// the baseline from the measured values instead of checking.
//
// Minima are compared, not means: the fastest of N repeats is the run
// least disturbed by scheduling noise, which is what a regression gate
// should track on shared CI machines.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Baseline is the committed reference file.
type Baseline struct {
	// Note documents how to regenerate the file.
	Note string `json:"note,omitempty"`
	// Benchmarks maps the bare benchmark name (no -cpus suffix) to its
	// reference numbers.
	Benchmarks map[string]Entry `json:"benchmarks"`
}

// Entry is one benchmark's reference point.
type Entry struct {
	NsPerOp     float64 `json:"ns_op"`
	AllocsPerOp int64   `json:"allocs_op"`
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "committed baseline file")
		tolerance    = flag.Float64("tolerance", 0.25, "allowed fractional ns/op regression")
		update       = flag.Bool("update", false, "rewrite the baseline from the measured values")
	)
	flag.Parse()
	if env := os.Getenv("BENCH_TOLERANCE"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			fatal(fmt.Errorf("BENCH_TOLERANCE %q: %w", env, err))
		}
		*tolerance = v
	}

	measured, err := parseBench(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if len(measured) == 0 {
		fatal(fmt.Errorf("no benchmark lines on stdin — run with: go test -bench ... | benchcheck"))
	}

	if *update {
		if err := writeBaseline(*baselinePath, measured); err != nil {
			fatal(err)
		}
		fmt.Printf("benchcheck: wrote %d benchmarks to %s\n", len(measured), *baselinePath)
		return
	}

	base, err := readBaseline(*baselinePath)
	if err != nil {
		fatal(err)
	}
	failed := check(base, measured, *tolerance)
	if failed {
		os.Exit(1)
	}
}

// check prints one verdict line per benchmark and reports whether any
// baselined benchmark failed the gate.
func check(base Baseline, measured map[string]Entry, tolerance float64) bool {
	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	failed := false
	for _, name := range names {
		ref := base.Benchmarks[name]
		got, ok := measured[name]
		if !ok {
			fmt.Printf("FAIL  %-24s missing from bench output (baseline %s)\n", name, fmtEntry(ref))
			failed = true
			continue
		}
		ratio := got.NsPerOp / ref.NsPerOp
		verdict := "ok  "
		switch {
		case got.AllocsPerOp > ref.AllocsPerOp:
			verdict = "FAIL"
			failed = true
		case ratio > 1+tolerance:
			verdict = "FAIL"
			failed = true
		}
		fmt.Printf("%s  %-24s %12.0f ns/op (%+6.1f%% vs %.0f), %d allocs/op (baseline %d)\n",
			verdict, name, got.NsPerOp, 100*(ratio-1), ref.NsPerOp, got.AllocsPerOp, ref.AllocsPerOp)
	}
	extras := make([]string, 0, len(measured))
	for name := range measured {
		if _, ok := base.Benchmarks[name]; !ok {
			extras = append(extras, name)
		}
	}
	sort.Strings(extras)
	for _, name := range extras {
		got := measured[name]
		fmt.Printf("info  %-24s %12.0f ns/op, %d allocs/op (not baselined)\n", name, got.NsPerOp, got.AllocsPerOp)
	}
	if failed {
		fmt.Printf("benchcheck: REGRESSION — over +%.0f%% ns/op or any allocs/op increase (see FAIL lines)\n", 100*tolerance)
	} else {
		fmt.Printf("benchcheck: ok (%d benchmarks within +%.0f%% ns/op, no alloc increases)\n", len(names), 100*tolerance)
	}
	return failed
}

func fmtEntry(e Entry) string {
	return fmt.Sprintf("%.0f ns/op, %d allocs/op", e.NsPerOp, e.AllocsPerOp)
}

// parseBench extracts {ns/op, allocs/op} per benchmark from `go test
// -bench` output, keeping the minimum of repeated runs. The -cpus suffix
// ("BenchmarkRun-8") is stripped so baselines are core-count independent.
func parseBench(f io.Reader) (map[string]Entry, error) {
	out := make(map[string]Entry)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // echo for the CI log
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		var entry Entry
		var haveNs, haveAllocs bool
		for i := 2; i+1 < len(fields); i += 2 {
			val, unit := fields[i], fields[i+1]
			switch unit {
			case "ns/op":
				v, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, fmt.Errorf("bad ns/op %q in %q", val, line)
				}
				entry.NsPerOp, haveNs = v, true
			case "allocs/op":
				v, err := strconv.ParseInt(val, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("bad allocs/op %q in %q", val, line)
				}
				entry.AllocsPerOp, haveAllocs = v, true
			}
		}
		if !haveNs {
			continue
		}
		if !haveAllocs {
			return nil, fmt.Errorf("%s has no allocs/op — run go test with -benchmem", name)
		}
		if prev, ok := out[name]; !ok || entry.NsPerOp < prev.NsPerOp {
			e := entry
			if ok && prev.AllocsPerOp < e.AllocsPerOp {
				e.AllocsPerOp = prev.AllocsPerOp
			}
			out[name] = e
		} else if entry.AllocsPerOp < prev.AllocsPerOp {
			prev.AllocsPerOp = entry.AllocsPerOp
			out[name] = prev
		}
	}
	return out, sc.Err()
}

func readBaseline(path string) (Baseline, error) {
	var base Baseline
	b, err := os.ReadFile(path)
	if err != nil {
		return base, err
	}
	if err := json.Unmarshal(b, &base); err != nil {
		return base, fmt.Errorf("%s: %w", path, err)
	}
	if len(base.Benchmarks) == 0 {
		return base, fmt.Errorf("%s: no benchmarks", path)
	}
	return base, nil
}

func writeBaseline(path string, measured map[string]Entry) error {
	base := Baseline{
		Note:       "minimum of repeated runs; regenerate with: make bench-baseline",
		Benchmarks: measured,
	}
	b, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcheck:", err)
	os.Exit(1)
}
