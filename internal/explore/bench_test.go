// Benchmarks of the exploration engine's orchestration overhead: job
// expansion, worker-pool scheduling and ordered JSONL streaming, isolated
// from simulation cost by a trivial RunFunc; and of the result cache's
// write and read paths.
//
// Run with: go test -bench . -benchmem ./internal/explore
package explore

import (
	"context"
	"io"
	"path/filepath"
	"strconv"
	"testing"
)

func benchSpec() Spec {
	return Spec{
		Schedulers: []string{"FSFR", "ASF", "SJF", "HEF"},
		ACs:        []int{5, 10, 15, 20, 25},
		Frames:     []int{20},
	}
}

func noopRun(ctx context.Context, p Point) (Metrics, error) {
	return Metrics{
		TotalCycles:  int64(p.NumACs) * 1000,
		StallCycles:  int64(p.NumACs) * 10,
		SWExecutions: 1,
		HWExecutions: 2,
	}, nil
}

// BenchmarkEngineExecute measures the per-sweep engine overhead without
// output streaming.
func BenchmarkEngineExecute(b *testing.B) {
	eng := &Engine{Run: noopRun, Workers: 4}
	spec := benchSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(context.Background(), spec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineExecuteJSONL adds the ordered JSONL result stream — the
// path risppexplore runs; the encoder is shared across records so the
// per-record cost must stay flat.
func BenchmarkEngineExecuteJSONL(b *testing.B) {
	eng := &Engine{Run: noopRun, Workers: 4}
	spec := benchSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(context.Background(), spec, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpecExpand measures grid expansion and dedup on their own.
func BenchmarkSpecExpand(b *testing.B) {
	spec := benchSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := spec.Expand(); err != nil {
			b.Fatal(err)
		}
	}
}

// roundTripSpec is the paper's grid size: six run-time systems × 20 Atom
// Container budgets × two trace lengths, 240 points.
func roundTripSpec() Spec {
	acs := make([]int, 0, 20)
	for n := 5; n <= 24; n++ {
		acs = append(acs, n)
	}
	return Spec{
		Schedulers: []string{"FSFR", "ASF", "SJF", "HEF", "Molen", "software"},
		ACs:        acs,
		Frames:     []int{10, 140},
	}
}

// BenchmarkCacheRoundTrip measures the result cache's write and read
// paths: 240 Puts into a fresh directory, then a fresh Cache on that
// directory serving all 240, as a restarted sweep does.
func BenchmarkCacheRoundTrip(b *testing.B) {
	ps, err := roundTripSpec().Expand()
	if err != nil {
		b.Fatal(err)
	}
	ms := make([]Metrics, len(ps))
	for i, p := range ps {
		ms[i], _ = noopRun(context.Background(), p)
	}
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, strconv.Itoa(i))
		c, err := OpenCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		for k, p := range ps {
			if err := c.Put(p, ms[k]); err != nil {
				b.Fatal(err)
			}
		}
		if c, err = OpenCache(dir); err != nil {
			b.Fatal(err)
		}
		for k, p := range ps {
			if m, ok := c.Get(p); !ok || m != ms[k] {
				b.Fatalf("%s: %+v ok=%v", p.Key(), m, ok)
			}
		}
	}
}
