package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

const pprofTop = `File: e2ebench
Type: cpu
Duration: 10s, Total samples = 1000ms (10.00%)
Showing nodes accounting for 1000ms, 100% of 1000ms total
      flat  flat%   sum%        cum   cum%
     400ms 40.00% 40.00%      500ms 50.00%  rispp/internal/sim.RunCompiledTrail
     200ms 20.00% 60.00%      200ms 20.00%  runtime.mallocgc
     100ms 10.00% 70.00%      100ms 10.00%  rispp/internal/core.(*Manager).Advance (inline)
     100ms 10.00% 80.00%      100ms 10.00%  encoding/json.(*decodeState).object
      50ms  5.00% 85.00%       50ms  5.00%  net/http.(*conn).serve
      50ms  5.00% 90.00%       50ms  5.00%  rispp.(*Runner).RunPoint
      50ms  5.00% 95.00%       50ms  5.00%  internal/runtime/maps.(*Map).getWithKey
      50ms  5.00%   100%       50ms  5.00%  rispp/internal/oracle.Check
         0     0%   100%      900ms 90.00%  runtime.goexit
`

func TestPprofTopReducesToModuleShares(t *testing.T) {
	shares, err := parsePprofTop(pprofTop)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"cpu.sim": 40, "cpu.core": 10, "cpu.runtime": 25, "cpu.http_json": 15, "cpu.other": 10}
	var sum float64
	for _, m := range cpuModules {
		got := shares["cpu."+m]
		sum += got
		if math.Abs(got-want["cpu."+m]) > 1e-9 {
			t.Errorf("cpu.%s = %g, want %g", m, got, want["cpu."+m])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %g", sum)
	}
	if _, err := parsePprofTop("no table here"); err == nil {
		t.Error("a profile with no samples reduces without error")
	}
}

func TestEnvironmentRecordsMachineAndBuild(t *testing.T) {
	env := environment(config{subject: serveMix, seed: 3, seconds: 20 * time.Second, nproc: 2}, true)
	if env.GoVersion == "" || env.GOMAXPROCS < 1 || env.NProc != 2 || env.CPUModel == "" || env.Commit == "" || env.Source == "" {
		t.Fatalf("incomplete environment record %+v", env)
	}
}

func TestSourceDigestFollowsTheCodeOnly(t *testing.T) {
	root := t.TempDir()
	write := func(name, text string) {
		t.Helper()
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module x\n")
	write("sim/sim.go", "package sim\n")
	base := sourceDigest(root)
	write(".bench_build/gen.go", "package gen\n")
	write("notes.md", "results\n")
	if got := sourceDigest(root); got != base {
		t.Fatalf("build output and docs changed the digest: %s -> %s", base, got)
	}
	write("sim/sim.go", "package sim // edited\n")
	if got := sourceDigest(root); got == base {
		t.Fatal("editing a source file left the digest unchanged")
	}
	if sourceDigest(filepath.Join(root, "missing")) != "unknown" {
		t.Fatal("an unreadable tree has a digest")
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json, which declares
// the workloads and metrics, in step with the metrics this program prints.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("workloads %v, want %v", names, workloads)
	}
	if !strings.Contains(string(b), fmt.Sprintf("%g req/s", interactiveRate)) {
		t.Errorf("BENCHMARK.json does not record the interactive rate %g req/s", interactiveRate)
	}
	type row struct{ Name, Unit, Better string }
	rows := func(defs []metricDef) []row {
		out := make([]row, len(defs))
		for i, d := range defs {
			out[i] = row{d.name, d.unit, d.better}
		}
		return out
	}
	conv := func(in []struct{ Name, Unit, Better string }) []row {
		out := make([]row, len(in))
		for i, r := range in {
			out[i] = row(r)
		}
		return out
	}
	if got, want := conv(spec.EndToEnd), rows(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end %v\nwant %v", got, want)
	}
	if got, want := conv(spec.PerLayer), rows(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer %v\nwant %v", got, want)
	}
}
