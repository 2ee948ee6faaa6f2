package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
)

// envRecord identifies the machine and build a result set came from, so
// numbers from different machines are never compared silently.
type envRecord struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
	Source     string `json:"source"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Rate       string `json:"interactive_rate"`
}

func environment(cfg config, traced bool) envRecord {
	return envRecord{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      cfg.nproc,
		CPUModel:   cpuModel(),
		Commit:     commit(),
		Source:     sourceDigest("."),
		Workload:   cfg.subject,
		Seed:       cfg.seed,
		Seconds:    int(cfg.seconds.Seconds()),
		Trace:      traced,
		Rate:       strconv.FormatFloat(interactiveRate, 'f', -1, 64) + "/s",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision stamped into the binary, "-dirty" when the tree
// had local changes, or "unknown" when built outside a repository.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// sourceDigest hashes every Go source and module file under root, skipping
// dot-directories such as the build directory, so a result set names the
// code it measured even where the build carries no VCS stamp.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && name != "go.sum" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("sha256:%x", h.Sum(nil)[:8])
}

// packageModules are the rispp/internal packages the traced run's CPU
// profile is reduced to; cpuModules adds the Go runtime, net/http with
// encoding/json, and everything else.
var (
	packageModules = []string{
		"sim", "core", "sched", "monitor", "reconfig", "selection", "molen",
		"workload", "scenario", "explore", "serve", "fabric", "search",
	}
	cpuModules = append(slices.Clone(packageModules), "runtime", "http_json", "other")
)

// moduleOf maps a pprof function name to one of cpuModules.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "rispp/internal/"); ok {
		if pkg, _, _ := strings.Cut(rest, "."); slices.Contains(packageModules, pkg) {
			return pkg
		}
		return "other"
	}
	switch {
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "net/http.") || strings.HasPrefix(fn, "net.") ||
		strings.HasPrefix(fn, "net/textproto.") || strings.HasPrefix(fn, "encoding/json."):
		return "http_json"
	}
	return "other"
}

// cpuShares merges CPU profiles with the toolchain's pprof and reduces them
// to the flat CPU share of each module, in percent.
func cpuShares(ctx context.Context, profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms"}, profiles...)
	out, err := exec.CommandContext(ctx, "go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	return parsePprofTop(string(out))
}

// parsePprofTop sums the flat column of `pprof -top -unit=ms` per module.
func parsePprofTop(text string) (map[string]float64, error) {
	flat := make(map[string]float64, len(cpuModules))
	var total float64
	started := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "flat" {
			started = true
			continue
		}
		if !started || len(f) < 6 || !strings.HasSuffix(f[0], "ms") {
			continue
		}
		ms, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof line %q: %w", line, err)
		}
		flat[moduleOf(f[5])] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof reported no samples")
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		shares["cpu."+m] = 100 * flat[m] / total
	}
	return shares, nil
}
