package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rispp/internal/explore"
	"rispp/internal/fabric"
	"rispp/internal/search"
)

var update = flag.Bool("update", false, "rewrite the /metrics golden file")

// flushCheck is a ResponseWriter whose every Flush checks that the server
// has counted at least as many explore records (simulated or answered from
// the result cache) as lines have reached the client.
type flushCheck struct {
	*httptest.ResponseRecorder
	t       *testing.T
	s       *Server
	base    int64 // explore records counted before the request
	flushes int
}

func (f *flushCheck) Flush() {
	f.flushes++
	lines := int64(bytes.Count(f.Body.Bytes(), []byte("\n")))
	if counted := f.s.met.engineSim.Load() + f.s.met.engineHits.Load() - f.base; counted < lines {
		f.t.Errorf("flush %d: %d lines sent, only %d records counted", f.flushes, lines, counted)
	}
	f.ResponseRecorder.Flush()
}

// TestExploreCountsBeforeFlush: a record is counted before its line leaves
// the node, so a client that reads rispp_explore_* once its stream ends
// sees every record of it — cold (simulated) and warm (cache hits) alike.
func TestExploreCountsBeforeFlush(t *testing.T) {
	cache, err := explore.OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 2})
	s.SetExploreCache(cache)
	body, _ := json.Marshal(ExploreRequest{Spec: explore.Spec{
		Schedulers: []string{"HEF", "Molen", "software"},
		ACs:        []int{4, 8},
		Frames:     []int{1},
	}})
	var streams [2][]byte
	for pass, name := range []string{"cold", "warm"} {
		w := &flushCheck{ResponseRecorder: httptest.NewRecorder(), t: t, s: s,
			base: s.met.engineSim.Load() + s.met.engineHits.Load()}
		s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/explore", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, w.Code, w.Body.String())
		}
		if w.flushes != 6 {
			t.Errorf("%s: %d flushes, want one per record (6)", name, w.flushes)
		}
		streams[pass] = w.Body.Bytes()
	}
	if !bytes.Equal(streams[0], streams[1]) {
		t.Error("warm stream differs from cold stream")
	}
	if sim, hits := s.met.engineSim.Load(), s.met.engineHits.Load(); sim != 6 || hits != 6 {
		t.Errorf("simulated %d, cache hits %d; want 6 and 6", sim, hits)
	}
}

// TestMetricsExposition pins the /metrics text after a fixed request mix:
// family order, HELP/TYPE lines, label names and their order, and every
// value that does not depend on timing. Scrapers (internal/load, the
// end-to-end benchmark) match exact series prefixes. Rewrite the golden
// with -update after an intended change.
func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QoS: QoSConfig{
		Tenants: map[string]TenantLimits{"metered": {CostPerSec: 0.1, Burst: 0.5}},
	}})
	s.SetCoordinator(fabric.NewCoordinator()) // empty fleet: sweeps run locally
	h := s.Handler()
	do := func(method, path, tenant, body string, want int) {
		t.Helper()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		if tenant != "" {
			req.Header.Set("X-Tenant", tenant)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, w.Code, want, w.Body.String())
		}
	}
	point := `{"scheduler":"HEF","acs":5,"frames":1,"seed_forecasts":true}`
	do(http.MethodPost, "/v1/simulate", "", point, http.StatusOK) // miss
	do(http.MethodPost, "/v1/simulate", "", point, http.StatusOK) // hit
	do(http.MethodPost, "/v1/simulate", "", `{"scheduler":"LRU","frames":1}`, http.StatusBadRequest)
	do(http.MethodPost, "/v1/simulate", "metered", `{"scheduler":"ASF","frames":1}`, http.StatusTooManyRequests)
	do(http.MethodPost, "/v1/explore", "batchy",
		`{"schedulers":["HEF","software"],"acs":[4],"frames":[1]}`, http.StatusOK)
	sug, _ := json.Marshal(search.SuggestRequest{Strategy: "evolve", Seed: 5, Count: 2, Spec: suggestSpec()})
	do(http.MethodPost, "/v1/suggest", "", string(sug), http.StatusOK)
	do(http.MethodGet, "/v1/healthz", "", "", http.StatusOK)

	text := s.Metrics()
	got := maskTimings(text)
	golden := filepath.Join("testdata", "metrics.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics differs from %s:\n%s", golden, lineDiff(string(want), got))
	}

	// The all-routes histogram is the sum of the per-route ones.
	series := parseSeries(text)
	les := []string{"+Inf"}
	for _, ub := range latencyBuckets {
		les = append(les, formatBound(ub))
	}
	sumRoutes := func(format string) (v float64) {
		for _, route := range metricRoutes {
			v += series[strings.Replace(format, "ROUTE", route, 1)]
		}
		return v
	}
	for _, le := range les {
		all := series[`rispp_request_duration_seconds_bucket{le="`+le+`"}`]
		if per := sumRoutes(`rispp_endpoint_latency_seconds_bucket{route="ROUTE",le="` + le + `"}`); all != per {
			t.Errorf("le=%s: all-routes bucket %g, per-route sum %g", le, all, per)
		}
	}
	if all, per := series["rispp_request_duration_seconds_count"], sumRoutes(`rispp_endpoint_latency_seconds_count{route="ROUTE"}`); all != per || all != 7 {
		t.Errorf("all-routes count %g, per-route sum %g; want 7", all, per)
	}
	if all, per := series["rispp_request_duration_seconds_sum"], sumRoutes(`rispp_endpoint_latency_seconds_sum{route="ROUTE"}`); math.Abs(all-per) > 1e-9+1e-6*all {
		t.Errorf("all-routes sum %g, per-route sum %g", all, per)
	}
}

// maskTimings replaces the values that depend on wall time — histogram
// buckets and sums, learned cost classes — with "X".
func maskTimings(text string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		name, _, _ := strings.Cut(line, " ")
		name, _, _ = strings.Cut(name, "{")
		if !strings.HasPrefix(line, "#") && (strings.HasSuffix(name, "_bucket") ||
			strings.HasSuffix(name, "_sum") || name == "rispp_cost_class_us") {
			line = line[:strings.LastIndexByte(line, ' ')] + " X\n"
		}
		b.WriteString(line)
	}
	return b.String()
}

// parseSeries maps every sample line of an exposition to its value.
func parseSeries(text string) map[string]float64 {
	out := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// lineDiff lists the lines that differ between two texts, by position.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			b.WriteString("line " + strconv.Itoa(i+1) + ":\n  want " + wl + "\n  got  " + gl + "\n")
		}
	}
	return b.String()
}
