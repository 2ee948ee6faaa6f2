// Command risppserve runs the RISPP simulation service: an HTTP/JSON
// daemon answering design-point simulations and design-space sweeps over
// the compiled simulator hot path.
//
//	risppserve -addr :8264 -workers 8
//	risppserve -cache .explore-cache          # sweeps reuse cached points
//	risppserve -limits limits.json            # multi-tenant QoS policy
//
// A sweep fleet is one coordinator plus any number of workers:
//
//	risppserve -addr :8264 -coordinator -cache .fleet-cache
//	risppserve -addr :8265 -cache w1 -register http://localhost:8264 -advertise http://localhost:8265
//	risppserve -addr :8266 -cache w2 -register http://localhost:8264 -advertise http://localhost:8266
//
// The coordinator shards /v1/explore (and /v1/jobs) sweeps across the
// registered workers by point hash, re-merges the record streams in
// canonical order — byte-identical to a single process — and re-hashes the
// shards of workers that die mid-sweep. -register also points each worker's
// result-cache lookups at the coordinator's cache (GET/PUT /v1/cache/
// {hash}), so the fleet shares one logical cache. -worker-id defaults to
// the advertised URL; keep it stable so a restarted worker reclaims its
// hash range.
//
//	curl -s localhost:8264/v1/simulate -d '{"scheduler":"HEF","acs":10,"frames":140,"seed_forecasts":true}'
//	curl -s localhost:8264/v1/explore  -d '{"schedulers":["HEF","Molen"],"acs":[5,10,15],"frames":[20]}'
//	curl -s localhost:8264/v1/healthz
//	curl -s localhost:8264/metrics
//
// The -limits file is a serve.QoSConfig JSON document: per-tenant weights,
// quotas, auth tokens and queue depths. SIGHUP re-reads it and hot-swaps
// the policy without dropping in-flight or queued work:
//
//	{
//	  "tenants": {"gold": {"weight": 3}, "bronze": {"weight": 1, "max_inflight": 2}},
//	  "interactive_queue": 64
//	}
//
// SIGINT/SIGTERM drain the server: in-flight simulations finish (bounded
// by -grace), new requests are answered 503.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rispp"
	"rispp/internal/explore"
	"rispp/internal/fabric"
	"rispp/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", ":8264", "listen address")
		workers    = flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
		exploreJ   = flag.Int("explore-j", 0, "per-sweep exploration parallelism (0 = workers)")
		timeout    = flag.Duration("timeout", 30*time.Second, "default per-request simulation deadline")
		maxTimeout = flag.Duration("max-timeout", 2*time.Minute, "upper bound on requested deadlines")
		maxFrames  = flag.Int("max-frames", 10000, "largest workload a request may ask for")
		maxPoints  = flag.Int("max-points", 4096, "largest expanded sweep a request may post")
		cacheDir   = flag.String("cache", "", "content-addressed explore result cache directory (empty = off)")
		respCache  = flag.Int("resp-cache", 4096, "in-memory /v1/simulate response cache entries (-1 = off)")
		grace      = flag.Duration("grace", 30*time.Second, "shutdown drain deadline")
		limits     = flag.String("limits", "", "QoS limits file (serve.QoSConfig JSON); SIGHUP hot-reloads it")
		pprofFlag  = flag.Bool("pprof", false, "mount /debug/pprof/ profiling endpoints")
		accessLog  = flag.String("access-log", "", "structured request log destination: a file path or - for stderr")

		coordFlag = flag.Bool("coordinator", false, "coordinate a sweep fleet: shard /v1/explore and /v1/jobs across registered workers")
		fleet     = flag.String("fleet-workers", "", "comma-separated worker base URLs to pre-register (implies -coordinator)")
		register  = flag.String("register", "", "coordinator base URL: register this process as a fleet worker and share its result cache")
		advertise = flag.String("advertise", "", "base URL under which the coordinator reaches this worker (required with -register)")
		workerID  = flag.String("worker-id", "", "stable fleet identity for rendezvous hashing (default: the advertised URL)")
		maxJobs   = flag.Int("max-jobs", 64, "async sweep jobs retained by /v1/jobs")
	)
	flag.Parse()

	cfg := serve.Config{
		Addr:           *addr,
		Workers:        *workers,
		ExploreWorkers: *exploreJ,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxFrames:      *maxFrames,
		MaxPoints:      *maxPoints,
		CacheEntries:   *respCache,
		MaxJobs:        *maxJobs,
		EnablePprof:    *pprofFlag,
	}
	if *limits != "" {
		qos, err := loadLimits(*limits)
		if err != nil {
			fatal(err)
		}
		cfg.QoS = qos
	}
	switch *accessLog {
	case "":
	case "-":
		cfg.AccessLog = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(fmt.Errorf("access log: %w", err))
		}
		defer f.Close() //nolint:errcheck // best-effort flush on exit
		cfg.AccessLog = f
	}

	srv := serve.New(cfg, rispp.Config{})
	var cache *explore.Cache
	if *cacheDir != "" {
		c, err := explore.OpenCache(*cacheDir)
		if err != nil {
			fatal(err)
		}
		cache = c
		srv.SetExploreCache(c)
	}
	if *register != "" {
		if *advertise == "" {
			fatal(errors.New("-register requires -advertise (the URL the coordinator reaches this worker under)"))
		}
		// Worker mode: lookups miss locally, then ask the coordinator's
		// cache; results write through to both tiers.
		srv.SetExploreStore(&fabric.Tiered{Local: cache, Peer: fabric.NewPeer(*register)}, cache)
	}
	if *coordFlag || *fleet != "" {
		coord := fabric.NewCoordinator()
		for _, u := range strings.Split(*fleet, ",") {
			if u = strings.TrimSpace(u); u != "" {
				if err := coord.Register(u, u); err != nil {
					fatal(err)
				}
			}
		}
		srv.SetCoordinator(coord)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()

	if *register != "" {
		go registerWorker(*register, *workerID, *advertise)
	}

	hupc := make(chan os.Signal, 1)
	signal.Notify(hupc, syscall.SIGHUP)
	go func() {
		for range hupc {
			if *limits == "" {
				fmt.Fprintln(os.Stderr, "risppserve: SIGHUP ignored (no -limits file)")
				continue
			}
			qos, err := loadLimits(*limits)
			if err != nil {
				fmt.Fprintf(os.Stderr, "risppserve: SIGHUP reload failed, keeping current limits: %v\n", err)
				continue
			}
			srv.UpdateQoS(qos)
		}
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "risppserve: %v: draining (grace %s)\n", sig, *grace)
		ctx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(fmt.Errorf("shutdown: %w", err))
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "risppserve:", err)
	os.Exit(1)
}

// registerWorker announces this worker to the coordinator, retrying with
// backoff so start order doesn't matter (the coordinator may come up
// later, or restart — losing its registry — while workers keep running).
// Once registered it re-announces periodically: registration is idempotent
// and doubles as the revival path after the coordinator declared this
// worker dead.
func registerWorker(coordURL, id, advertise string) {
	if id == "" {
		id = advertise
	}
	body, err := json.Marshal(struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}{id, advertise})
	if err != nil {
		fatal(fmt.Errorf("register: %w", err))
	}
	delay := time.Second
	for {
		resp, err := http.Post(strings.TrimSuffix(coordURL, "/")+"/v1/workers", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusNoContent {
				delay = 15 * time.Second
			} else {
				fmt.Fprintf(os.Stderr, "risppserve: register at %s: %s\n", coordURL, resp.Status)
			}
		} else {
			fmt.Fprintf(os.Stderr, "risppserve: register at %s: %v\n", coordURL, err)
			if delay < 15*time.Second {
				delay *= 2
			}
		}
		time.Sleep(delay)
	}
}

// loadLimits parses a QoS policy file, rejecting unknown fields so a typo
// in a limits file fails loudly instead of silently dropping a quota.
func loadLimits(path string) (serve.QoSConfig, error) {
	var qos serve.QoSConfig
	b, err := os.ReadFile(path)
	if err != nil {
		return qos, fmt.Errorf("limits: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&qos); err != nil {
		return qos, fmt.Errorf("limits %s: %w", path, err)
	}
	return qos, nil
}
