# RISPP run-time system reproduction — common workflows.

GO ?= go

.PHONY: all build test examples short race bench bench-paper bench-check bench-baseline prof-diff cover-check verify-oracle fuzz search-smoke soak fabric-smoke e2ebench-check lint loc serve figures verify clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Runs every program under examples/ at its defaults (what the CI test job
# runs after Build): the build only compiles them, so this catches a
# failure at run time. Output is discarded; any non-zero exit fails.
examples:
	@set -e; for d in examples/*/; do echo "== $${d%/}"; $(GO) run ./$${d%/} > /dev/null; done

# Skips the full 140-frame integration sweep.
short:
	$(GO) test -short ./...

# Race-detector run (what CI runs).
race:
	$(GO) test -race -short ./...

# Hot-path micro-benchmarks (simulator + exploration engine), 5 repeats
# for benchstat; the numbers tracked in EXPERIMENTS.md come from here.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -count=5 ./internal/sim ./internal/explore

# Regenerate every paper table/figure as testing.B benchmarks.
bench-paper:
	$(GO) test -bench=. -benchmem ./...

# Bench-regression gate (what the bench-regression CI job runs): minimum
# of 5 repeats vs the committed baseline; fails on >25% ns/op regression,
# any allocs/op increase, or a baselined benchmark missing from the run.
# BENCH_TOLERANCE overrides the 25%.
bench-check:
	$(GO) test -run '^$$' -bench BenchmarkRun -benchtime 100x -benchmem -count 5 ./internal/sim > bench_check.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSweep$$|BenchmarkSweepResim$$|BenchmarkSweepPerPoint$$' -benchtime 20x -benchmem -count 5 . >> bench_check.txt
	$(GO) test -run '^$$' -bench BenchmarkSearchDriver -benchtime 20x -benchmem -count 5 ./internal/search >> bench_check.txt
	$(GO) test -run '^$$' -bench BenchmarkServeSimulate -benchtime 200x -benchmem -count 5 ./internal/serve >> bench_check.txt
	$(GO) test -run '^$$' -bench BenchmarkFabric -benchtime 5x -benchmem -count 5 ./internal/fabric >> bench_check.txt
	$(GO) test -run '^$$' -bench BenchmarkCacheRoundTrip -benchtime 20x -benchmem -count 5 ./internal/explore >> bench_check.txt
	$(GO) run ./scripts/benchcheck -baseline BENCH_baseline.json < bench_check.txt

# Re-measure the bench baseline on this machine (commit the result).
bench-baseline:
	$(GO) test -run '^$$' -bench BenchmarkRun -benchtime 100x -benchmem -count 5 ./internal/sim > bench_baseline.txt
	$(GO) test -run '^$$' -bench 'BenchmarkSweep$$|BenchmarkSweepResim$$|BenchmarkSweepPerPoint$$' -benchtime 20x -benchmem -count 5 . >> bench_baseline.txt
	$(GO) test -run '^$$' -bench BenchmarkSearchDriver -benchtime 20x -benchmem -count 5 ./internal/search >> bench_baseline.txt
	$(GO) test -run '^$$' -bench BenchmarkServeSimulate -benchtime 200x -benchmem -count 5 ./internal/serve >> bench_baseline.txt
	$(GO) test -run '^$$' -bench BenchmarkFabric -benchtime 5x -benchmem -count 5 ./internal/fabric >> bench_baseline.txt
	$(GO) test -run '^$$' -bench BenchmarkCacheRoundTrip -benchtime 20x -benchmem -count 5 ./internal/explore >> bench_baseline.txt
	$(GO) run ./scripts/benchcheck -update -baseline BENCH_baseline.json < bench_baseline.txt
	rm -f bench_baseline.txt

# Before/after CPU+heap profile delta for one named benchmark, run at a
# fixed 1000 iterations per repeat. The first run records the "before"
# profiles under .profdiff/ (do this on the base commit); the second, after
# applying the change, records "after" and prints `go tool pprof -top -cum
# -diff_base` tables for CPU and for alloc_space.
# Usage: make prof-diff PROF_BENCH=BenchmarkRunHEF PROF_PKG=./internal/sim
# Add PROF_RESET=1 to discard a stale "before" and start over.
PROF_BENCH ?= BenchmarkRunHEF
PROF_PKG ?= ./internal/sim
PROF_COUNT ?= 5
PROF_OUT = $(CURDIR)/.profdiff/$(PROF_BENCH)
prof-diff:
	@mkdir -p $(dir $(PROF_OUT))
	$(if $(PROF_RESET),rm -f $(PROF_OUT).*)
	@if [ -f $(PROF_OUT).before.cpu.pprof ]; then side=after; else side=before; fi; \
	$(GO) test -run '^$$' -bench '^$(PROF_BENCH)$$' -benchtime 1000x -count $(PROF_COUNT) -o $(PROF_OUT).$$side.test \
		-cpuprofile $(PROF_OUT).$$side.cpu.pprof -memprofile $(PROF_OUT).$$side.mem.pprof $(PROF_PKG) || exit 1; \
	if [ $$side = before ]; then \
		echo "recorded the before profiles of $(PROF_BENCH) under .profdiff/; apply the change and run again"; \
	else \
		$(GO) tool pprof -top -cum -nodecount 25 -diff_base $(PROF_OUT).before.cpu.pprof $(PROF_OUT).after.cpu.pprof && \
		$(GO) tool pprof -top -cum -nodecount 25 -sample_index alloc_space -diff_base $(PROF_OUT).before.mem.pprof $(PROF_OUT).after.mem.pprof; \
	fi

# Coverage floor gate (what the coverage CI job runs).
cover-check:
	$(GO) test -short -coverprofile=cover.out ./...
	$(GO) run ./scripts/covercheck -profile cover.out -floor 70

# Cross-check the compiled simulator against the reference interpreter:
# 1,500 generated (hardware, workload, system, ACs) triples, 540 generated
# scenario triples (multi-app merged ISAs, control-flow branch models,
# content-driven encodes), every shipped library scenario, and the full
# 140-frame H.264 trace under all six run-time systems. A divergence
# fails with a minimal shrunk reproducer (see EXPERIMENTS.md). The
# checkpoint corpora run too: trails served and extended at their recorded
# budget must match fresh runs field-exact, and other budgets are refused.
verify-oracle:
	$(GO) test -run 'TestCrossCheck|TestCheckpoint' -v ./internal/oracle

# Adaptive-search smoke (what the search-smoke CI job runs): every
# strategy gets a 30-point budget over a small real-simulator space, runs
# twice, and the two journals must be byte-identical; each journal must
# then replay clean (`risppexplore -replay` re-derives the Pareto front
# from the eval lines and compares byte-for-byte).
search-smoke:
	@rm -rf search_smoke && mkdir -p search_smoke
	@set -e; for s in random halving evolve; do \
		echo "== $$s =="; \
		$(GO) run ./cmd/risppexplore -sched HEF,Molen,ASF,software -acs 4-20 -frames 2 \
			-search $$s -budget 30 -seed 42 -journal search_smoke/$$s.jsonl -out /dev/null -summary=false; \
		$(GO) run ./cmd/risppexplore -sched HEF,Molen,ASF,software -acs 4-20 -frames 2 \
			-search $$s -budget 30 -seed 42 -journal search_smoke/$$s.2.jsonl -out /dev/null -summary=false; \
		cmp search_smoke/$$s.jsonl search_smoke/$$s.2.jsonl; \
		$(GO) run ./cmd/risppexplore -replay search_smoke/$$s.jsonl; \
	done
	@rm -rf search_smoke

# Multi-tenant load soak with SLO assertions (what the CI soak job runs):
# spawns risppserve in-process, drives the seeded two-tenant mix, fails on
# p99/shed/5xx/fairness violations. SOAK_PROFILE=long for the nightly one.
SOAK_PROFILE ?= quick
soak:
	$(GO) run ./cmd/risppload -profile $(SOAK_PROFILE) -report soak-report.json -pprof-dir soak-pprof

# Distributed-sweep smoke (what the CI fabric-smoke job runs): a 3-worker
# in-process fleet with one worker hard-killed mid-sweep; fails unless the
# merged stream is byte-identical to a single process and the warm re-run
# simulates zero points fleet-wide.
fabric-smoke:
	$(GO) run ./cmd/risppload -fleet -fleet-size 3 -report fleet-report.json

# The end-to-end benchmark is its own Go module (e2ebench/go.mod, which
# replaces rispp with this tree), so the root build and tests never compile
# it. This vets and tests it against the current tree (what the CI
# e2ebench-check job runs); `bash e2ebench/run.sh` runs the benchmark.
e2ebench-check:
	cd e2ebench && $(GO) vet ./... && $(GO) test ./...

# Native fuzzing beyond the committed seed corpora (testdata/fuzz/).
# FUZZTIME overrides the per-target budget.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzRunCompiled$$' -fuzztime $(FUZZTIME) ./internal/oracle
	$(GO) test -run '^$$' -fuzz '^FuzzServeSimulate$$' -fuzztime $(FUZZTIME) ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzScenarioDecode$$' -fuzztime $(FUZZTIME) ./internal/scenario

# Lint gate; needs golangci-lint on PATH (CI installs it via the action).
lint:
	golangci-lint run

# Non-test Go lines of the root module: the figure ROADMAP's line counts
# use. The separate e2ebench module and its build output are left out.
loc:
	@find . -name '*.go' ! -name '*_test.go' -not -path './e2ebench/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l

# Run the simulation service on :8264.
serve:
	$(GO) run ./cmd/risppserve

# Text + SVG renderings of all paper artifacts into ./figures.
figures:
	$(GO) run ./cmd/risppbench -svg figures | tee figures/report.txt

# The final artifacts the repository ships with.
verify:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -rf figures search_smoke test_output.txt bench_output.txt bench_check.txt bench_baseline.txt cover.out cpu.pprof mem.pprof .profdiff soak-report.json soak-pprof fleet-report.json
