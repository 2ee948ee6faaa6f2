#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout and runs it, passing
# every argument through (see main.go for the flags). Run it from the root of
# the checkout; build output, caches and run scratch stay in .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
