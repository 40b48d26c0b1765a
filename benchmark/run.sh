#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout (build cache included, so nothing
# is written outside the checkout) and runs it with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go build -C "$here" -o "$build/vb-benchmark" .
exec "$build/vb-benchmark" -outdir "$here/out" "$@"
