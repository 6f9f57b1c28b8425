#!/usr/bin/env bash
# Builds the benchmark from the source tree this script sits in and runs it
# with the given arguments. BENCHMARK.json names this script as the driver's
# command. The Go build cache, temporary files and the binary stay inside
# the checkout, under .bench_build/; the first run in a checkout compiles the
# standard library into that cache.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/pressio-benchmark" ./benchmark
exec "$build/pressio-benchmark" "$@"
