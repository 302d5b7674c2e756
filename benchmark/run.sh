#!/usr/bin/env bash
# The driver's entry point (BENCHMARK.json "command"): build the benchmark
# from source into .bench_build/ of the checkout it is run from, then run it
# with the arguments given. Go's build cache, temporary files and module
# path are pointed inside the checkout too, so nothing is written outside it.
# `go run ./benchmark` does the same for a person, with the user's own cache.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS=-buildvcs=false
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
