#!/usr/bin/env bash
# Builds elephantd and the benchmark program from this checkout's source,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload hot-link --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the repository. Every build and run artifact
# stays under .bench_build/ in that root, including the Go build cache.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off
export GOTELEMETRY=off

go build -o "$build/elephantd" ./cmd/elephantd
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" -elephantd "$build/elephantd" -out "$build/perfbench-out" "$@"
