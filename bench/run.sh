#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source and
# runs it from the repository root. Everything the Go toolchain and the
# programs under test write (build cache, binaries, temp files, generated
# graphs, the go command's own telemetry counters) stays under .bench_build/
# inside the checkout.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD
mkdir -p "$root/.bench_build/tmp"
export GOCACHE="$root/.bench_build/gocache"
export TMPDIR="$root/.bench_build/tmp"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local

go build -C bench -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
