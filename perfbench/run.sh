#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare PARENT_RUNS CHANGE_RUNS
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, run records and traces.
# Without the repository's sources next to perfbench/ the build fails and the
# script exits non-zero.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
