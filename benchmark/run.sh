#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload fig7-grid --seed 1 --seconds 30 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in
# the repository root: the Go build cache, temporary files, the benchmark
# and its start-up reference (startref/), and the work directory with
# profiles, span traces and test binaries.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local

(cd benchmark && go build -o "$build/hpmmap-benchmark" . && go build -o "$build/hpmmap-startref" ./startref) >&2
exec "$build/hpmmap-benchmark" "$@"
