#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh [-seed S] [-reps 5] [-trace]
#   bash bench/run.sh -workload W -seed S -seconds T -trace 0|1
#
# The Go build cache, temporary files, the go command's own config and
# telemetry, and the binary live in .bench_build at the repository root,
# so a run reads and writes only inside the checkout and never downloads
# anything.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
go build -C bench -o "$build/bench" .
exec "$build/bench" "$@"
