#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root; the build cache, the Go configuration
# and the binary stay under .bench_build/ there.
#
#   bash bench/run.sh --workload cli-apb1 --seed 1 --seconds 20 --trace 0
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
go -C bench build -o "$build/warlock-bench" .
exec "$build/warlock-bench" "$@"
