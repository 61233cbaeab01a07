#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
# Run from the root of a checkout:
#
#   bash benchmark/run.sh --workload logd-append --seed 1 --seconds 36 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: the Go build cache, the binary, the logd store directories and
# the trace files.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/benchmark/go.mod" ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (go.mod not found in $root)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/gotmp"

# The build writes inside the checkout — the go command's usage counters
# too, which follow XDG_CONFIG_HOME — and never reaches for the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPROXY=off GOTOOLCHAIN=local

XDG_CONFIG_HOME="$build/config" go build -C "$root/benchmark" -o "$build/totem-benchmark" .
exec "$build/totem-benchmark" -dir "$build" "$@"
