#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside
# the checkout, then become it (exec), so that the caller's child is the one
# benchmark process and nothing is left behind it.
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "$0")/.."

# Everything the go tool writes stays under .bench_build in the checkout:
# build cache, temporary files, module path, and its configuration directory.
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
# In its default "local" mode the go tool may start a telemetry sidecar that
# outlives the build; with the mode file saying "off" it starts none and
# writes no counters.
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/lumos-bench" ./bench
exec "$build/lumos-bench" "$@"
