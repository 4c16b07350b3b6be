#!/usr/bin/env bash
# Builds the tree under test and the benchmark into .bench_build,
# then runs one workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload cold-ptx --seed 1 --seconds 15 --trace 0
#
# Every build output, the Go build cache and temporary files stay inside
# .bench_build, so the run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOPROXY=off
export XDG_CONFIG_HOME="$build/config"
# With telemetry on (the default, "local"), the go command forks a detached
# upload process that outlives the build; turning it off keeps the run from
# leaving any process behind.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/bin/" ./cmd/cnnperf ./cmd/cnnperfd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" --bin "$build/bin" "$@"
