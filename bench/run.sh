#!/usr/bin/env bash
# Builds the serving stack and the benchmark from source, then runs the
# benchmark. Run it from the repository root:
#
#   bash bench/run.sh --workload burst-20 --seed 1 --seconds 24 --trace 0
#
# Every file the Go toolchain and the benchmark write lands under
# .bench_build or bench/out.
set -euo pipefail

mkdir -p .bench_build/tmp .bench_build/config/go/telemetry
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on (the default, "local"), the go command starts a detached
# telemetry process once a day per config dir, which would outlive this
# script. The mode file is what the go command reads; "off" starts nothing.
echo off >"$build/config/go/telemetry/mode"

go build -o "$build/bin/" ./cmd/ppm-validate ./cmd/ppm-serve ./cmd/ppm-gateway
go -C bench build -o "$build/bin/serving-bench" .
exec "$build/bin/serving-bench" --bin "$build/bin" "$@"
