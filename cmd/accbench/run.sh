#!/usr/bin/env bash
# Builds accbench from the checkout's sources and runs it with the given
# arguments, from the root of the checkout:
#
#   bash cmd/accbench/run.sh --workload suite --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache, temporary files and the benchmark's
# result stores all stay under .bench_build in the checkout, and the Go
# toolchain is kept local and offline.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/accbench" ./cmd/accbench
exec "$build/accbench" -workdir "$build/work" "$@"
