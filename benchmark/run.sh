#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the build and the run write (Go build cache, binary, WAL directories,
# traces) stays under the checkout: .bench_build/ and benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0
go build -C benchmark -o "$build/qracn-benchmark" .
exec "$build/qracn-benchmark" "$@"
