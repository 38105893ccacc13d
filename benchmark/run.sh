#!/usr/bin/env bash
# Builds the benchmark from the checkout this script lives in and runs it
# with the arguments given. Everything the build writes — compiler cache,
# temporary files, the binary — stays under .bench_build in that checkout;
# nothing is downloaded.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPROXY=off GOTOOLCHAIN=local
cd "$root"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
