#!/bin/sh
# Builds the benchmark from source inside the checkout and runs it from the
# checkout's root, so BENCHMARK.json's command is `bash benchmark/run.sh`.
# Everything the build and the run write — Go's build cache, its temporary
# files, the benchmark binary, lakes and WALs — goes under .bench_build/ in
# the checkout.
set -eu
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"

cd "$here"
HOME="$build/home" GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-buildvcs=false GOENV=off GOTOOLCHAIN=local \
	go build -o "$build/seagull-benchmark" .

cd "$root"
BENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown)
export BENCH_COMMIT
TMPDIR="$build/tmp" exec "$build/seagull-benchmark" -work "$build/work" "$@"
