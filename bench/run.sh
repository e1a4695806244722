#!/bin/bash
# The BENCHMARK.json entry point: build the benchmark (and, from inside
# it, the programs under test) into .bench_build/ of the checkout, then
# make one run.
#
#   bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-modcacherw
(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" contract -root "$root" "$@"
