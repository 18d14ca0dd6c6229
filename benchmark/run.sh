#!/usr/bin/env bash
# The entry point BENCHMARK.json names. It builds the benchmark from
# source and runs it with the driver's arguments, keeping everything the
# go toolchain writes (build cache, its own config and counters) inside
# the checkout under .bench_build/ — the driver's checkout may be the
# only directory the run is allowed to touch. `go run ./benchmark` from
# anywhere in the repository does the same with the user's own go cache.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Beside benchmark/ there must be the program it measures; without it
# (or inside some other module's tree) there is nothing to report.
if [[ ! -f go.mod || ! -d cmd/ipa ]]; then
	echo "benchmark/run.sh: $PWD is not a checkout of the repository (no go.mod or cmd/ipa)" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local
go build -o "$build/bin/benchmark" ./benchmark
exec "$build/bin/benchmark" "$@"
