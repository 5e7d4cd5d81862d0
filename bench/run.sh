#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash bench/run.sh -seed 1 -o results.json
#   bash bench/run.sh --workload fleet --seed 2 --seconds 20 --trace 0
#   bash bench/run.sh -compare ../parent -seed 1   # parent checkout vs this one
#
# Run it from the repository root. The binary, the Go build cache and every
# run's scratch files stay under .bench_build/ in the repository.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench: run from the repository root (go.mod and bench/go.mod not found in $root)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=

(cd "$root/bench" && go build -o "$build/borgbench" .)
exec "$build/borgbench" "$@"
