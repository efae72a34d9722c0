#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Everything the
# build and the run write stays under .bench_build/ at the root of the
# checkout (Go's build cache and temporary files included), so a run
# touches nothing outside the checkout.
#
#   bash benchmark/run.sh --workload finetune_cached --seed 1 --seconds 20 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$build/pacbench" .) >&2
cd "$root"
exec "$build/pacbench" "$@"
