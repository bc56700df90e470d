#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from the
# checkout's sources and runs it, keeping Go's build cache and every output
# inside the checkout (.bench_build/, git-ignored). Arguments pass through:
#   bash bench/run.sh --workload short_read --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")"
build="$PWD/../.bench_build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
