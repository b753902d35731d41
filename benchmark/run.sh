#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark program from
# source into .bench_build/ at the root of the checkout (Go's build cache
# lives there too, so nothing outside the checkout is written) and runs
# it from the root with the caller's arguments. The program builds
# ./cmd/gpmd itself.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p .bench_build
export GOCACHE="$root/.bench_build/gocache" GOTOOLCHAIN=local
go build -C benchmark -o "$root/.bench_build/gpmdbench" .
exec "$root/.bench_build/gpmdbench" "$@"
