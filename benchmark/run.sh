#!/usr/bin/env bash
# Builds the benchmark inside the checkout (binary and Go build cache
# under .bench_build/, nothing outside it) and runs it from benchmark/
# with the arguments given. The first call in a fresh checkout compiles
# the standard library too; later calls reuse the cache.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
cd "$here"
go build -o "$build/trainbox-benchmark" .
exec "$build/trainbox-benchmark" "$@"
