#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it is
# called from, then runs it with the arguments given. The Go build cache and
# temp files are kept under .bench_build/ too, so that nothing is written
# outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOWORK=off

go build -C "$root/benchmark" -o "$out/saccs-benchmark" .
cd "$root"
exec "$out/saccs-benchmark" -workdir "$out" "$@"
