#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
#
#   bash bench/run.sh --workload fit-5gc --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write (binary, Go build cache, temp files,
# span dumps) stays under .bench_build/ at the repository root.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
