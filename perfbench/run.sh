#!/usr/bin/env bash
# Builds the benchmark from the source of the checkout it sits in, then runs
# it with the given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload nomad-cact --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache go to $CARGO_TARGET_DIR (default
# .bench_build) under the checkout, so nothing is written outside it. The
# build needs only the Go toolchain: the module has no dependencies beyond
# the simulator, which it takes from the checkout.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

# The go command keeps its cache, module cache, temporary files and
# telemetry counters (under the user config directory) here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off

go -C "$bench_dir" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
