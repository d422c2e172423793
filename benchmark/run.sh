#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it, passing
# every argument through:
#
#   bash benchmark/run.sh --workload paper-batch --seed 1 --seconds 20 --trace 0
#
# The Go toolchain's caches and the binary live under .bench_build/ at the
# checkout root, so a run reads and writes nothing outside the checkout,
# and the toolchain never reaches the network.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off

(cd "$root/benchmark" && go build -o "$out/vprobe-benchmark" .)
cd "$root"
exec "$out/vprobe-benchmark" "$@"
