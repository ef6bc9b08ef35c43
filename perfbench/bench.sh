#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#
#   bash perfbench/bench.sh --workload geolife-inference --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (binary, Go build cache, Go telemetry) stays under
# .bench_build/ in the checkout, and no module is ever fetched.
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
