#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of a checkout of the repository:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 35 --trace 0
#
# Everything it builds and writes stays under .bench_build/ in the checkout:
# the Go build cache, the binary, work directories and result records.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
    echo "perfbench: run from the root of a repository checkout" >&2
    exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's local telemetry in the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
    GOMODCACHE="$out/gopath/pkg/mod" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
    XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --root "$root" "$@"
