#!/usr/bin/env bash
# grid_smoke.sh — determinism smoke test of concurrent single-core grids.
#
# Experiments declare their single-core runs as a grid, and the simulation
# service spreads each grid over GOMAXPROCS goroutines while reading the
# results (and emitting progress) in input order. The contract is that the
# reports are a pure function of the spec whatever the host scheduling.
# This script stresses that axis:
#
#   1. runs the seed-1 fig13,fig14 sweep with telemetry at GOMAXPROCS=1 —
#      every grid runs one cell at a time — and at the host's full
#      GOMAXPROCS, and requires the two JSON documents to be
#      byte-identical,
#   2. requires both to match the pinned digest results/metrics/baseline.json
#      byte-for-byte (regenerate with `make baseline` after an intentional
#      simulator change).
#
# Needs: go. jq is used for nicer diagnostics when present.
set -euo pipefail
cd "$(dirname "$0")/.."

workdir=$(mktemp -d)
cleanup() { rm -rf "$workdir"; }
trap cleanup EXIT

fail() {
    echo "grid-smoke: FAIL: $*" >&2
    exit 1
}

go build -o "$workdir/mallacc-bench" ./cmd/mallacc-bench

echo "grid-smoke: run at GOMAXPROCS=1"
GOMAXPROCS=1 "$workdir/mallacc-bench" -run fig13,fig14 -metrics -format json -seed 1 \
    > "$workdir/p1.json"
echo "grid-smoke: run at host GOMAXPROCS"
"$workdir/mallacc-bench" -run fig13,fig14 -metrics -format json -seed 1 \
    > "$workdir/pn.json"

cmp -s "$workdir/p1.json" "$workdir/pn.json" \
    || fail "GOMAXPROCS=1 and full-width runs differ (grid nondeterminism)"
echo "grid-smoke: reports byte-identical across GOMAXPROCS ($(wc -c <"$workdir/p1.json") bytes)"

pinned=results/metrics/baseline.json
[ -f "$pinned" ] || fail "no pinned digest at $pinned (run 'make baseline' to create it)"
if ! cmp -s "$workdir/p1.json" "$pinned"; then
    if command -v jq >/dev/null 2>&1; then
        diff <(jq -S . "$pinned") <(jq -S . "$workdir/p1.json") | head -40 >&2 || true
    fi
    fail "report drifted from pinned $pinned (regenerate with 'make baseline' if intentional)"
fi
echo "grid-smoke: matches pinned $pinned"
echo "grid-smoke: PASS"
