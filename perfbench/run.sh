#!/usr/bin/env bash
# Builds the perfbench benchmark and the memverifyd server from the source
# tree it sits in, then runs one benchmark workload. Run it from the
# repository root:
#
#   bash perfbench/run.sh --workload relay-1m --seed 1 --seconds 20 --trace 0
#
# Build outputs and Go caches go under .bench_build (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the tree.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/tmp" "$out/spans"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0

go -C "$root/perfbench" build -o "$out/bin/perfbench" .
go -C "$root/perfbench" build -o "$out/bin/memverifyd" memverify/cmd/memverifyd

exec "$out/bin/perfbench" --memverifyd "$out/bin/memverifyd" --spans "$out/spans" "$@"
