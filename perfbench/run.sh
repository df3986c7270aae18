#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in and
# runs it with the given flags. Run from the repository root:
#
#   bash perfbench/run.sh --workload loop-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C "$root/perfbench" -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" --out "$out" "$@"
