#!/usr/bin/env bash
# Builds and runs the fedschedd benchmark from the repository root:
#
#   bash bench/run.sh --workload warm-low --seed 1 --seconds 16 --trace 0
#
# Arguments go to bench/fedbench unchanged (see its package comment). The Go
# build cache and every file a run writes stay under .bench_build/ in the
# checkout, and the module proxy is off, so a run reaches no network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

(cd bench && go build -o "$out/bin/fedbench" ./fedbench)
exec "$out/bin/fedbench" -root "$root" "$@"
