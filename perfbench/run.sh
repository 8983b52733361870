#!/usr/bin/env bash
# Builds the CARD benchmark harness from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload groups-1k-maintain --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, Go cache and trace
# file stays under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/cardbench" .)
exec "$out/cardbench" "$@"
