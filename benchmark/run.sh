#!/usr/bin/env bash
# Builds the two server binaries and the benchmark, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash benchmark/run.sh --workload cycle-http-ml1 --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under benchmark/out/,
# the Go build cache included, so a checkout is only ever touched there.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/benchmark/out"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0
go build -o "$out/bin/" ./cmd/hyrec-server ./cmd/hyrec-node
go -C benchmark build -o "$out/bin/hyrec-benchmark" .
exec "$out/bin/hyrec-benchmark" "$@"
