#!/usr/bin/env bash
# Short-fuzz smoke: give every native Go fuzzer a small time budget so a
# decoder panic or round-trip divergence fails CI fast. Longer local runs:
#   FUZZTIME=2m ./scripts/fuzz.sh
set -euo pipefail
cd "$(dirname "$0")/.."

FUZZTIME="${FUZZTIME:-10s}"

run() {
  local pkg="$1" target="$2"
  echo "--- fuzz $target ($pkg, $FUZZTIME)"
  go test -run xxx -fuzz "^${target}\$" -fuzztime "$FUZZTIME" "$pkg"
}

run ./internal/core FuzzSimilarityKernelEquivalence
run ./internal/core FuzzWithRatings
run ./internal/core FuzzItemAliasRoundTrip
run ./internal/wire FuzzDecodeRateBatch
run ./internal/wire FuzzDecodeResult
run ./internal/wire FuzzDecodeAck
run ./internal/wire FuzzDecodeJob
run ./internal/wire FuzzJobRoundTrip
run ./internal/wire FuzzDecodeWSClientMsg
run ./internal/wire FuzzDecodeNodeMap
run ./internal/wire FuzzDecodeReplBatch
run ./internal/persist FuzzSnapshotDecode
run ./internal/ws FuzzDecodeWSFrame
run ./internal/frame FuzzDecodeFrame
run ./internal/frame FuzzDecodeHello
run ./internal/frame FuzzDecodeError
run ./internal/frame FuzzDecodeRateBatch
run ./internal/frame FuzzDecodeAckBatch
run ./internal/frame FuzzDecodeReplBatch
run ./internal/frame FuzzDecodeU32s

echo "all fuzzers clean"
