#!/usr/bin/env bash
# A/A check: runs every workload 10 times (seeds 1..10), twice over on
# this tree, prints both medians, both spreads and the gap per workload
# and end-to-end metric, and exits non-zero when one exceeds the
# metric's bound in BENCHMARK.json. About 35 minutes; pass a smaller
# run count to rehearse:  bash benchmark/aa.sh 3
set -euo pipefail
exec bash "$(dirname "$0")/run.sh" --aa "${1:-10}"
