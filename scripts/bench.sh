#!/usr/bin/env bash
# CI bench-regression guard: replay the capacity scenario matrix at a
# short window and fail when throughput collapses or allocations blow up
# versus the committed BENCH_hotpath.json.
#
# Thresholds (overridable via env): throughput may not fall below
# TPUT_FLOOR of the committed baseline — deliberately loose, CI machines
# differ wildly from the one that wrote the baseline — while allocs/op,
# which is deterministic per build, may not exceed ALLOC_CEIL times the
# baseline. Refresh the baseline after an intentional perf change with:
#   go run ./cmd/hyrec-bench -exp capacity -window 1s -bench-out BENCH_hotpath.json
#
# On top of the ratio bounds, ALLOC_CAPS pins absolute allocs/op
# ceilings on the rows the perf work guards hardest: the kernel row must
# stay allocation-free, the serving hot path must stay pooled, and the
# replicated ingest row must keep shipping rating deltas (it cost 1031
# allocs/op while every dirtied user's whole state was re-exported on
# the ack path; ~150 since). These do not loosen when the baseline is
# refreshed.
#
# Baseline keys: one row per (scenario, service, mode) — the engine
# matrix (rate-heavy, job-worker-heavy, mixed-churn), the raw
# similarity-kernel row (knn-kernel/core: ops are candidate scores
# through SelectKNNInto, no server in the way), the parallel-scaling
# row (job-worker-heavy/engine-w4: the same serving workload at 4
# closed-loop workers regardless of the report's top-level worker
# count — floors its window at 1s so per-worker startup allocations
# amortize out of allocs/op), the cluster serving row
# (job-worker-heavy/cluster-4), the
# elastic-topology row
# (rebalance/cluster-2x4: ops are users *moved* by live 2↔4 scale
# cycles, throughput is users-moved/sec, latency is per-moved-user),
# the WebSocket worker row (job-ws/engine-ws: ops are completed
# push→compute→result cycles over persistent sockets), the fleet row
# (fleet-churn/engine-fleet: ops are jobs completed by a churny
# deterministic fleet, latency is per-convergence-cycle — this scenario
# floors its window at 1s so short CI windows still amortize cycle
# variance), the wire rows, and the adversarial overload row
# (rate-under-read-flood/engine-wire: rating ingest measured while a
# 10x paced read flood is being shed by the admission gate — its
# shed_total must stay non-zero, Compare fails a build whose gate stops
# engaging under the same flood, and the allocs/op ceiling is skipped
# for it since the flood's own allocations land in the process-wide
# counters). Compare fails when a baseline row goes unmeasured or a
# measured row is missing from the baseline, so adding a scenario means
# refreshing BENCH_hotpath.json with the command above.
set -euo pipefail
cd "$(dirname "$0")/.."

WINDOW="${WINDOW:-250ms}"
TPUT_FLOOR="${TPUT_FLOOR:-0.20}"
ALLOC_CEIL="${ALLOC_CEIL:-1.5}"
# Absolute ceilings (allocs/op is deterministic per build): the kernel
# row stays allocation-free, the serving hot path stays pooled, the
# replica leg stays on the delta stream.
ALLOC_CAPS="${ALLOC_CAPS:-knn-kernel/core/inproc=0.5,job-worker-heavy/engine/inproc=30,rate-node-framed/node-2-framed/framed=250}"

# Replay under the baseline's recorded workload configuration — per-op
# numbers are only commensurate at matching concurrency, population and
# seed (Compare refuses mismatches). Only the window may differ.
field() { sed -n "s/^  \"$1\": \([0-9-]*\),*/\1/p" BENCH_hotpath.json | head -1; }
WORKERS="$(field workers)"
USERS="$(field users)"
SEED="$(field seed)"

go run ./cmd/hyrec-bench -exp capacity -window "$WINDOW" \
  -bench-workers "$WORKERS" -bench-users "$USERS" -seed "$SEED" \
  -bench-baseline BENCH_hotpath.json \
  -bench-tolerance "$TPUT_FLOOR" \
  -bench-allocs-tolerance "$ALLOC_CEIL" \
  -bench-allocs-cap "$ALLOC_CAPS"
