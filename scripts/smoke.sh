#!/usr/bin/env bash
# Smoke test: build every binary, boot a real hyrec-server, drive it for
# ~2 seconds through the typed client (hyrec-widget) and the raw /v1
# endpoints, and fail fast on any protocol regression.
set -euo pipefail

cd "$(dirname "$0")/.."
BIN="$(mktemp -d)"
trap 'kill ${SERVER_PID:-} ${SHED_PID:-} ${SCHED_PID:-} ${SNAP_PID:-} ${SCALE_PID:-} ${FLEET_PID:-} ${NODE1_PID:-} ${NODE2_PID:-} ${NODE3_PID:-} 2>/dev/null || true; rm -rf "$BIN"' EXIT

echo "--- building all cmd/ and examples/ binaries"
go build -o "$BIN/" ./cmd/...
for ex in examples/*/; do
  go build -o "$BIN/example-$(basename "$ex")" "./$ex"
done

ADDR="127.0.0.1:18080"
BASE="http://$ADDR"

FRAME_ADDR="127.0.0.1:18090"
DEBUG_ADDR="127.0.0.1:18099"
echo "--- starting hyrec-server on $ADDR (framed listener on $FRAME_ADDR, pprof on $DEBUG_ADDR)"
"$BIN/hyrec-server" -addr "$ADDR" -partitions 2 -rotate 0 -frame-addr "$FRAME_ADDR" -debug-addr "$DEBUG_ADDR" &
SERVER_PID=$!

for i in $(seq 1 50); do
  if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 $SERVER_PID 2>/dev/null; then
    echo "server died during startup" >&2; exit 1
  fi
  sleep 0.1
done
curl -fsS "$BASE/healthz" >/dev/null

echo "--- pprof answers on the debug address only"
curl -fsS "http://$DEBUG_ADDR/debug/pprof/" | grep -q 'goroutine' \
  || { echo "/debug/pprof/ does not answer on -debug-addr" >&2; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/debug/pprof/")
[ "$CODE" = "404" ] || { echo "public address serves /debug/pprof/ ($CODE, want 404)" >&2; exit 1; }

echo "--- driving the full widget loop through the typed client"
"$BIN/hyrec-widget" -server "$BASE" -users 20 -requests 3

echo "--- framed transport: widget loop + worker over the binary listener"
# The same loop upgraded onto the framed lane: rate batches, job
# fetches, results and acks ride one multiplexed binary connection.
"$BIN/hyrec-widget" -server "$BASE" -framed "$FRAME_ADDR" -users 20 -requests 2
# A framed pull-worker drains whatever staleness the loops left behind.
"$BIN/hyrec-widget" -server "$BASE" -framed "$FRAME_ADDR" -worker 1 -work-duration 2s
STATS=$(curl -fsS "$BASE/stats")
# The framed listener must have seen connections and moved real bytes.
echo "$STATS" | grep -Eq '"frame_conns":[0-9]' \
  || { echo "/stats missing framed-transport gauges: $STATS" >&2; exit 1; }
echo "$STATS" | grep -Eq '"frame_bytes_total":[1-9]' \
  || { echo "framed listener moved no bytes: $STATS" >&2; exit 1; }
curl -fsS "$BASE/metrics" | grep -q '^hyrec_frame_bytes_total [1-9]' \
  || { echo "/metrics shows no framed bytes" >&2; exit 1; }

echo "--- checking the /v1 protocol surface"
# Batch rate.
ACCEPTED=$(curl -fsS -X POST "$BASE/v1/rate" -H 'Content-Type: application/json' \
  -d '{"ratings":[{"uid":1,"item":5,"liked":true},{"uid":2,"item":5,"liked":true}]}')
echo "$ACCEPTED" | grep -q '"accepted":2' || { echo "bad /v1/rate response: $ACCEPTED" >&2; exit 1; }
# A job is job format 3, bare: its first byte is the format byte 0x03,
# and it is not gzip even when the client offers gzip.
curl -fsS -H 'Accept-Encoding: gzip' -D "$BIN/job.headers" -o "$BIN/job.bin" "$BASE/v1/job?uid=1"
FIRST=$(head -c 1 "$BIN/job.bin" | od -An -tx1 | tr -d ' ')
[ "$FIRST" = "03" ] || { echo "/v1/job body opens with byte $FIRST, want 03 (job format 3)" >&2; exit 1; }
if grep -qi '^content-encoding:' "$BIN/job.headers" || [ "$(head -c 2 "$BIN/job.bin" | od -An -tx1 | tr -d ' ')" = "1f8b" ]; then
  echo "/v1/job answered gzip; a job is served bare" >&2; exit 1
fi
# Recs and neighbors answer.
curl -fsS "$BASE/v1/recs?uid=1" | grep -q '"recs"'
curl -fsS "$BASE/v1/neighbors?uid=1" | grep -q '"neighbors"'
# Error envelope shape.
ENV=$(curl -sS "$BASE/v1/recs")
echo "$ENV" | grep -q '"code":"bad_request"' || { echo "bad error envelope: $ENV" >&2; exit 1; }
# Legacy Table-1 adapters, driven as a browser widget would: an
# anonymous /online mints the hyrec_uid cookie and ships a gzip job (a
# gzipped job format 3 body, first byte 0x03), the rating posts back as a
# 204, and recommendations are a JSON array.
curl -fsS -c "$BIN/cookies.txt" -o "$BIN/online.gz" "$BASE/online"
LEGACY_UID=$(awk '$6 == "hyrec_uid" {print $7}' "$BIN/cookies.txt")
[ -n "$LEGACY_UID" ] || { echo "anonymous /online set no hyrec_uid cookie" >&2; exit 1; }
gunzip -c "$BIN/online.gz" > "$BIN/online.bin" || { echo "/online body is not gzip" >&2; exit 1; }
FIRST=$(head -c 1 "$BIN/online.bin" | od -An -tx1 | tr -d ' ')
[ "$FIRST" = "03" ] || { echo "/online body is not a gzipped format-3 job (first inflated byte $FIRST)" >&2; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$BASE/rate?uid=$LEGACY_UID&item=5&liked=true")
[ "$CODE" = "204" ] || { echo "legacy POST /rate answered $CODE, want 204" >&2; exit 1; }
RECS=$(curl -fsS "$BASE/recommendations?uid=$LEGACY_UID")
echo "$RECS" | grep -q '^\[' || { echo "legacy /recommendations is not a JSON array: $RECS" >&2; exit 1; }
# A route's wrong method answers the typed 405.
RESP=$(curl -s -w '%{http_code}' "$BASE/v1/ack")
[ "${RESP: -3}" = "405" ] && echo "$RESP" | grep -q '"code":"method_not_allowed"' \
  || { echo "GET /v1/ack did not answer the typed 405: $RESP" >&2; exit 1; }
curl -fsS "$BASE/stats" | grep -q '"users"'

echo "--- graceful shutdown"
kill -TERM $SERVER_PID
wait $SERVER_PID

echo "--- admission control: a saturated worker class sheds with a typed 429"
SHED_ADDR="127.0.0.1:18088"
SHED_BASE="http://$SHED_ADDR"
"$BIN/hyrec-server" -addr "$SHED_ADDR" -rotate 0 \
  -max-inflight-worker 1 -lease-ttl 60s &
SHED_PID=$!
for i in $(seq 1 50); do
  if curl -fsS "$SHED_BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 $SHED_PID 2>/dev/null; then
    echo "shed server died during startup" >&2; exit 1
  fi
  sleep 0.1
done

# Seed one stale user and lease its job out (never acked, 60s TTL): the
# queue is now empty, so the next long-poll parks — holding the only
# worker admission slot for its whole wait window.
curl -fsS -X POST "$SHED_BASE/v1/rate" -H 'Content-Type: application/json' \
  -d '{"ratings":[{"uid":1,"item":2,"liked":true}]}' >/dev/null
for i in $(seq 1 20); do
  CODE=$(curl -s -o /dev/null -w '%{http_code}' "$SHED_BASE/v1/job?worker=1")
  [ "$CODE" = "204" ] && break
done
curl -s "$SHED_BASE/v1/job?worker=1&wait=10s" >/dev/null &
PARKED_PID=$!
for i in $(seq 1 50); do
  if curl -fsS "$SHED_BASE/stats" | grep -q '"inflight_worker":1'; then break; fi
  sleep 0.1
done

# The second poll must shed, not queue: 429 status, Retry-After header,
# and the typed overloaded error envelope.
RESP=$(curl -s -D - "$SHED_BASE/v1/job?worker=1")
echo "$RESP" | grep -q ' 429 ' || { echo "saturated worker poll was not shed: $RESP" >&2; exit 1; }
echo "$RESP" | grep -qi '^Retry-After:' || { echo "shed response missing Retry-After: $RESP" >&2; exit 1; }
echo "$RESP" | grep -q '"code":"overloaded"' || { echo "shed envelope not typed overloaded: $RESP" >&2; exit 1; }
curl -fsS "$SHED_BASE/stats" | grep -Eq '"shed_total":[1-9]' \
  || { echo "/stats shed_total never moved" >&2; exit 1; }
curl -fsS "$SHED_BASE/metrics" | grep -q '^hyrec_shed_total [1-9]' \
  || { echo "/metrics missing shed counter" >&2; exit 1; }

kill $PARKED_PID 2>/dev/null || true
wait $PARKED_PID 2>/dev/null || true
kill -TERM $SHED_PID
wait $SHED_PID

echo "--- async scheduler: churny worker abandons a lease, server re-issues or falls back"
SCHED_ADDR="127.0.0.1:18081"
SCHED_BASE="http://$SCHED_ADDR"
"$BIN/hyrec-server" -addr "$SCHED_ADDR" -rotate 0 \
  -lease-ttl 2s -lease-retries 1 -fallback-workers 2 &
SCHED_PID=$!
for i in $(seq 1 50); do
  if curl -fsS "$SCHED_BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 $SCHED_PID 2>/dev/null; then
    echo "scheduler server died during startup" >&2; exit 1
  fi
  sleep 0.1
done

# Seed staleness: ratings enqueue KNN refreshes for three users.
curl -fsS -X POST "$SCHED_BASE/v1/rate" -H 'Content-Type: application/json' \
  -d '{"ratings":[{"uid":1,"item":3,"liked":true},{"uid":2,"item":3,"liked":true},{"uid":3,"item":4,"liked":true}]}' >/dev/null

# A fully churny worker leases jobs and abandons every one of them
# (politely, via /v1/ack done=false).
"$BIN/hyrec-widget" -server "$SCHED_BASE" -worker 1 -abandon 1 -work-duration 1s

STATS=$(curl -fsS "$SCHED_BASE/stats")
echo "$STATS" | grep -Eq '"sched_(reissued|fallback_runs)":[1-9]' \
  || { echo "abandoned lease neither re-issued nor absorbed by fallback: $STATS" >&2; exit 1; }

# A steady worker fleet (plus the fallback pool) drains the backlog.
"$BIN/hyrec-widget" -server "$SCHED_BASE" -worker 2 -work-duration 2s
STATS=$(curl -fsS "$SCHED_BASE/stats")
echo "$STATS" | grep -Eq '"sched_acked":[1-9]|"sched_fallback_runs":[1-9]' \
  || { echo "no job ever completed under the scheduler: $STATS" >&2; exit 1; }
echo "$STATS" | grep -Eq '"sched_pending":0' \
  || { echo "staleness queue not drained: $STATS" >&2; exit 1; }
echo "$STATS" | grep -Eq '"sched_fallback_queued":0' \
  || { echo "fallback backlog not drained: $STATS" >&2; exit 1; }

kill -TERM $SCHED_PID
wait $SCHED_PID

echo "--- cluster snapshots: a churned 2-partition cluster survives a restart"
SNAP_ADDR="127.0.0.1:18082"
SNAP_BASE="http://$SNAP_ADDR"
SNAP_FILE="$BIN/cluster-state.snap"
"$BIN/hyrec-server" -addr "$SNAP_ADDR" -partitions 2 -rotate 0 -snapshot "$SNAP_FILE" &
SNAP_PID=$!
for i in $(seq 1 50); do
  if curl -fsS "$SNAP_BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 $SNAP_PID 2>/dev/null; then
    echo "snapshot server died during startup" >&2; exit 1
  fi
  sleep 0.1
done

# Churn: ratings plus full widget cycles populate both partitions' tables.
"$BIN/hyrec-widget" -server "$SNAP_BASE" -users 20 -requests 2
USERS_BEFORE=$(curl -fsS "$SNAP_BASE/stats" | sed -n 's/.*"users":\([0-9]*\).*/\1/p')
[ "$USERS_BEFORE" -gt 0 ] || { echo "no users before restart" >&2; exit 1; }

# Graceful shutdown writes one frame per partition.
kill -TERM $SNAP_PID
wait $SNAP_PID
for p in 0 1; do
  [ -f "$SNAP_FILE.p$p" ] || { echo "missing partition frame $SNAP_FILE.p$p" >&2; exit 1; }
done

# Restart restores both partitions.
"$BIN/hyrec-server" -addr "$SNAP_ADDR" -partitions 2 -rotate 0 -snapshot "$SNAP_FILE" &
SNAP_PID=$!
for i in $(seq 1 50); do
  if curl -fsS "$SNAP_BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 $SNAP_PID 2>/dev/null; then
    echo "snapshot server died on restart" >&2; exit 1
  fi
  sleep 0.1
done
USERS_AFTER=$(curl -fsS "$SNAP_BASE/stats" | sed -n 's/.*"users":\([0-9]*\).*/\1/p')
KNN_AFTER=$(curl -fsS "$SNAP_BASE/stats" | sed -n 's/.*"knn_entries":\([0-9]*\).*/\1/p')
[ "$USERS_AFTER" = "$USERS_BEFORE" ] \
  || { echo "population changed across restart: $USERS_BEFORE -> $USERS_AFTER" >&2; exit 1; }
[ "$KNN_AFTER" -gt 0 ] || { echo "KNN tables empty after restart" >&2; exit 1; }
kill -TERM $SNAP_PID
wait $SNAP_PID

echo "--- elastic topology: live 2→4 scale-out under traffic (SIGHUP)"
SCALE_ADDR="127.0.0.1:18083"
SCALE_BASE="http://$SCALE_ADDR"
"$BIN/hyrec-server" -addr "$SCALE_ADDR" -partitions 2 -scale 4 -rotate 0 \
  -lease-ttl 2s -fallback-workers 2 &
SCALE_PID=$!
for i in $(seq 1 50); do
  if curl -fsS "$SCALE_BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 $SCALE_PID 2>/dev/null; then
    echo "scale server died during startup" >&2; exit 1
  fi
  sleep 0.1
done

# Seed a population and confirm the starting topology.
RATINGS='{"ratings":['
for u in 1 2 3 4 5 6 7 8 9 10 11 12; do
  RATINGS+="{\"uid\":$u,\"item\":$((u % 5)),\"liked\":true},"
  RATINGS+="{\"uid\":$u,\"item\":$((u % 7 + 10)),\"liked\":false},"
done
RATINGS="${RATINGS%,}]}"
curl -fsS -X POST "$SCALE_BASE/v1/rate" -H 'Content-Type: application/json' -d "$RATINGS" >/dev/null
curl -fsS "$SCALE_BASE/v1/topology" | grep -q '"partitions":2' \
  || { echo "starting topology is not 2 partitions" >&2; exit 1; }

# Live traffic through the widget loop while the scale-out runs.
"$BIN/hyrec-widget" -server "$SCALE_BASE" -users 12 -requests 3 &
WIDGET_PID=$!
kill -HUP $SCALE_PID
wait $WIDGET_PID

# The migration must complete: 4 partitions, migrating:false, on both
# the admin endpoint and /stats.
for i in $(seq 1 50); do
  TOPO=$(curl -fsS "$SCALE_BASE/v1/topology")
  if echo "$TOPO" | grep -q '"partitions":4' && echo "$TOPO" | grep -q '"migrating":false'; then break; fi
  sleep 0.1
done
echo "$TOPO" | grep -q '"partitions":4' || { echo "scale-out never completed: $TOPO" >&2; exit 1; }
echo "$TOPO" | grep -q '"migrating":false' || { echo "still migrating: $TOPO" >&2; exit 1; }
STATS=$(curl -fsS "$SCALE_BASE/stats")
echo "$STATS" | grep -q '"migrating":false' || { echo "/stats still migrating: $STATS" >&2; exit 1; }
echo "$STATS" | grep -q '"topology_partitions":4' || { echo "/stats topology wrong: $STATS" >&2; exit 1; }
curl -fsS "$SCALE_BASE/metrics" | grep -q '^hyrec_topology_partitions 4' \
  || { echo "/metrics missing topology gauge" >&2; exit 1; }

# Every seeded user still answers /v1/recs after the migration.
for u in 1 2 3 4 5 6 7 8 9 10 11 12; do
  curl -fsS "$SCALE_BASE/v1/recs?uid=$u" | grep -q '"recs"' \
    || { echo "user $u cannot fetch recs after scale-out" >&2; exit 1; }
done

kill -TERM $SCALE_PID
wait $SCALE_PID

echo "--- browser fleet: 200 WebSocket sessions vs a 2-partition server, one forced mass disconnect"
FLEET_ADDR="127.0.0.1:18084"
FLEET_BASE="http://$FLEET_ADDR"
"$BIN/hyrec-server" -addr "$FLEET_ADDR" -partitions 2 -rotate 0 \
  -lease-ttl 300ms -lease-retries 1 -fallback-workers 4 &
FLEET_PID=$!
for i in $(seq 1 50); do
  if curl -fsS "$FLEET_BASE/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 $FLEET_PID 2>/dev/null; then
    echo "fleet server died during startup" >&2; exit 1
  fi
  sleep 0.1
done

# Seed 50 users: the ratings fill the staleness queue the fleet must drain.
# Eight ratings each (four liked, four disliked, all distinct), which sets
# the smallest job a push can carry; see the floor asserted below.
RATINGS='{"ratings":['
for u in $(seq 1 50); do
  for j in 0 1 2 3; do
    RATINGS+="{\"uid\":$u,\"item\":$(((u + 3 * j) % 11)),\"liked\":true},"
    RATINGS+="{\"uid\":$u,\"item\":$(((u + 2 * j) % 7 + 11)),\"liked\":false},"
  done
done
RATINGS="${RATINGS%,}]}"
curl -fsS -X POST "$FLEET_BASE/v1/rate" -H 'Content-Type: application/json' -d "$RATINGS" >/dev/null
STATS=$(curl -fsS "$FLEET_BASE/stats")
echo "$STATS" | grep -Eq '"sched_unrefreshed":[1-9]' \
  || { echo "seeding left no unrefreshed users to converge" >&2; exit 1; }
JOB_BYTES_BEFORE=$(echo "$STATS" | grep -oE '"job_bytes":[0-9]+' | cut -d: -f2)

# A 200-session deterministic fleet over real sockets: 60% of leased
# jobs silently vanish, and 40% of the fleet is severed the moment half
# the users have converged. The widget exits non-zero unless every user
# converges within the budget.
"$BIN/hyrec-widget" -server "$FLEET_BASE" -fleet 200 -fleet-users 50 -seed 7 \
  -abandon 0.6 -silent-abandon -fleet-disconnect 0.4 -work-duration 60s

STATS=$(curl -fsS "$FLEET_BASE/stats")
echo "$STATS" | grep -Eq '"sched_unrefreshed":0' \
  || { echo "fleet left users unrefreshed: $STATS" >&2; exit 1; }
# Silent churn plus the mass disconnect must have burned leases...
echo "$STATS" | grep -Eq '"sched_expired":[1-9]' \
  || { echo "no lease ever burned under 60% silent churn: $STATS" >&2; exit 1; }
# ...and the fallback pool must have absorbed them.
echo "$STATS" | grep -Eq '"sched_fallback_runs":[1-9]' \
  || { echo "fallback pool absorbed no burned leases: $STATS" >&2; exit 1; }
curl -fsS "$FLEET_BASE/metrics" | grep -q '^hyrec_ws_jobs_pushed_total [1-9]' \
  || { echo "/metrics shows no jobs pushed over WebSockets" >&2; exit 1; }
# Pushed jobs are metered inside the engine that assembled them: over the
# fleet run job_bytes must have grown by at least the smallest job a push
# can carry, per push. That job has ten candidates (k=10), and every
# profile eight items, so in job format 3, counting each varint at its
# narrowest:
#   head: format byte 1 + uid 1 + epoch 1 + k 1 + r 1 + lease 1
#         + deadline_ms 6 (Unix ms is past 2^35, so six 7-bit groups)
#         + attempt 1                                            =  13
#   each of 11 profiles: id 1 + two list counts 2 + 8 items 8    =  11
#   candidate count                                              =   1
#   13 + 11 * 11 + 1                                             = 135 B
PUSHED=$(echo "$STATS" | grep -oE '"ws_jobs_pushed_total":[0-9]+' | cut -d: -f2)
JOB_BYTES=$(echo "$STATS" | grep -oE '"job_bytes":[0-9]+' | cut -d: -f2)
[ $((JOB_BYTES - JOB_BYTES_BEFORE)) -ge $((PUSHED * 135)) ] \
  || { echo "job_bytes grew $JOB_BYTES_BEFORE -> $JOB_BYTES, under 135 B for each of $PUSHED pushed jobs: $STATS" >&2; exit 1; }

kill -TERM $FLEET_PID
wait $FLEET_PID

echo "--- multi-node: 3-node deployment, proxying, replication, SIGKILL failover"
N1="127.0.0.1:18085"; N2="127.0.0.1:18086"; N3="127.0.0.1:18087"
# n1 and n2 advertise framed listeners, n3 serves HTTP only: proxy hops
# and replica shipments cross both peer planes, the failover included.
N1F="127.0.0.1:18095"; N2F="127.0.0.1:18096"
PEERS="n1=http://$N1|$N1F,n2=http://$N2|$N2F,n3=http://$N3"
NODE_FLAGS=(-partitions 6 -peers "$PEERS" -rotate 0
  -replicate-every 25ms -anti-entropy 250ms -heartbeat 100ms -dead-after 3
  -peer-secret smoke-node-secret)
NODE_DEBUG="127.0.0.1:18098"
"$BIN/hyrec-node" -id n1 -addr "$N1" -frame-addr "$N1F" -debug-addr "$NODE_DEBUG" "${NODE_FLAGS[@]}" &
NODE1_PID=$!
"$BIN/hyrec-node" -id n2 -addr "$N2" -frame-addr "$N2F" "${NODE_FLAGS[@]}" &
NODE2_PID=$!
"$BIN/hyrec-node" -id n3 -addr "$N3" "${NODE_FLAGS[@]}" &
NODE3_PID=$!
for base in "http://$N1" "http://$N2" "http://$N3"; do
  for i in $(seq 1 50); do
    if curl -fsS "$base/healthz" >/dev/null 2>&1; then break; fi
    sleep 0.1
  done
  curl -fsS "$base/healthz" >/dev/null || { echo "node at $base never came up" >&2; exit 1; }
done

curl -fsS "http://$NODE_DEBUG/debug/pprof/" | grep -q 'goroutine' \
  || { echo "hyrec-node /debug/pprof/ does not answer on -debug-addr" >&2; exit 1; }
CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$N1/debug/pprof/")
[ "$CODE" = "404" ] || { echo "hyrec-node public address serves /debug/pprof/ ($CODE, want 404)" >&2; exit 1; }

# The node plane is gated by -peer-secret: a well-formed map push
# without the shared secret must bounce with 403 (were it accepted, this
# epoch-99 push would hijack partition ownership of the whole cluster).
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$N1/v1/nodes" \
  -H 'Content-Type: application/json' \
  -d '{"epoch":99,"partitions":6,"nodes":[{"id":"evil","addr":"http://127.0.0.1:1"}]}')
[ "$CODE" = "403" ] || { echo "unauthenticated node-map push answered $CODE, want 403" >&2; exit 1; }

# All ratings go through node 1 only: non-owned users are proxied to
# their primaries, owned ones replicate synchronously to their mirrors.
RATINGS='{"ratings":['
for u in $(seq 1 12); do
  RATINGS+="{\"uid\":$u,\"item\":$((u % 5 + 1)),\"liked\":true},"
  RATINGS+="{\"uid\":$u,\"item\":$((u % 7 + 20)),\"liked\":false},"
done
RATINGS="${RATINGS%,}]}"
ACCEPTED=$(curl -fsS -X POST "http://$N1/v1/rate" -H 'Content-Type: application/json' -d "$RATINGS")
echo "$ACCEPTED" | grep -q '"accepted":24' || { echo "multi-node rate lost ratings: $ACCEPTED" >&2; exit 1; }

# Topology from any node names all three members and locates uid 7's
# current primary (poll: a slow member may transiently look dead during
# the staggered boot, which reshuffles the map until it reappears).
for i in $(seq 1 100); do
  TOPO=$(curl -fsS "http://$N1/v1/topology?uid=7" || true)
  if echo "$TOPO" | grep -q '"id":"n1"' && echo "$TOPO" | grep -q '"id":"n2"' \
    && echo "$TOPO" | grep -q '"id":"n3"' && echo "$TOPO" | grep -q '"owner"'; then break; fi
  sleep 0.1
done
OWNER_ADDR=$(echo "$TOPO" | sed -n 's/.*"owner":{"id":"[^"]*","addr":"\([^"]*\)".*/\1/p')
[ -n "$OWNER_ADDR" ] || { echo "topology never converged on 3 nodes + owner for uid 7: $TOPO" >&2; exit 1; }

# With the 3-node map settled, one more clean burst through node 1: its
# replica leg ships rating deltas (not user state), every one lands in
# sequence — nothing gapped, so nothing was re-shipped whole — and the
# stream gauges are on /metrics too.
RATINGS='{"ratings":['
for u in $(seq 1 24); do
  RATINGS+="{\"uid\":$u,\"item\":40,\"liked\":true},"
done
RATINGS="${RATINGS%,}]}"
curl -fsS -X POST "http://$N1/v1/rate" -H 'Content-Type: application/json' -d "$RATINGS" | grep -q '"accepted":24' \
  || { echo "second multi-node rate burst lost ratings" >&2; exit 1; }
# The same burst through node 2: its hops to node 1's partitions ride
# node 1's framed listener.
curl -fsS -X POST "http://$N2/v1/rate" -H 'Content-Type: application/json' -d "$RATINGS" | grep -q '"accepted":24' \
  || { echo "multi-node rate burst through node 2 lost ratings" >&2; exit 1; }
STATS=$(curl -fsS "http://$N1/stats")
echo "$STATS" | grep -Eq '"repl_delta_ratings_total":[1-9]' \
  || { echo "node 1 shipped no rating deltas to its replicas: $STATS" >&2; exit 1; }
echo "$STATS" | grep -q '"repl_gaps_total":0' \
  || { echo "a clean ingest burst gapped the replication stream: $STATS" >&2; exit 1; }
echo "$STATS" | grep -Eq '"frame_bytes_total":[1-9]' \
  || { echo "node 1's framed listener carried no peer traffic: $STATS" >&2; exit 1; }
METRICS=$(curl -fsS "http://$N1/metrics")
for m in hyrec_repl_delta_ratings_total hyrec_repl_full_ships_total hyrec_repl_gaps_total hyrec_replica_lag_seq; do
  echo "$METRICS" | grep -q "^$m " || { echo "/metrics is missing $m" >&2; exit 1; }
done

case "$OWNER_ADDR" in
  *18085) VICTIM_PID=$NODE1_PID; SURVIVOR_A="http://$N2"; SURVIVOR_B="http://$N3" ;;
  *18086) VICTIM_PID=$NODE2_PID; SURVIVOR_A="http://$N1"; SURVIVOR_B="http://$N3" ;;
  *18087) VICTIM_PID=$NODE3_PID; SURVIVOR_A="http://$N1"; SURVIVOR_B="http://$N2" ;;
  *) echo "owner addr $OWNER_ADDR matches no node" >&2; exit 1 ;;
esac
echo "    SIGKILL uid 7's primary at $OWNER_ADDR"
kill -9 "$VICTIM_PID"
wait "$VICTIM_PID" 2>/dev/null || true

# Survivors converge on a two-node map with a bumped epoch within the
# heartbeat budget (100ms probes, dead after 3 misses).
for i in $(seq 1 100); do
  STATS=$(curl -fsS "$SURVIVOR_A/stats" || true)
  if echo "$STATS" | grep -q '"nodes":2'; then break; fi
  sleep 0.1
done
echo "$STATS" | grep -q '"nodes":2' || { echo "survivors never declared the dead node: $STATS" >&2; exit 1; }
echo "$STATS" | grep -Eq '"node_epoch":([2-9]|[0-9]{2,})' \
  || { echo "no epoch bump after failover: $STATS" >&2; exit 1; }

# The promoted replica answers for the dead node's users from
# replicated state — via either survivor (non-owners proxy).
curl -fsS "$SURVIVOR_A/v1/recs?uid=7" | grep -q '"recs"' \
  || { echo "uid 7 unservable after failover via $SURVIVOR_A" >&2; exit 1; }
curl -fsS "$SURVIVOR_B/v1/recs?uid=7" | grep -q '"recs"' \
  || { echo "uid 7 unservable after failover via $SURVIVOR_B" >&2; exit 1; }

# The promotion is visible on /metrics: the fleet-wide failover counter
# moved.
FAILOVERS=0
for base in "$SURVIVOR_A" "$SURVIVOR_B"; do
  F=$(curl -fsS "$base/metrics" | sed -n 's/^hyrec_failovers_total \([0-9][0-9]*\)$/\1/p')
  FAILOVERS=$((FAILOVERS + ${F:-0}))
done
[ "$FAILOVERS" -ge 1 ] || { echo "hyrec_failovers_total never incremented after a node death" >&2; exit 1; }

for pid in $NODE1_PID $NODE2_PID $NODE3_PID; do
  [ "$pid" = "$VICTIM_PID" ] && continue
  kill -TERM "$pid" 2>/dev/null || true
done
wait 2>/dev/null || true

echo "smoke test passed"
