#!/usr/bin/env bash
# End-to-end smoke test for the evolving-graph surface, run by CI and
# `make delta-smoke`:
#
#   1. build subgraphd and start it on an ephemeral port;
#   2. upload a 60-cycle and prime its clique:3 count cache with one
#      count job;
#   3. POST a delta (two chords) with clique:3 + cycle:4 watches: the
#      response must record lineage, report the delta under the churn
#      threshold (incremental), forward the primed cache entry, and
#      answer both watches correctly (2 triangles, a C4 appears);
#   4. POST a second, insert-only delta: both watches must now answer
#      incrementally (cycle:4 via the delete-free dirty rule);
#   5. a count job on the final child must hit the forwarded cache
#      (cached: true, no kernel run) and agree with the watch count;
#   6. a third delta inserts [1,3], closing the K4 {0,1,2,3}: a clique:4
#      count job on that child must run the kernel (not cached) over an
#      adjacency built for it from scratch, as the delta built none, and
#      answer 1 with kernel-bitset-dense;
#   7. a delta body with data after its JSON value must answer 400;
#   8. a delta deleting a non-edge must bounce with 409 and the typed
#      reason delete_missing_edge, leaving the stored graphs untouched;
#   9. SIGTERM the daemon and require a clean drain (exit 0).
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo "== build"
go build -o "$workdir/subgraphd" ./cmd/subgraphd

echo "== start (ephemeral port)"
"$workdir/subgraphd" -listen 127.0.0.1:0 -portfile "$workdir/port" \
  -workers 2 2>"$workdir/serve.log" &
daemon=$!
for _ in $(seq 1 100); do
  [ -s "$workdir/port" ] && break
  sleep 0.1
done
addr=$(head -n1 "$workdir/port" | tr -d '\n')
if [ -z "$addr" ]; then
  echo "daemon never wrote its port file" >&2
  cat "$workdir/serve.log" >&2
  exit 1
fi
base="http://$addr"
echo "   daemon pid $daemon on $addr"

fail() {
  echo "FAIL: $*" >&2
  cat "$workdir/serve.log" >&2
  kill "$daemon" 2>/dev/null || true
  exit 1
}

# jget FILE EXPR — evaluate a python expression against parsed JSON `d`.
jget() {
  python3 -c "import json,sys; d=json.load(open('$1')); print($2)"
}

echo "== upload base graph (C60)"
for i in $(seq 0 59); do echo "$i $(( (i + 1) % 60 ))"; done >"$workdir/c60.txt"
curl -fsS -o "$workdir/up.json" --data-binary @"$workdir/c60.txt" "$base/v1/graphs"
parent=$(jget "$workdir/up.json" "d['digest']")
[ "$(jget "$workdir/up.json" "d['m']")" = 60 ] || fail "base upload m != 60"

echo "== prime the parent's clique:3 count cache"
curl -fsS -o "$workdir/job0.json" -H 'Content-Type: application/json' \
  -d "{\"graph\":\"$parent\",\"pattern\":\"clique:3\",\"mode\":\"count\"}" "$base/v1/jobs"
job0=$(jget "$workdir/job0.json" "d['id']")
for _ in $(seq 1 100); do
  curl -fsS -o "$workdir/job0.json" "$base/v1/jobs/$job0"
  [ "$(jget "$workdir/job0.json" "d['state']")" = done ] && break
  sleep 0.1
done
[ "$(jget "$workdir/job0.json" "d['state']")" = done ] || fail "primer job never finished"
[ "$(jget "$workdir/job0.json" "d['result']['count']")" = 0 ] || fail "C60 has a triangle?"

echo "== delta 1: two chords, watched (clique:3 + cycle:4)"
status=$(curl -sS -o "$workdir/d1.json" -w '%{http_code}' \
  -H 'Content-Type: application/json' \
  -d '{"insert":[[0,2],[0,3]],"watch":["clique:3","cycle:4"]}' \
  "$base/v1/graphs/$parent/delta")
[ "$status" = 201 ] || fail "delta 1 status $status, want 201"
child1=$(jget "$workdir/d1.json" "d['digest']")
[ "$(jget "$workdir/d1.json" "d['parent']")" = "$parent" ] || fail "delta 1 lineage missing"
[ "$(jget "$workdir/d1.json" "d['incremental']")" = True ] || fail "delta 1 not incremental"
[ "$(jget "$workdir/d1.json" "d['forwarded_cache_entries']")" = 1 ] || fail "delta 1 forwarded nothing"
[ "$(jget "$workdir/d1.json" "d['watch'][0]['count']")" = 2 ] || fail "chords make 2 triangles"
[ "$(jget "$workdir/d1.json" "d['watch'][0]['incremental']")" = True ] || fail "clique watch not incremental"
[ "$(jget "$workdir/d1.json" "d['watch'][1]['detected']")" = True ] || fail "C4 not detected"

echo "== delta 2: insert-only, both watches incremental"
status=$(curl -sS -o "$workdir/d2.json" -w '%{http_code}' \
  -H 'Content-Type: application/json' \
  -d '{"insert":[[30,32]],"watch":["clique:3","cycle:4"]}' \
  "$base/v1/graphs/$child1/delta")
[ "$status" = 201 ] || fail "delta 2 status $status, want 201"
child2=$(jget "$workdir/d2.json" "d['digest']")
[ "$(jget "$workdir/d2.json" "d['watch'][0]['count']")" = 3 ] || fail "third chord makes 3 triangles"
[ "$(jget "$workdir/d2.json" "d['watch'][0]['incremental']")" = True ] || fail "clique watch 2 not incremental"
[ "$(jget "$workdir/d2.json" "d['watch'][1]['detected']")" = True ] || fail "C4 lost"
[ "$(jget "$workdir/d2.json" "d['watch'][1]['incremental']")" = True ] || fail "cycle watch not incremental"

echo "== count job on the final child hits the forwarded cache"
curl -fsS -o "$workdir/job1.json" -H 'Content-Type: application/json' \
  -d "{\"graph\":\"$child2\",\"pattern\":\"clique:3\",\"mode\":\"count\"}" "$base/v1/jobs"
job1=$(jget "$workdir/job1.json" "d['id']")
for _ in $(seq 1 100); do
  curl -fsS -o "$workdir/job1.json" "$base/v1/jobs/$job1"
  [ "$(jget "$workdir/job1.json" "d['state']")" = done ] && break
  sleep 0.1
done
[ "$(jget "$workdir/job1.json" "d.get('cached', False)")" = True ] || fail "forwarded entry missed"
[ "$(jget "$workdir/job1.json" "d['result']['count']")" = 3 ] || fail "cached count disagrees with watch"

echo "== delta 3 closes a K4; a clique:4 count builds the child's adjacency and runs the kernel"
status=$(curl -sS -o "$workdir/d3.json" -w '%{http_code}' \
  -H 'Content-Type: application/json' \
  -d '{"insert":[[1,3]]}' "$base/v1/graphs/$child2/delta")
[ "$status" = 201 ] || fail "delta 3 status $status, want 201"
child3=$(jget "$workdir/d3.json" "d['digest']")
[ "$(jget "$workdir/d3.json" "d['forwarded_cache_entries']")" = 1 ] || fail "delta 3 forwarded nothing"
curl -fsS -o "$workdir/job2.json" -H 'Content-Type: application/json' \
  -d "{\"graph\":\"$child3\",\"pattern\":\"clique:4\",\"mode\":\"count\"}" "$base/v1/jobs"
job2=$(jget "$workdir/job2.json" "d['id']")
for _ in $(seq 1 100); do
  curl -fsS -o "$workdir/job2.json" "$base/v1/jobs/$job2"
  [ "$(jget "$workdir/job2.json" "d['state']")" = done ] && break
  sleep 0.1
done
[ "$(jget "$workdir/job2.json" "d['state']")" = done ] || fail "clique:4 count job never finished"
[ "$(jget "$workdir/job2.json" "d.get('cached', False)")" = False ] || fail "clique:4 count came from the cache"
[ "$(jget "$workdir/job2.json" "d['result']['count']")" = 1 ] || fail "K4 {0,1,2,3} not counted once"
[ "$(jget "$workdir/job2.json" "d['result']['algorithm']")" = kernel-bitset-dense ] || fail "clique:4 count not dense"

echo "== a delta body with trailing data bounces with 400"
status=$(curl -sS -o "$workdir/trail.json" -w '%{http_code}' \
  -H 'Content-Type: application/json' \
  -d '{"insert":[[5,7]]} {"delete":[[0,1]]}' "$base/v1/graphs/$child2/delta")
[ "$status" = 400 ] || fail "trailing-data delta status $status, want 400"

echo "== conflicting delta bounces with 409 + typed reason"
status=$(curl -sS -o "$workdir/bad.json" -w '%{http_code}' \
  -H 'Content-Type: application/json' \
  -d '{"delete":[[5,7]]}' "$base/v1/graphs/$child2/delta")
[ "$status" = 409 ] || fail "conflict status $status, want 409"
[ "$(jget "$workdir/bad.json" "d['reason']")" = delete_missing_edge ] || fail "wrong conflict reason"
curl -fsS -o "$workdir/info.json" "$base/v1/graphs/$child2"
[ "$(jget "$workdir/info.json" "d['m']")" = 63 ] || fail "rejected delta mutated the graph"

echo "== SIGTERM drain"
kill -TERM "$daemon"
drain=0
wait "$daemon" || drain=$?
cat "$workdir/serve.log"
[ "$drain" -eq 0 ] || fail "daemon exited $drain after SIGTERM, want 0"
grep -q "drained cleanly" "$workdir/serve.log" || fail "daemon log missing drain summary"
echo "== delta smoke passed"
