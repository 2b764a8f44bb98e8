#!/usr/bin/env bash
# End-to-end smoke test for the subgraphd cluster, run by CI and
# `make cluster-smoke`:
#
#   1. build subgraphd, and check it refuses -canary on a router (a
#      router runs no jobs, so the canary would check nothing);
#   2. start two worker daemons on ephemeral ports, then a router
#      fronting them (digest routing, shared result cache, replication 2);
#   3. run the self-check THROUGH the router: health, upload dedup +
#      digest cross-check, and a triangle job byte-identical to the
#      library call — proving the proxied surface is indistinguishable
#      from a single daemon;
#   4. upload four seeded graphs;
#   5. upload a 60-cycle, prime its clique:3 count through the router,
#      and POST a delta of two chords through the router: the router
#      carries the primed count to whichever worker applies it, so the
#      answer forwards one entry, a clique:3 count on the child answers
#      from the router's cache (2 triangles), and the router counts a
#      seeded entry and no divergence;
#   6. fire a 200-job burst at the router from 8 closed-loop curl
#      clients (submit, then poll to a terminal state; curl retries
#      transient statuses), put a slow job in flight on w1 and SIGKILL
#      w1 mid-run: every job must still end done, and the router must
#      have re-dispatched at least one job (the slow one) to the
#      surviving replica;
#   7. SIGTERM the router and the surviving worker and require clean
#      drains (exit 0) from both.
set -euo pipefail

cd "$(dirname "$0")/.."
workdir=$(mktemp -d)
pids=()
cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

wait_port() { # portfile -> prints bound address
  for _ in $(seq 1 100); do
    [ -s "$1" ] && break
    sleep 0.1
  done
  head -n1 "$1" | tr -d '\n'
}

echo "== build"
go build -o "$workdir/subgraphd" ./cmd/subgraphd

echo "== -canary on a router exits 2"
status=0
"$workdir/subgraphd" -router -members http://127.0.0.1:1 -canary 1 \
  -listen 127.0.0.1:0 2>"$workdir/router-canary.log" || status=$?
if [ "$status" -ne 2 ] || ! grep -q 'run no jobs' "$workdir/router-canary.log"; then
  echo "-router -canary 1 exited $status, want 2 with a 'run no jobs' message" >&2
  cat "$workdir/router-canary.log" >&2
  exit 1
fi

echo "== start 2 workers (ephemeral ports)"
for i in 0 1; do
  "$workdir/subgraphd" -listen 127.0.0.1:0 -portfile "$workdir/w$i.port" \
    -node-name "w$i" -workers 2 2>"$workdir/w$i.log" &
  pids+=($!)
  eval "worker$i=$!"
done
w0=$(wait_port "$workdir/w0.port")
w1=$(wait_port "$workdir/w1.port")
if [ -z "$w0" ] || [ -z "$w1" ]; then
  echo "a worker never wrote its port file" >&2
  cat "$workdir"/w*.log >&2
  exit 1
fi
echo "   workers on $w0, $w1"

echo "== start router over both workers (replication 2)"
"$workdir/subgraphd" -router -members "http://$w0,http://$w1" \
  -replication 2 -listen 127.0.0.1:0 -portfile "$workdir/router.port" \
  -node-name router 2>"$workdir/router.log" &
pids+=($!)
router=$!
addr=$(wait_port "$workdir/router.port")
if [ -z "$addr" ]; then
  echo "router never wrote its port file" >&2
  cat "$workdir/router.log" >&2
  exit 1
fi
echo "   router pid $router on $addr"

echo "== healthz reports the router role"
health=$(curl -fsS "http://$addr/healthz")
echo "   $health"
echo "$health" | grep -q '"role":"router"' || {
  echo "router /healthz missing role=router" >&2
  exit 1
}

echo "== selfcheck through the router (byte-identical Stats)"
if ! "$workdir/subgraphd" -selfcheck "http://$addr"; then
  echo "selfcheck via router failed; router log:" >&2
  cat "$workdir/router.log" >&2
  exit 1
fi

echo "== upload 4 seeded graphs (n=150, planted triangle / C4 / K4)"
python3 - "$workdir" <<'PY'
import random, sys
rng = random.Random(1)
n = 150
for i in range(4):
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 1.2 / n}
    vs = rng.sample(range(n), 3 if i == 0 else 4)
    if i == 1:  # 4-cycle
        pairs = [(vs[j], vs[(j + 1) % 4]) for j in range(4)]
    else:       # clique
        pairs = [(a, b) for j, a in enumerate(vs) for b in vs[j + 1:]]
    edges |= {(min(a, b), max(a, b)) for a, b in pairs}
    with open(f"{sys.argv[1]}/g{i}.txt", "w") as f:
        f.write(f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in sorted(edges)))
PY
base="http://$addr"
# field NAME JSON — a top-level string field of a compact JSON document.
field() { sed -n "s/.*\"$1\":\"\([^\"]*\)\".*/\1/p" <<<"$2"; }
digests=()
for i in 0 1 2 3; do
  up=$(curl -fsS --data-binary @"$workdir/g$i.txt" "$base/v1/graphs")
  digests+=("$(field digest "$up")")
done

echo "== delta through the router carries the primed count (C60 + two chords)"
for i in $(seq 0 59); do echo "$i $(((i + 1) % 60))"; done >"$workdir/c60.txt"
c60=$(field digest "$(curl -fsS --data-binary @"$workdir/c60.txt" "$base/v1/graphs")")
count_spec() { echo "{\"graph\":\"$1\",\"pattern\":\"clique:3\",\"mode\":\"count\"}"; }
primer=$(curl -fsS -H 'Content-Type: application/json' -d "$(count_spec "$c60")" "$base/v1/jobs")
primer=$(curl -fsS "$base/v1/jobs/$(field id "$primer")?wait=5s")
[ "$(field state "$primer")" = done ] || {
  echo "the C60 clique:3 primer did not finish: $primer" >&2
  exit 1
}
delta_status=$(curl -sS -o "$workdir/delta.json" -w '%{http_code}' -H 'Content-Type: application/json' \
  -d '{"insert":[[0,2],[0,3]]}' "$base/v1/graphs/$c60/delta")
child=$(field digest "$(cat "$workdir/delta.json")")
curl -fsS -o "$workdir/child.json" -H 'Content-Type: application/json' -d "$(count_spec "$child")" "$base/v1/jobs"
curl -fsS -o "$workdir/prom.txt" "$base/metrics?format=prom"
python3 - "$delta_status" "$c60" "$workdir" <<'PY'
import json, sys
status, parent, wd = sys.argv[1:4]
d = json.load(open(f"{wd}/delta.json"))
j = json.load(open(f"{wd}/child.json"))
prom = {}
for line in open(f"{wd}/prom.txt"):
    if line.startswith("cluster_delta_"):
        name, value = line.split()
        prom[name.split("{")[0]] = float(value)
errs = []
if status != "201" or d.get("parent") != parent or d.get("forwarded_cache_entries") != 1:
    errs.append(f"delta: HTTP {status} {d}; want 201, parent {parent} and 1 forwarded entry")
if not j.get("cached", False) or (j.get("result") or {}).get("count") != 2:
    errs.append(f"clique:3 count on the child: {j}; want cached with count 2")
if prom.get("cluster_delta_seeded_total", 0) < 1 or prom.get("cluster_delta_divergence_total", 1) != 0:
    errs.append(f"router counters {prom}; want cluster_delta_seeded_total >= 1 and cluster_delta_divergence_total 0")
for e in errs:
    print(e, file=sys.stderr)
sys.exit(1 if errs else 0)
PY
echo "   child ${child:0:12}: 1 entry forwarded, clique:3 count 2 cached at the router"

# Job i runs pattern i%5 on graph (i/5)%4 with seed (i/20)%5, so jobs i
# and i+100 are the same spec: half the burst can hit the shared cache.
jobs=200
clients=8
patterns=(triangle cycle:4 clique:4 path:4 star:3)
# Transient statuses (429/502/503/504, refused connections) are retried.
retry=(--retry 8 --retry-connrefused --retry-max-time 60)
run_job() { # index -> prints the job's terminal state (or why it has none)
  local spec body id state polls=0
  spec="{\"graph\":\"${digests[$1 / 5 % 4]}\",\"pattern\":\"${patterns[$1 % 5]}\",\"options\":{\"seed\":$(($1 / 20 % 5))}}"
  body=$(curl -fsS "${retry[@]}" -H 'Content-Type: application/json' -d "$spec" "$base/v1/jobs") ||
    { echo submit-failed; return; }
  id=$(field id "$body")
  state=$(field state "$body")
  while [ "$state" != done ] && [ "$state" != failed ]; do
    polls=$((polls + 1))
    [ "$polls" -le 1200 ] || { echo "stuck-$state"; return; }
    sleep 0.05
    body=$(curl -fsS "${retry[@]}" "$base/v1/jobs/$id") || { echo poll-failed; return; }
    state=$(field state "$body")
  done
  echo "$state"
}
client() { # k -> runs jobs k, k+clients, ... in a closed loop
  for ((i = $1; i < jobs; i += clients)); do
    echo "$i $(run_job "$i")"
  done >"$workdir/client$1.out"
}

echo "== $jobs-job burst from $clients curl clients with a worker crash mid-run"
client_pids=()
for ((k = 0; k < clients; k++)); do
  client "$k" &
  client_pids+=($!)
done
sleep 0.7
# The burst's jobs take milliseconds, so the kill rarely catches one in
# flight. Slow jobs (cycle:5 with 400 repetitions, distinct seeds) are
# submitted until one reports w1 as its node; that one is running when
# w1 dies.
slow_ids=()
for ((k = 0; k < 20; k++)); do
  spec="{\"graph\":\"${digests[k % 4]}\",\"pattern\":\"cycle:5\",\"options\":{\"seed\":$((1000 + k)),\"reps\":400}}"
  body=$(curl -fsS "${retry[@]}" -H 'Content-Type: application/json' -d "$spec" "$base/v1/jobs")
  slow_ids+=("$(field id "$body")")
  node=$(field node "$body")
  [ "$node" = w1 ] || [ "$node" = "http://$w1" ] && break
done
if [ "$node" != w1 ] && [ "$node" != "http://$w1" ]; then
  echo "no slow job landed on w1 in ${#slow_ids[@]} submissions" >&2
  exit 1
fi
echo "   SIGKILL worker w1 (pid $worker1) with slow job ${slow_ids[-1]} on it"
kill -KILL "$worker1" 2>/dev/null || true
wait "${client_pids[@]}"
for id in "${slow_ids[@]}"; do
  state=
  for _ in $(seq 1 12); do # each read parks up to 5s on the router
    state=$(field state "$(curl -fsS "${retry[@]}" "$base/v1/jobs/$id?wait=5s")")
    [ "$state" = done ] || [ "$state" = failed ] && break
  done
  echo "slow-$id $state" >>"$workdir/client-slow.out"
done
done_jobs=$(cat "$workdir"/client*.out | grep -c ' done$' || true)
want=$((jobs + ${#slow_ids[@]}))
if [ "$done_jobs" -ne "$want" ]; then
  echo "$done_jobs of $want jobs ended done after the worker crash; the rest:" >&2
  cat "$workdir"/client*.out | grep -v ' done$' >&2 || true
  tail -n 40 "$workdir/router.log" >&2
  exit 1
fi
redispatched=$(curl -fsS "$base/metrics" | sed -n 's/.*"cluster_jobs_redispatched_total":\([0-9]*\).*/\1/p')
echo "   all $want jobs done (${redispatched:-0} re-dispatched by the router)"
if [ "${redispatched:-0}" -lt 1 ]; then
  echo "the router re-dispatched no job although w1 died running one" >&2
  tail -n 40 "$workdir/router.log" >&2
  exit 1
fi

echo "== SIGTERM drain (router, then surviving worker)"
kill -TERM "$router"
status=0
wait "$router" || status=$?
if [ "$status" -ne 0 ]; then
  echo "router exited $status after SIGTERM, want 0 (clean drain)" >&2
  cat "$workdir/router.log" >&2
  exit 1
fi
grep -q "drained cleanly" "$workdir/router.log" || {
  echo "router log missing drain summary" >&2
  cat "$workdir/router.log" >&2
  exit 1
}
kill -TERM "$worker0"
status=0
wait "$worker0" || status=$?
if [ "$status" -ne 0 ]; then
  echo "surviving worker exited $status after SIGTERM, want 0" >&2
  cat "$workdir/w0.log" >&2
  exit 1
fi
echo "== cluster smoke passed"
