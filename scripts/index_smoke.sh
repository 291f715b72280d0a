#!/usr/bin/env bash
# Reference index lifecycle smoke test: build a checksummed container
# with seedex-index, map a read from it with seedex-align -index, serve
# /v1/map from it through a read-only memory
# mapping, hot-reload under live traffic, then corrupt a publish and
# prove the server rolls back to the serving generation (degraded
# healthz, exact mappings throughout). Artifacts (index info, metrics
# scrapes, server log) land in OUT (default index-smoke/) for CI upload.
set -euo pipefail

OUT="${OUT:-index-smoke}"
ADDR="${ADDR:-127.0.0.1:18846}"
mkdir -p "$OUT"

echo "== building seedex-index, seedex-align and seedex-serve =="
go build -o "$OUT/seedex-index" ./cmd/seedex-index
go build -o "$OUT/seedex-align" ./cmd/seedex-align
go build -o "$OUT/seedex-serve" ./cmd/seedex-serve

echo "== building a reference container =="
python3 - "$OUT/ref.fa" <<'EOF'
import random, sys
random.seed(42)
seq = "".join(random.choice("ACGT") for _ in range(4000))
with open(sys.argv[1], "w") as f:
    f.write(">chrS smoke contig\n")
    for i in range(0, len(seq), 70):
        f.write(seq[i:i+70] + "\n")
with open(sys.argv[1] + ".read", "w") as f:
    f.write(seq[500:650])
with open(sys.argv[1] + ".fq", "w") as f:
    f.write("@smoke\n" + seq[500:650] + "\n+\n" + "I" * 150 + "\n")
EOF
"$OUT/seedex-index" build -ref "$OUT/ref.fa" -out "$OUT/ref.rix"
"$OUT/seedex-index" verify "$OUT/ref.rix"
"$OUT/seedex-index" info "$OUT/ref.rix" >"$OUT/index-info.json"

echo "== seedex-align -index loads the same container =="
"$OUT/seedex-align" -ref "$OUT/ref.fa" -reads "$OUT/ref.fa.fq" -index "$OUT/ref.rix" \
  >"$OUT/align.sam" 2>"$OUT/align.log"
grep -q 'loaded index' "$OUT/align.log" || { echo "FAIL: seedex-align did not load the container" >&2; cat "$OUT/align.log" >&2; exit 1; }
grep -q $'^smoke\t0\tchrS\t501\t' "$OUT/align.sam" || { echo "FAIL: read did not map at chrS:501" >&2; cat "$OUT/align.sam" >&2; exit 1; }

echo "== starting server on $ADDR from the index store =="
"$OUT/seedex-serve" -addr "$ADDR" -index-store "$OUT/ref.rix" -flush 1ms \
  >"$OUT/serve.log" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

for i in $(seq 1 50); do
  if curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1; then break; fi
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "server died during startup:" >&2
    cat "$OUT/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done

fail() { echo "FAIL: $*" >&2; cat "$OUT/serve.log" >&2; exit 1; }

READ=$(cat "$OUT/ref.fa.read")
map_once() {
  curl -fsS -X POST "http://$ADDR/v1/map" -H 'Content-Type: application/json' \
    -d "{\"reads\":[{\"name\":\"smoke\",\"seq\":\"$READ\"}]}"
}

echo "== mapping from the mmap-served generation =="
BASELINE=$(map_once)
echo "$BASELINE" >"$OUT/map-baseline.json"
echo "$BASELINE" | grep -q '"rname":"chrS"' || fail "read did not map to chrS: $BASELINE"
echo "$BASELINE" | grep -q '"pos":501' || fail "read did not map at pos 501: $BASELINE"

echo "== hot reload under live traffic =="
( for i in $(seq 1 40); do map_once >>"$OUT/map-during-reload.ndjson" || echo MAPFAIL >>"$OUT/map-during-reload.ndjson"; done ) &
TRAFFIC_PID=$!
for i in 1 2 3; do
  curl -fsS -X POST "http://$ADDR/admin/reload" >>"$OUT/reloads.json" || fail "clean reload $i failed"
  echo >>"$OUT/reloads.json"
done
wait "$TRAFFIC_PID"
grep -q MAPFAIL "$OUT/map-during-reload.ndjson" && fail "a /v1/map request failed during the reload storm"
while read -r line; do
  [ "$line" = "$BASELINE" ] || fail "mapping changed across a reload: $line"
done <"$OUT/map-during-reload.ndjson"

echo "== corrupt publish must roll back =="
# Publish a truncated container the crash-safe way (write-aside +
# rename): the loader must reject it and keep serving generation N.
head -c 200 "$OUT/ref.rix" >"$OUT/ref.rix.bad"
mv "$OUT/ref.rix.bad" "$OUT/ref.rix"
if curl -fsS -X POST "http://$ADDR/admin/reload" >"$OUT/reload-corrupt.json" 2>/dev/null; then
  fail "reload of a truncated container reported success"
fi
curl -fsS "http://$ADDR/healthz" >"$OUT/healthz-degraded.json"
grep -q '"status":"degraded"' "$OUT/healthz-degraded.json" || fail "healthz not degraded after rollback"
grep -q '"index_state":"degraded-reload"' "$OUT/healthz-degraded.json" || fail "healthz missing degraded-reload state"
AFTER=$(map_once) || fail "mapping failed after rollback"
[ "$AFTER" = "$BASELINE" ] || fail "mapping changed after rollback: $AFTER"

echo "== republish repairs on the next reload =="
"$OUT/seedex-index" build -ref "$OUT/ref.fa" -out "$OUT/ref.rix"
curl -fsS -X POST "http://$ADDR/admin/reload" >"$OUT/reload-repaired.json" || fail "reload of the repaired container failed"
curl -fsS "http://$ADDR/healthz" >"$OUT/healthz-recovered.json"
grep -q '"status":"ok"' "$OUT/healthz-recovered.json" || fail "healthz did not recover"

echo "== scraping =="
curl -fsS "http://$ADDR/metrics?format=prometheus" >"$OUT/metrics.prom"
curl -fsS "http://$ADDR/metrics" >"$OUT/metrics.json"
for family in \
  seedex_index_generation seedex_index_reloads_total \
  seedex_index_reload_failures_total seedex_index_rollbacks_total \
  seedex_index_degraded_reload seedex_index_mmap_bytes; do
  grep -q "^$family" "$OUT/metrics.prom" || fail "$family missing from Prometheus scrape"
done
grep -q '^seedex_index_rollbacks_total 1' "$OUT/metrics.prom" || fail "rollback not counted in Prometheus scrape"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT
grep -q 'index store summary' "$OUT/serve.log" || fail "server exit summary missing"
echo "OK: index lifecycle smoke passed; artifacts in $OUT/"
