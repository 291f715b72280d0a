#!/usr/bin/env bash
# Flight-recorder smoke test: build a reference container with
# seedex-index, serve it through seedex-serve -index-store with tail
# retention and the flight recorder armed, map reads, then publish a
# truncated container and POST /admin/reload. The reload rolls back, and
# the degradation watcher must write an automatic reload-rollback flight
# tarball; a SIGQUIT dump must land too, and the server must keep serving
# the same mapping. Artifacts (server log, tarballs, manifests) land in
# OUT (default flight-smoke/) for CI upload.
set -euo pipefail

OUT="${OUT:-flight-smoke}"
ADDR="${ADDR:-127.0.0.1:18846}"
mkdir -p "$OUT"

fail() { echo "FAIL: $*" >&2; exit 1; }

echo "== building seedex-index and seedex-serve =="
go build -o "$OUT/seedex-index" ./cmd/seedex-index
go build -o "$OUT/seedex-serve" ./cmd/seedex-serve

echo "== building a reference container =="
python3 - "$OUT/ref.fa" <<'EOF'
import random, sys
random.seed(7)
seq = "".join(random.choice("ACGT") for _ in range(4000))
with open(sys.argv[1], "w") as f:
    f.write(">chrF flight smoke contig\n")
    for i in range(0, len(seq), 70):
        f.write(seq[i:i+70] + "\n")
with open(sys.argv[1] + ".read", "w") as f:
    f.write(seq[1000:1150])
EOF
"$OUT/seedex-index" build -ref "$OUT/ref.fa" -out "$OUT/ref.rix"

echo "== starting server on $ADDR (index store, flight recorder armed) =="
# A 1s debounce plus a 0.5s watcher poll makes the automatic dump land
# promptly after the rollback; a 1us tail budget retains every journey.
"$OUT/seedex-serve" -addr "$ADDR" -index-store "$OUT/ref.rix" \
  -trace-tail -trace-tail-budget 1us \
  -flight-dir "$OUT/flight" -flight-min-interval 1s -flight-poll 500ms \
  -flush 1ms \
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

READ=$(cat "$OUT/ref.fa.read")
map_once() {
  curl -fsS -X POST "http://$ADDR/v1/map" -H 'Content-Type: application/json' \
    -d "{\"reads\":[{\"name\":\"flight\",\"seq\":\"$READ\"}]}"
}

echo "== mapping from the serving generation =="
BASELINE=$(map_once) || fail "mapping failed"
echo "$BASELINE" | grep -q '"pos":1001' || fail "read did not map at chrF:1001: $BASELINE"
for i in $(seq 1 10); do map_once >/dev/null || fail "mapping failed"; done

echo "== corrupt publish, then reload =="
# Publish a truncated container the crash-safe way (write-aside +
# rename): the loader must reject it and keep serving generation 1.
head -c 200 "$OUT/ref.rix" >"$OUT/ref.rix.bad"
mv "$OUT/ref.rix.bad" "$OUT/ref.rix"
if curl -fsS -X POST "http://$ADDR/admin/reload" >"$OUT/reload-corrupt.json" 2>/dev/null; then
  fail "reload of a truncated container reported success"
fi

echo "== waiting for the automatic reload-rollback dump =="
AUTO=""
for i in $(seq 1 100); do
  AUTO="$(ls "$OUT"/flight/flight-*-reload-rollback*.tar.gz 2>/dev/null | head -1 || true)"
  [ -n "$AUTO" ] && break
  sleep 0.1
done
[ -n "$AUTO" ] || fail "reload rollback produced no automatic flight tarball"
tar -tzf "$AUTO" >"$OUT/auto-manifest.txt"
for entry in meta.json metrics.json slo.json journeys.json goroutines.txt heap.pprof; do
  grep -qx "$entry" "$OUT/auto-manifest.txt" || fail "automatic dump missing $entry"
done
# The dump names its trigger, its metrics show the rollback, and it
# carries the retained journeys of the mapping traffic before it.
tar -xmzf "$AUTO" -C "$OUT" meta.json metrics.json journeys.json
python3 - "$OUT" <<'EOF'
import json, os, sys
out = sys.argv[1]
meta = json.load(open(os.path.join(out, "meta.json")))
if meta.get("reason") != "reload-rollback":
    raise SystemExit("FAIL: automatic dump records reason %r" % meta.get("reason"))
index = json.load(open(os.path.join(out, "metrics.json"))).get("index") or {}
if index.get("rollbacks", 0) < 1:
    raise SystemExit("FAIL: dump metrics show no rollback: %r" % index)
if not json.load(open(os.path.join(out, "journeys.json"))):
    raise SystemExit("FAIL: reload-rollback dump retained no journeys")
EOF

echo "== SIGQUIT dump (bypasses the debounce) =="
kill -QUIT "$SERVER_PID"
FORCED=""
for i in $(seq 1 50); do
  FORCED="$(ls "$OUT"/flight/flight-*-sigquit.tar.gz 2>/dev/null | head -1 || true)"
  [ -n "$FORCED" ] && break
  sleep 0.1
done
[ -n "$FORCED" ] || fail "SIGQUIT inside the debounce window produced no tarball"

echo "== still serving generation 1 =="
curl -fsS "http://$ADDR/healthz" >"$OUT/healthz.json" || fail "server not serving after dumps"
grep -q '"index_state":"degraded-reload"' "$OUT/healthz.json" || fail "healthz missing degraded-reload state"
AFTER=$(map_once) || fail "mapping failed after the dumps"
[ "$AFTER" = "$BASELINE" ] || fail "mapping changed after rollback: $AFTER"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT
echo "OK: flight-recorder smoke passed; artifacts in $OUT/"
