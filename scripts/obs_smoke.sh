#!/usr/bin/env bash
# Observability smoke test: start seedex-serve with head tracing, tail
# retention, the SLO engine and the flight recorder on, drive a little
# traffic, then assert the Prometheus exposition, both trace export
# formats, the journey/SLO endpoints and a SIGQUIT flight dump are live
# and well-formed. Artifacts (metrics scrape, Chrome trace, NDJSON
# spans, slow top-K, SLO state, journeys, flight tarball) land in OUT
# (default obs-smoke/) for CI upload.
set -euo pipefail

OUT="${OUT:-obs-smoke}"
ADDR="${ADDR:-127.0.0.1:18844}"
DEBUG_ADDR="${DEBUG_ADDR:-127.0.0.1:18845}"
mkdir -p "$OUT"

echo "== building seedex-serve =="
VERSION="$(git describe --tags --always --dirty 2>/dev/null || echo smoke)"
COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
go build -ldflags "-X main.version=$VERSION -X main.commit=$COMMIT" \
  -o "$OUT/seedex-serve" ./cmd/seedex-serve

echo "== starting server on $ADDR (tracing 1/1 + tail retention, pprof on $DEBUG_ADDR) =="
# The 1µs tail budget makes every request breach it, so the smoke can
# assert tail retention without manufacturing failures.
"$OUT/seedex-serve" -addr "$ADDR" -trace-sample 1 -trace-slow 16 \
  -trace-tail -trace-tail-budget 1us -slo-latency 100ms \
  -flight-dir "$OUT/flight" \
  -debug-addr "$DEBUG_ADDR" -max-batch 16 -flush 1ms \
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

echo "== driving traffic =="
BODY='{"jobs":[
  {"query":"ACGTACGTACGTACGTACGTACGTACGTACGT","target":"ACGTACGTACGTACGTACGTACGTACGTACGT","h0":20},
  {"query":"ACGTACGTACGTTCGTACGTACGAACGTACGT","target":"ACGTACGTACGTACGTACGTACGTACGTACGT","h0":20},
  {"query":"TTTTACGTACGTACGTACGTACGTACGTACGT","target":"ACGTACGTACGTACGTACGTACGTACGTACGT","h0":20}
]}'
# smoke-1 carries one job: a request's jobs in one batch legitimately
# share their flush, kernel and check spans' fields, so only in a one-job
# trace does a repeated span mean a span written twice.
ONE_JOB='{"jobs":[{"query":"ACGTACGTACGTTCGTACGTACGAACGTACGT","target":"ACGTACGTACGTACGTACGTACGTACGTACGT","h0":20}]}'
for i in $(seq 1 20); do
  body="$BODY"
  [ "$i" = 1 ] && body="$ONE_JOB"
  curl -fsS -X POST "http://$ADDR/v1/extend" \
    -H 'Content-Type: application/json' \
    -H "X-Request-Id: smoke-$i" \
    -d "$body" >/dev/null
done

echo "== scraping =="
curl -fsS "http://$ADDR/metrics?format=prometheus" >"$OUT/metrics.prom"
curl -fsS "http://$ADDR/metrics" >"$OUT/metrics.json"
curl -fsS "http://$ADDR/debug/traces" >"$OUT/traces-chrome.json"
curl -fsS "http://$ADDR/debug/traces?format=ndjson" >"$OUT/traces.ndjson"
curl -fsS "http://$ADDR/debug/traces/slow?format=ndjson" >"$OUT/traces-slow.ndjson"
curl -fsS "http://$ADDR/debug/traces?trace=smoke-1&format=ndjson" >"$OUT/trace-smoke-1.ndjson"
SLOWEST="$(python3 -c "import json,sys; print(json.loads(open(sys.argv[1]).readline())['trace'])" "$OUT/traces-slow.ndjson")"
curl -fsS "http://$ADDR/debug/traces?trace=$SLOWEST&format=ndjson" >"$OUT/trace-slowest.ndjson"
curl -fsS "http://$ADDR/debug/journeys" >"$OUT/journeys.json"
curl -fsS "http://$ADDR/debug/slo" >"$OUT/slo.json"
curl -fsS "http://$DEBUG_ADDR/debug/pprof/" >"$OUT/pprof-index.html"

echo "== asserting =="
fail() { echo "FAIL: $*" >&2; exit 1; }

# Prometheus exposition carries the serving counters, histograms with
# quantiles, and the trace self-metrics.
for family in \
  seedex_requests_total seedex_jobs_completed_total \
  seedex_request_latency_seconds_bucket \
  seedex_request_latency_quantile_seconds \
  seedex_check_outcome_total seedex_trace_spans_total \
  seedex_trace_tail_retained seedex_slo_target seedex_slo_burn_rate \
  seedex_build_info seedex_process_uptime_seconds; do
  grep -q "^$family" "$OUT/metrics.prom" || fail "$family missing from Prometheus scrape"
done
grep -q "^seedex_build_info{.*version=\"$VERSION\"" "$OUT/metrics.prom" \
  || fail "seedex_build_info not carrying the ldflags-stamped version $VERSION"
grep -q '^# TYPE seedex_request_latency_seconds histogram' "$OUT/metrics.prom" \
  || fail "latency histogram TYPE line missing"
# The text format's grouping rule: each family has one HELP and one TYPE
# line, and its samples form one contiguous group.
python3 - "$OUT/metrics.prom" <<'EOF'
import sys
types, helps, ended, current = {}, set(), set(), None
for line in open(sys.argv[1]):
    line = line.rstrip("\n")
    if not line:
        continue
    if line.startswith("# HELP "):
        fam = line.split()[2]
        if fam in helps:
            raise SystemExit(f"FAIL: second HELP line for {fam}")
        helps.add(fam)
        continue
    if line.startswith("# TYPE "):
        fam, typ = line.split()[2:4]
        if fam in types or fam not in helps:
            raise SystemExit(f"FAIL: TYPE line for {fam} repeated or without HELP")
        types[fam] = typ
        continue
    fam = line.split("{")[0].split(" ")[0]
    for suf in ("_bucket", "_sum", "_count"):
        if fam.endswith(suf) and types.get(fam[: -len(suf)]) == "histogram":
            fam = fam[: -len(suf)]
    if fam not in types:
        raise SystemExit(f"FAIL: sample {line!r} has no TYPE line")
    if fam != current:
        if fam in ended:
            raise SystemExit(f"FAIL: family {fam} is split into several groups")
        if current:
            ended.add(current)
        current = fam
print(f"{len(types)} families, each one group")
EOF

# Trace exports are valid JSON and cover the pipeline stages.
python3 -c "import json,sys; json.load(open('$OUT/traces-chrome.json'))" \
  || fail "Chrome trace export is not valid JSON"
python3 - "$OUT/traces.ndjson" <<'EOF'
import json, sys
kinds = set()
for line in open(sys.argv[1]):
    line = line.strip()
    if line:
        kinds.add(json.loads(line)["span"])
need = {"request", "queue_wait", "batch_flush", "kernel", "check"}
missing = need - kinds
if missing:
    raise SystemExit(f"FAIL: NDJSON trace missing spans: {sorted(missing)} (got {sorted(kinds)})")
EOF
[ -s "$OUT/traces-slow.ndjson" ] || fail "slow top-K is empty"
# A span is written to one place, so one request's trace holds each span
# once; and with tail retention on, the slowest request's trace id
# resolves to its full journey, not just the root span the slow export
# shows.
python3 - "$OUT/trace-smoke-1.ndjson" "$OUT/trace-slowest.ndjson" <<'EOF'
import json, sys
def spans(path):
    return [json.loads(line) for line in open(path) if line.strip()]
one = spans(sys.argv[1])
if not one:
    raise SystemExit("FAIL: /debug/traces?trace=smoke-1 is empty")
keys = [json.dumps({k: v for k, v in s.items() if k != "wall_ns"}, sort_keys=True) for s in one]
dups = len(keys) - len(set(keys))
if dups:
    raise SystemExit(f"FAIL: /debug/traces?trace=smoke-1 repeats {dups} of its {len(keys)} spans")
slowest = spans(sys.argv[2])
if len(slowest) < 2:
    raise SystemExit(f"FAIL: the slowest request's trace resolves to {len(slowest)} span(s), want its full journey")
EOF
grep -q 'pprof' "$OUT/pprof-index.html" || fail "pprof index not served on debug address"

# Tail retention kept full journeys (the 1µs budget guarantees every
# request breached it) and the SLO engine reports all three objectives.
python3 - "$OUT/journeys.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
if doc["retained"] < 1:
    raise SystemExit("FAIL: tail sampling retained no journeys")
j = doc["journeys"][0]
for field in ("trace", "verdict", "spans"):
    if not j.get(field):
        raise SystemExit(f"FAIL: retained journey missing {field}: {j}")
EOF
python3 - "$OUT/slo.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
names = {o["name"] for o in doc["objectives"]}
need = {"extend-latency-p99", "availability"}
if not need <= names:
    raise SystemExit(f"FAIL: /debug/slo objectives {sorted(names)}, want {sorted(need)}")
windows = {w["window"] for o in doc["objectives"] for w in o["windows"]}
if not {"5m", "1h", "30m", "6h"} <= windows:
    raise SystemExit(f"FAIL: /debug/slo burn windows incomplete: {sorted(windows)}")
EOF

echo "== SIGQUIT flight dump =="
kill -QUIT "$SERVER_PID"
FLIGHT=""
for i in $(seq 1 50); do
  FLIGHT="$(ls "$OUT"/flight/flight-*-sigquit.tar.gz 2>/dev/null | head -1 || true)"
  [ -n "$FLIGHT" ] && break
  sleep 0.1
done
[ -n "$FLIGHT" ] || fail "SIGQUIT produced no flight tarball in $OUT/flight/"
tar -tzf "$FLIGHT" >"$OUT/flight-manifest.txt"
for entry in meta.json metrics.json slo.json journeys.json traces.ndjson goroutines.txt heap.pprof; do
  grep -qx "$entry" "$OUT/flight-manifest.txt" || fail "flight tarball missing $entry"
done
# The dump is an observer: the server must still be serving afterwards.
curl -fsS "http://$ADDR/healthz" >/dev/null || fail "server not serving after SIGQUIT dump"

kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT
echo "OK: observability smoke passed; artifacts in $OUT/"
