#!/usr/bin/env bash
# Per-request tracing smoke test against a release raven_serve: send one
# verification request with a client-supplied traceparent, and require:
#   * the response echoes the traceparent and carries a `trace` block
#     whose trace_id matches the one we sent;
#   * GET /v1/traces lists the trace;
#   * GET /v1/traces/{id} exports valid JSONL in which every record hangs
#     under the synthesized `request` root span;
#   * the Chrome trace-event export (`?format=chrome`) parses and holds
#     complete ("X") span events.
# Build first: cargo build --release -p raven-serve
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE_BIN=${SERVE_BIN:-./target/release/raven_serve}
ADDR=${ADDR:-127.0.0.1:8485}

if [ ! -x "$SERVE_BIN" ]; then
  echo "check_traces: $SERVE_BIN not built (cargo build --release -p raven-serve)" >&2
  exit 1
fi

WORK=$(mktemp -d)
"$SERVE_BIN" --models-dir models --addr "$ADDR" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$WORK"' EXIT

for _ in $(seq 1 50); do
  if curl -sf "http://$ADDR/v1/healthz" > /dev/null 2>&1; then break; fi
  sleep 0.2
done

body=$(awk '
  /^#/ || NF == 0 { next }
  {
    labels = labels (labels ? "," : "") $1
    row = ""
    for (i = 2; i <= NF; i++) row = row (row ? "," : "") $i
    inputs = inputs (inputs ? "," : "") "[" row "]"
  }
  END {
    printf "{\"model\":\"demo\",\"eps\":0.03,\"method\":\"raven\",\"inputs\":[%s],\"labels\":[%s]}", inputs, labels
  }' models/demo_batch.txt)

TRACE_ID=0af7651916cd43dd8448eb211c80319c
TRACEPARENT="00-$TRACE_ID-b7ad6b7169203331-01"
response=$(curl -sf -D "$WORK/headers" -H "traceparent: $TRACEPARENT" \
  -X POST "http://$ADDR/v1/verify/uap" -d "$body")
grep -qi "traceparent: 00-$TRACE_ID" "$WORK/headers" \
  || { echo "check_traces: response did not echo the traceparent" >&2; exit 1; }
echo "$response" | grep -q "\"trace_id\":\"$TRACE_ID\"" \
  || { echo "check_traces: envelope trace block missing or wrong id: $response" >&2; exit 1; }
echo "check_traces: traced verdict served, traceparent echoed"

curl -sf "http://$ADDR/v1/traces" | grep -q "\"trace_id\":\"$TRACE_ID\"" \
  || { echo "check_traces: /v1/traces does not list the trace" >&2; exit 1; }

curl -sf "http://$ADDR/v1/traces/$TRACE_ID" > "$WORK/trace.jsonl"
curl -sf "http://$ADDR/v1/traces/$TRACE_ID?format=chrome" > "$WORK/trace.json"
python3 - "$TRACE_ID" "$WORK" <<'EOF'
import json, sys

trace_id, work = sys.argv[1], sys.argv[2]
lines = [json.loads(l) for l in open(f"{work}/trace.jsonl") if l.strip()]
meta, records = lines[0], lines[1:]
assert meta["type"] == "trace" and meta["trace_id"] == trace_id, meta
assert all(r["trace"] == trace_id for r in records), "untagged record"

spans = {r["id"]: r for r in records if r["type"] == "span"}
roots = [r for r in records if r["name"] == "request" and r["parent"] == 0]
assert len(roots) == 1, f"want one request root, got {roots}"
root = roots[0]["id"]
for r in records:
    node, seen = r, 0
    while node["id"] != root:
        assert node["parent"] in spans, f"record not under the request root: {r}"
        node = spans[node["parent"]]
        seen += 1
        assert seen <= len(spans), f"parent cycle at {r}"

events = json.load(open(f"{work}/trace.json"))["traceEvents"]
complete = [e for e in events if e.get("ph") == "X"]
assert complete, "chrome export holds no span events"
assert all("dur" in e for e in complete), "span event without a duration"
print(f"check_traces: {len(records)} records under one request root, "
      f"{len(events)} chrome events")
EOF

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap 'rm -rf "$WORK"' EXIT
echo "check_traces: one trace per request, JSONL and Chrome exports valid"
