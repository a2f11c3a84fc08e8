#!/usr/bin/env bash
# Fleet dispatch smoke test: start raven-serve with a fleet listener, a
# healthy raven_worker, and a Byzantine raven_worker that corrupts every
# certificate it ships. Require:
#   * every verdict served through the fleet is byte-identical to a
#     fleet-less run of the same request;
#   * the Byzantine worker's results are all rejected by certificate
#     replay and the worker ends up quarantined
#     (raven_serve_fleet_quarantined_workers_total >= 1);
#   * at least one job was solved remotely (the healthy worker is used).
#
# With `--kill` the script runs the kill-chaos variant instead: the only
# worker stalls on its job and is SIGKILLed while it holds it, and the
# final verdict must still be byte-identical to a fleet-less run with
# raven_serve_fleet_local_fallbacks_total >= 1 (the orphaned job was
# re-solved locally).
#
# Byzantine modes are compiled in under the `chaos` feature, so build
# with: cargo build --release -p raven-serve --features raven-serve/chaos
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE_BIN=${SERVE_BIN:-./target/release/raven_serve}
WORKER_BIN=${WORKER_BIN:-./target/release/raven_worker}
ADDR=${ADDR:-127.0.0.1:8475}
FLEET_ADDR=${FLEET_ADDR:-127.0.0.1:8476}

KILL=0
if [ "${1:-}" = "--kill" ]; then
  KILL=1
fi

for bin in "$SERVE_BIN" "$WORKER_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "fleet_smoke: $bin not built (cargo build --release -p raven-serve --features raven-serve/chaos)" >&2
    exit 1
  fi
done

PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
}
trap cleanup EXIT

wait_http() {
  for _ in $(seq 1 50); do
    if curl -sf "http://$1/v1/healthz" > /dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "fleet_smoke: server on $1 never came up" >&2
  return 1
}

# Fleet-eligible requests: method `raven` emits a certificate at every
# tier, which the gate demands from remote workers. Each request uses a
# distinct eps so it is a distinct job — identical bodies would be served
# from the result cache after the first solve and never reach the fleet.
EPS_LIST="0.010 0.012 0.014 0.016 0.018 0.020 0.025 0.030"
body_for() {
  awk -v eps="$1" '
    /^#/ || NF == 0 { next }
    {
      labels = labels (labels ? "," : "") $1
      row = ""
      for (i = 2; i <= NF; i++) row = row (row ? "," : "") $i
      inputs = inputs (inputs ? "," : "") "[" row "]"
    }
    END {
      printf "{\"property\":\"uap\",\"model\":\"demo\",\"eps\":%s,\"method\":\"raven\",\"inputs\":[%s],\"labels\":[%s]}", eps, inputs, labels
    }' models/demo_batch.txt
}

# Job-status responses nest the verify envelope; descend to the innermost
# verdict object so fleet and fleet-less runs compare byte-for-byte.
result_of() { python3 - "$1" <<'EOF' 2>/dev/null || echo "$1" | sed -n 's/.*"result":\({[^}]*}\).*/\1/p'
import json, sys
node = json.loads(sys.argv[1])
while isinstance(node.get("result"), dict):
    node = node["result"]
print(json.dumps(node, separators=(",", ":")))
EOF
}

# --- Reference run: no fleet at all. -----------------------------------
"$SERVE_BIN" --models-dir models --addr "$ADDR" &
SERVE_PID=$!
PIDS+=("$SERVE_PID")
wait_http "$ADDR"
BASELINE_DIR=$(mktemp -d)
for eps in $EPS_LIST; do
  baseline=$(result_of "$(curl -sf -X POST "http://$ADDR/v1/verify/uap" -d "$(body_for "$eps")")")
  [ -n "$baseline" ] || { echo "fleet_smoke: empty baseline verdict at eps=$eps" >&2; exit 1; }
  echo "$baseline" > "$BASELINE_DIR/$eps"
done
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
echo "fleet_smoke: baseline verdicts captured"

# --- Kill-chaos run (--kill): kill the worker mid-job. -----------------
if [ "$KILL" -eq 1 ]; then
  # A stalling worker holds its job until the SIGKILL lands, so the kill
  # is guaranteed to be mid-job; --workers 1 keeps the local pool
  # saturated so the job actually dispatches.
  "$SERVE_BIN" --models-dir models --addr "$ADDR" --fleet-addr "$FLEET_ADDR" \
    --workers 1 --fleet-timeout-ms 5000 &
  SERVE_PID=$!
  PIDS+=("$SERVE_PID")
  wait_http "$ADDR"

  RAVEN_WORKER_CHAOS=stall \
    "$WORKER_BIN" --connect "$FLEET_ADDR" --models-dir models --name victim &
  VICTIM_PID=$!
  PIDS+=("$VICTIM_PID")
  for _ in $(seq 1 50); do
    workers=$(curl -sf "http://$ADDR/v1/healthz" | grep -c '"connected":true' || true)
    [ "$workers" -ge 1 ] && break
    sleep 0.2
  done
  [ "$workers" -ge 1 ] || { echo "fleet_smoke: victim worker never registered" >&2; exit 1; }

  eps=0.010
  VERDICT_FILE=$(mktemp)
  curl -sf -X POST "http://$ADDR/v1/verify/uap" -d "$(body_for "$eps")" > "$VERDICT_FILE" &
  CURL_PID=$!
  # Wait until the victim holds the job, then SIGKILL it mid-job.
  for _ in $(seq 1 100); do
    dispatched=$(curl -sf "http://$ADDR/v1/metrics" \
      | awk '$1 == "raven_serve_fleet_dispatches_total" { print $2 }')
    [ "${dispatched:-0}" -ge 1 ] && break
    sleep 0.1
  done
  [ "${dispatched:-0}" -ge 1 ] || { echo "fleet_smoke: the job was never dispatched" >&2; exit 1; }
  kill -9 "$VICTIM_PID"
  echo "fleet_smoke: victim worker SIGKILLed mid-job"

  wait "$CURL_PID"
  verdict=$(result_of "$(cat "$VERDICT_FILE")")
  baseline=$(cat "$BASELINE_DIR/$eps")
  if [ "$verdict" != "$baseline" ]; then
    echo "fleet_smoke: verdict diverged from the fleet-less baseline" >&2
    echo "fleet    : $verdict" >&2
    echo "baseline : $baseline" >&2
    exit 1
  fi
  echo "fleet_smoke: verdict byte-identical to baseline"

  metrics=$(curl -sf "http://$ADDR/v1/metrics")
  metric() { echo "$metrics" | awk -v name="$1" '$1 == name { print $2 }'; }
  fallbacks=$(metric raven_serve_fleet_local_fallbacks_total)
  echo "fleet_smoke: local_fallbacks=$fallbacks"
  [ "${fallbacks:-0}" -ge 1 ] || { echo "fleet_smoke: orphaned job never fell back locally" >&2; exit 1; }

  kill -TERM "$SERVE_PID"
  wait "$SERVE_PID"
  trap - EXIT
  cleanup
  echo "fleet_smoke: worker kill contained; verdict bytes unchanged"
  exit 0
fi

# --- Fleet run: one honest worker, one Byzantine worker. ---------------
# Dispatch unconditionally (--fleet-when-saturated 0): this run probes
# the certificate gate, so every query must reach the fleet even though
# the local pool is idle, and both workers must be claimable in parallel
# so the Byzantine one keeps getting jobs until it strikes out.
"$SERVE_BIN" --models-dir models --addr "$ADDR" --fleet-addr "$FLEET_ADDR" \
  --fleet-when-saturated 0 --worker-reject-strikes 2 &
SERVE_PID=$!
PIDS+=("$SERVE_PID")
wait_http "$ADDR"

"$WORKER_BIN" --connect "$FLEET_ADDR" --models-dir models --name honest &
PIDS+=("$!")
RAVEN_WORKER_CHAOS=corrupt-duals \
  "$WORKER_BIN" --connect "$FLEET_ADDR" --models-dir models --name byzantine &
PIDS+=("$!")

for _ in $(seq 1 50); do
  workers=$(curl -sf "http://$ADDR/v1/healthz" | grep -o '"name":"[^"]*"' | wc -l)
  [ "$workers" -ge 2 ] && break
  sleep 0.2
done
[ "$workers" -ge 2 ] || { echo "fleet_smoke: workers never registered" >&2; exit 1; }
echo "fleet_smoke: both workers registered"

# Enough distinct jobs that dispatch hits the Byzantine worker until it
# strikes out; every served verdict must match its baseline bytes.
for eps in $EPS_LIST; do
  verdict=$(result_of "$(curl -sf -X POST "http://$ADDR/v1/verify/uap" -d "$(body_for "$eps")")")
  baseline=$(cat "$BASELINE_DIR/$eps")
  if [ "$verdict" != "$baseline" ]; then
    echo "fleet_smoke: verdict at eps=$eps diverged from the fleet-less baseline" >&2
    echo "fleet    : $verdict" >&2
    echo "baseline : $baseline" >&2
    exit 1
  fi
done
echo "fleet_smoke: 8/8 fleet verdicts byte-identical to baseline"

metrics=$(curl -sf "http://$ADDR/v1/metrics")
metric() { echo "$metrics" | awk -v name="$1" '$1 == name { print $2 }'; }
quarantined=$(metric raven_serve_fleet_quarantined_workers_total)
rejected=$(metric raven_serve_fleet_rejected_total)
remote=$(metric raven_serve_fleet_remote_solves_total)
echo "fleet_smoke: quarantined=$quarantined rejected=$rejected remote_solves=$remote"
[ "${quarantined:-0}" -ge 1 ] || { echo "fleet_smoke: Byzantine worker never quarantined" >&2; exit 1; }
[ "${rejected:-0}" -ge 1 ] || { echo "fleet_smoke: no certificate rejections recorded" >&2; exit 1; }
[ "${remote:-0}" -ge 1 ] || { echo "fleet_smoke: no job was solved remotely" >&2; exit 1; }

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
cleanup
echo "fleet_smoke: Byzantine worker contained; verdict bytes unchanged"
