#!/usr/bin/env bash
# End-to-end certificate round trips against a live server: submit a job
# with certificate=1, poll it to completion, extract the certificate from
# the envelope, and replay it with the standalone `raven_check` binary —
# once at the analysis tier and once through the spec MILP. Fails when a
# job errors, no certificate comes back, the verdict differs from a plain
# run, or the exact checker rejects the replay (or, for the MILP run,
# replays no LP proof).
# Uses the release binaries (build with `cargo build --release` first).
set -euo pipefail
cd "$(dirname "$0")/.."

SERVE_BIN=${SERVE_BIN:-./target/release/raven_serve}
CHECK_BIN=${CHECK_BIN:-./target/release/raven_check}
ADDR=${ADDR:-127.0.0.1:8474}

for bin in "$SERVE_BIN" "$CHECK_BIN"; do
  if [ ! -x "$bin" ]; then
    echo "check_certificate: $bin not built (run cargo build --release)" >&2
    exit 1
  fi
done

"$SERVE_BIN" --models-dir models --addr "$ADDR" &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true' EXIT

for _ in $(seq 1 50); do
  if curl -sf "http://$ADDR/v1/healthz" > /dev/null 2>&1; then break; fi
  sleep 0.2
done

# Extract the innermost verdict object: job-status responses wrap the
# verify envelope in their own "result" field, so descend until the node
# has no further "result" child. The sed fallback relies on greedy `.*`
# matching the last "result": occurrence, which is the same inner object.
result_of() { python3 - "$1" <<'EOF' 2>/dev/null || echo "$1" | sed -n 's/.*"result":\({[^}]*}\).*/\1/p'
import json, sys
node = json.loads(sys.argv[1])
while isinstance(node.get("result"), dict):
    node = node["result"]
print(json.dumps(node, separators=(",", ":")))
EOF
}

# One round trip over the committed demo batch at ε = $1: an async
# submission with certificate=1, polled to completion, its verdict compared
# with a plain synchronous run, and its certificate replayed. With a second
# argument `lp`, the checker must also have replayed an LP/MILP proof.
round_trip() {
  local eps=$1 want=${2:-}
  local body submit job_id envelope status plain_body plain r1 r2 report
  body=$(awk -v eps="$eps" '
    /^#/ || NF == 0 { next }
    {
      labels = labels (labels ? "," : "") $1
      row = ""
      for (i = 2; i <= NF; i++) row = row (row ? "," : "") $i
      inputs = inputs (inputs ? "," : "") "[" row "]"
    }
    END {
      printf "{\"property\":\"uap\",\"model\":\"demo\",\"eps\":%s,\"method\":\"raven\",\"certificate\":1,\"inputs\":[%s],\"labels\":[%s]}", eps, inputs, labels
    }' models/demo_batch.txt)
  submit=$(curl -sf -X POST "http://$ADDR/v1/jobs" -d "$body")
  echo "submit (eps $eps): $submit"
  job_id=$(echo "$submit" | sed -n 's/.*"job_id":\([0-9][0-9]*\).*/\1/p')
  [ -n "$job_id" ] || { echo "check_certificate: no job_id in ack" >&2; exit 1; }

  envelope=""
  for _ in $(seq 1 100); do
    status=$(curl -sf "http://$ADDR/v1/jobs/$job_id")
    case "$status" in
      *'"status":"done"'*) envelope=$status; break ;;
      *'"status":"failed"'*|*'"status":"quarantined"'*)
        echo "check_certificate: job failed: $status" >&2; exit 1 ;;
    esac
    sleep 0.2
  done
  [ -n "$envelope" ] || { echo "check_certificate: job never finished" >&2; exit 1; }

  case "$envelope" in
    *'"certificate":null'*)
      echo "check_certificate: run produced no certificate" >&2; exit 1 ;;
    *'"certificate":'*) ;;
    *)
      echo "check_certificate: envelope carries no certificate field" >&2; exit 1 ;;
  esac

  # The verdict must be byte-identical with and without certification: the
  # certificate rides next to `result`, never inside it.
  plain_body=${body/'"certificate":1,'/}
  plain=$(curl -sf -X POST "http://$ADDR/v1/verify/uap" -d "$plain_body")
  r1=$(result_of "$envelope")
  r2=$(result_of "$plain")
  if [ -z "$r1" ] || [ "$r1" != "$r2" ]; then
    echo "check_certificate: verdict bytes differ with certificate=1 (eps $eps)" >&2
    echo "with   : $r1" >&2
    echo "without: $r2" >&2
    exit 1
  fi

  # The standalone checker unwraps the envelope itself and exits non-zero
  # on rejection (1) or malformed input (2).
  report=$(echo "$envelope" | "$CHECK_BIN")
  echo "raven_check (eps $eps): $report"
  case "$report" in
    *'"ok":true'*) ;;
    *) echo "check_certificate: checker did not accept" >&2; exit 1 ;;
  esac
  if [ "$want" = lp ]; then
    case "$report" in
      *'"lp_checked":true'*) ;;
      *) echo "check_certificate: no LP/MILP proof replayed (eps $eps)" >&2; exit 1 ;;
    esac
  fi
}

# ε = 0.01 settles at the analysis tier (DeepPoly records only); ε = 0.1
# reaches the spec MILP, so its certificate carries a branch-and-bound
# proof.
round_trip 0.01
round_trip 0.1 lp

kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
trap - EXIT
echo "check_certificate: certificates replayed and accepted"
