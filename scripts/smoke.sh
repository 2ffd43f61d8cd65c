#!/usr/bin/env bash
# The live smokes CI runs, one name each: the CLIs built once and driven
# the way an operator would — probefleet daemons scraped and
# administered with curl, a probed device crashed and restarted under a
# probecp monitor, probesim and probebench reproducing artefacts.
# Unit and battery tests are not here: `go test ./...` and `go test
# -race ./...` (the test and race jobs) run them, the conformance and
# adversarial batteries and the loopback scale paths included.
#
#   bash scripts/smoke.sh <name>     # one of the names in the case below
#   bash scripts/smoke.sh all
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

tmp="$(mktemp -d)"
daemon="" client=""
cleanup() {
  local status=$?
  for pid in $daemon $client; do
    kill -TERM "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  done
  if [ "$status" -ne 0 ]; then
    cat "$tmp"/*.log 2>/dev/null || true # what the daemon said before the check failed
  fi
  rm -rf "$tmp"
}
trap cleanup EXIT

go build -o "$tmp/" ./cmd/probesim ./cmd/probebench ./cmd/probefleet ./cmd/probed ./cmd/probecp
probesim="$tmp/probesim" probebench="$tmp/probebench" probefleet="$tmp/probefleet"
probed="$tmp/probed" probecp="$tmp/probecp"

# start_daemon LOG ARGS...: probefleet in the background, output to LOG.
start_daemon() {
  local log="$1"
  shift
  "$probefleet" "$@" >"$log" 2>&1 &
  daemon=$!
}

# stop_daemon: SIGTERM (the final dump path) and reap.
stop_daemon() {
  kill -TERM "$daemon" 2>/dev/null || true
  wait "$daemon" || true
  daemon=""
}

# wait_up URL: poll until the status plane answers.
wait_up() {
  for _ in $(seq 1 100); do
    curl -sf "$1" >/dev/null && return 0
    sleep 0.1
  done
  echo "smoke: $1 never came up" >&2
  return 1
}

# eventually CMD...: retry CMD every 0.1 s until it succeeds, for up to 15 s.
eventually() {
  for _ in $(seq 1 150); do
    "$@" && return 0
    sleep 0.1
  done
  echo "smoke: timed out waiting for: $*" >&2
  return 1
}

# nonzero FILE FAMILY / zero FILE FAMILY: one label-less series of an exposition.
nonzero() { awk -v f="$2" '$1 == f { if ($2+0 > 0) ok=1 } END { exit !ok }' "$1"; }
zero() { awk -v f="$2" '$1 == f { if ($2+0 > 0) bad=1 } END { exit bad }' "$1"; }

# field LOG KEY: one key=value of a probefleet run's final dump line
# ("probefleet: final after 5s — cps=2000/2000 in=… errs dec=0 …").
field() { grep '^probefleet: final after' "$1" | tr ' ' '\n' | sed -n "s/^$2=//p"; }

# steady LOG CPS: the run ended with all CPS control points alive and
# no decode errors, send errors or demux collisions.
steady() {
  grep '^probefleet: final after' "$1"
  [ "$(field "$1" cps)" = "$2/$2" ] && [ "$(field "$1" dec)" = 0 ] &&
    [ "$(field "$1" send)" = 0 ] && [ "$(field "$1" coll)" = 0 ] ||
    { echo "smoke: $1: want cps=$2/$2 and errs dec=0 send=0 coll=0" >&2; return 1; }
}

scenario() {
  # Round-trip a scenario through JSON, then the population-model sweep.
  "$probesim" -scenario fig5-uniform-churn -dump-scenario "$tmp/fig5.json"
  cat "$tmp/fig5.json"
  "$probesim" -scenario "$tmp/fig5.json" -duration 60s
  "$probebench" -scale short -only ext-churn-models -out ''
}

auth() {
  # An authenticated daemon from a keyfile, its master key rotated live
  # over SIGHUP: verified frames, zero rejections, both sides of it.
  local url=http://127.0.0.1:19092
  echo 'ci-master-secret-v1' >"$tmp/fleet.key"
  start_daemon "$tmp/auth.log" -cps 500 -shards 2 -rate 10 -loopback 2 -auth-keyfile "$tmp/fleet.key" -auth-require -status 127.0.0.1:19092 -duration 20s -interval 5s
  wait_up "$url/healthz"
  sleep 6
  curl -sf "$url/statusz" | python3 -c 'import json,sys; st=json.load(sys.stdin); assert st["auth_enabled"] and st["total"]["AuthVerified"]>0 and st["total"]["AuthRejected"]==0'
  echo 'ci-master-secret-v2' >"$tmp/fleet.key"
  kill -HUP "$daemon"
  sleep 5
  curl -sf "$url/metrics" >"$tmp/expo.txt"
  nonzero "$tmp/expo.txt" fleet_auth_verified_total
  zero "$tmp/expo.txt" fleet_auth_rejected_total
  stop_daemon
  grep -q 'SIGHUP — auth key reloaded' "$tmp/auth.log"
}

fleet-scale() {
  # 2k CPs on shared sockets with batched I/O; then -single, the
  # portable one-datagram-per-call fallback, so this leg passes without
  # the Linux recvmmsg/sendmmsg binding too.
  # DCPP's own budget leaves no stale duplicate reply to drop.
  "$probefleet" -cps 2000 -loopback 4 -duration 5s -interval 1s >"$tmp/dcpp.log" 2>&1
  steady "$tmp/dcpp.log" 2000
  [ "$(field "$tmp/dcpp.log" drop)" = 0 ]
  "$probefleet" -cps 2000 -loopback 2 -rate 4 -single -duration 5s -interval 1s >"$tmp/single.log" 2>&1
  steady "$tmp/single.log" 2000
  # One syscall per packet each way: syscalls=<in calls>/<out calls>.
  [ "$(field "$tmp/single.log" syscalls)" = "$(field "$tmp/single.log" in)/$(field "$tmp/single.log" out)" ]
}

observability() {
  # A 2-shard daemon scraped under live probe load: the exposition
  # parses, the key series are nonzero, SIGQUIT dumps the flight
  # recorder without stopping the daemon.
  local url=http://127.0.0.1:19090
  start_daemon "$tmp/obs.log" -cps 500 -shards 2 -rate 20 -status 127.0.0.1:19090 -duration 15s
  wait_up "$url/healthz"
  sleep 5
  curl -sf "$url/metrics" >"$tmp/expo.txt"
  grep -q '^# TYPE fleet_probe_rtt_seconds histogram' "$tmp/expo.txt"
  grep -q '^# TYPE fleet_detection_latency_seconds histogram' "$tmp/expo.txt"
  nonzero "$tmp/expo.txt" fleet_replies_in_total
  nonzero "$tmp/expo.txt" fleet_probe_rtt_seconds_count
  curl -sf "$url/statusz" | python3 -c 'import json,sys; st=json.load(sys.stdin); assert st["shards"]==2 and st["total"]["RepliesIn"]>0 and st["histograms"]["probe_rtt_us"]["count"]>0'
  curl -sf "$url/debug/flight" >"$tmp/flight.txt"
  grep -q probe-sent "$tmp/flight.txt"
  kill -QUIT "$daemon"
  sleep 1
  curl -sf "$url/healthz" >/dev/null
  stop_daemon
}

admin() {
  # A churning daemon (50 add/remove ops/s) drained, rebalanced and
  # reconfigured over the admin endpoints.
  local url=http://127.0.0.1:19091
  start_daemon "$tmp/admin.log" -cps 300 -shards 2 -rate 10 -status 127.0.0.1:19091 -admin -churn 50 -duration 25s -interval 5s
  wait_up "$url/healthz"
  sleep 6
  curl -sf "$url/admin/config" | python3 -c 'import json,sys; c=json.load(sys.stdin); assert c["version"]>=1 and c["config"]["admission_queue"]>0'
  curl -sf -X POST -d '{"per_device_probe_hz":500}' "$url/admin/config" | grep '"version":2'
  curl -sf -X POST -d '{"shard":0}' "$url/admin/drain" | python3 -c 'import json,sys; assert json.load(sys.stdin)["moved"] > 0'
  curl -sf -X POST -d '{}' "$url/admin/rebalance"
  curl -sf "$url/metrics" >"$tmp/expo.txt"
  nonzero "$tmp/expo.txt" fleet_migrations_total
  grep -q '^# TYPE fleet_admission_rejected_total counter' "$tmp/expo.txt"
  curl -sf "$url/statusz" | python3 -c 'import json,sys; st=json.load(sys.stdin); assert st["config_version"]>=2'
  stop_daemon
}

daemons() {
  # A device daemon SIGKILLed and started again on its port while a
  # probecp -restart monitor keeps running: the monitor declares it
  # LOST, then hears from the restarted device, then gets its BYE.
  local addr=127.0.0.1:19411 cplog="$tmp/probecp.log"
  "$probed" -listen "$addr" >"$tmp/probed-1.log" 2>&1 &
  daemon=$!
  eventually grep -q 'listening on' "$tmp/probed-1.log"
  "$probecp" -device "$addr" -v -restart >"$cplog" 2>&1 &
  client=$!
  eventually grep -q ' alive ' "$cplog"
  kill -KILL "$daemon"
  wait "$daemon" || true
  eventually grep -q 'LOST' "$cplog"
  "$probed" -listen "$addr" >"$tmp/probed-2.log" 2>&1 &
  daemon=$!
  eventually awk '/restarting monitor/ { r = 1 } r && / alive / { ok = 1 } END { exit !ok }' "$cplog"
  kill -TERM "$daemon"
  wait "$daemon"
  daemon=""
  eventually grep -q 'said BYE' "$cplog"
  kill -INT "$client"
  wait "$client"
  client=""
  grep -q '; 0 decode errors' "$cplog"
  cat "$cplog"
  # Three control points notice a silent device crash, each inside the budget.
  go run ./examples/udp-live | tee "$tmp/udp-live.txt"
  [ "$(grep -c 'lost after' "$tmp/udp-live.txt")" -eq 3 ]
  [ "$(grep -c 'not yet detected' "$tmp/udp-live.txt")" -eq 0 ]
}

multicore() {
  # Two shards on one UDP port (SO_REUSEPORT).
  "$probefleet" -cps 2000 -shards 2 -reuseport -rate 4 -loopback 2 -duration 5s -interval 1s >"$tmp/multicore.log" 2>&1
  steady "$tmp/multicore.log" 2000
  grep 'SO_REUSEPORT active' "$tmp/multicore.log"
}

names=(scenario auth fleet-scale observability admin multicore daemons)
if [ "${1:-}" = all ]; then
  for n in "${names[@]}"; do
    echo "== smoke: $n"
    "$n"
  done
elif [[ -n "${1:-}" && " ${names[*]} " == *" $1 "* ]]; then
  "$1"
else
  echo "usage: $0 <${names[*]} | all>" >&2
  exit 2
fi
