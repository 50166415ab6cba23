#!/usr/bin/env bash
# End-to-end serving-layer crash recovery: start asketchd with a
# snapshot prefix, ingest over TCP, cut an explicit snapshot (recording
# its digest), kill -9 the server while a second ingest is in flight,
# restart with --recover, and require the recovered state digest — both
# the one printed at startup and the one probed over the wire — to be
# bit-identical to the recorded snapshot digest. Everything ingested
# after the snapshot must be gone: durability is exactly the snapshot,
# no more and no less.
#
# The whole flow runs once per sketch backend (countmin, salsa):
# recovery must be agnostic to the backend. A last case checks that a
# daemon with --metrics-port serves ingest and snapshot spans on
# /trace.json.
#
# usage: asketchd_recovery_smoke.sh <build_dir>
set -u

BUILD_DIR=${1:?usage: asketchd_recovery_smoke.sh <build_dir>}
ASKETCHD="$BUILD_DIR/tools/asketchd"
LOADGEN="$BUILD_DIR/tools/asketch_loadgen"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/asketchd_smoke.XXXXXX")
SERVER_PID=""
trap '[ -n "$SERVER_PID" ] && kill -9 "$SERVER_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

[ -x "$ASKETCHD" ] || fail "missing $ASKETCHD"
[ -x "$LOADGEN" ] || fail "missing $LOADGEN"

# Starts asketchd with stdout to $1 and waits for the listening line;
# sets SERVER_PID and PORT.
start_server() {
  local log=$1; shift
  "$ASKETCHD" "${DAEMON_FLAGS[@]}" "$@" >"$log" 2>&1 &
  SERVER_PID=$!
  for _ in $(seq 1 100); do
    if grep -q 'asketchd listening on 127.0.0.1:' "$log"; then
      PORT=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")
      return 0
    fi
    kill -0 "$SERVER_PID" 2>/dev/null || fail "server died: $(cat "$log")"
    sleep 0.1
  done
  fail "server never started listening: $(cat "$log")"
}

run_smoke() {
  local backend=$1
  local dir="$WORK/$backend"
  mkdir -p "$dir"
  PREFIX="$dir/ckpt/serve"
  DAEMON_FLAGS=(--port 0 --shards 4 --bytes 32768 --prefix "$PREFIX"
                --sketch "$backend")
  echo "--- backend: $backend ---"

  start_server "$dir/server1.log"
  echo "server up on port $PORT (pid $SERVER_PID)"

  "$LOADGEN" --port "$PORT" --tuples 200000 --keys 20000 --seed 5 \
    >"$dir/load1.log" 2>&1 || fail "initial load: $(cat "$dir/load1.log")"

  "$LOADGEN" --port "$PORT" --snapshot >"$dir/snap.log" 2>&1 \
    || fail "snapshot: $(cat "$dir/snap.log")"
  SAVED=$(sed -n 's/^snapshot \(.*\)$/\1/p' "$dir/snap.log")
  [ -n "$SAVED" ] || fail "no snapshot line in: $(cat "$dir/snap.log")"
  echo "recorded snapshot: $SAVED"

  # Second ingest, killed mid-flight. The loadgen is expected to die
  # with a connection error once the server is gone — ignore its status.
  "$LOADGEN" --port "$PORT" --tuples 8000000 --keys 20000 --seed 6 \
    >"$dir/load2.log" 2>&1 &
  LOAD_PID=$!
  sleep 0.3
  kill -9 "$SERVER_PID" 2>/dev/null || fail "server already gone before kill"
  wait "$SERVER_PID" 2>/dev/null
  [ $? -eq 137 ] || fail "expected SIGKILL exit 137"
  SERVER_PID=""
  wait "$LOAD_PID" 2>/dev/null
  echo "killed server mid-ingest"

  start_server "$dir/server2.log" --recover
  RECOVERED=$(sed -n 's/^recovered \(.*\)$/\1/p' "$dir/server2.log")
  [ -n "$RECOVERED" ] || fail "no recovered line in: $(cat "$dir/server2.log")"
  echo "startup reports: $RECOVERED"
  [ "$RECOVERED" = "$SAVED" ] \
    || fail "recovered state differs from snapshot: '$RECOVERED' vs '$SAVED'"

  "$LOADGEN" --port "$PORT" --probe >"$dir/probe.log" 2>&1 \
    || fail "probe: $(cat "$dir/probe.log")"
  PROBED=$(sed -n 's/^digest \(.*\)$/\1/p' "$dir/probe.log")
  [ "$PROBED" = "$SAVED" ] \
    || fail "wire digest differs from snapshot: '$PROBED' vs '$SAVED'"

  kill "$SERVER_PID" 2>/dev/null
  wait "$SERVER_PID" 2>/dev/null
  SERVER_PID=""
}

# 32-bit flags: a value above UINT32_MAX is a usage error (exit 2), not
# a silent truncation (--max-connections 4294967296 would become 0 and
# refuse every connection). A daemon that starts anyway is stopped by
# the timeout, which fails the check with status 124.
for case in "--filter 4294967297" "--retain 4294967297" \
            "--checkpoint-interval-ms 4294967296" \
            "--max-connections 4294967296"; do
  # shellcheck disable=SC2086  # split "flag value" into two arguments
  timeout 10 "$ASKETCHD" --port 0 $case >"$WORK/flag.log" 2>&1
  status=$?
  [ "$status" -eq 2 ] \
    || fail "asketchd $case: expected usage exit 2, got $status: $(cat "$WORK/flag.log")"
done
# The same for the loadgen's 32-bit flags; it checks them before it
# connects, so no server is needed.
for case in "--ack-every 4294967297" "--window 4294967296"; do
  # shellcheck disable=SC2086  # split "flag value" into two arguments
  timeout 10 "$LOADGEN" --port 1 $case >"$WORK/flag.log" 2>&1
  status=$?
  [ "$status" -eq 2 ] \
    || fail "asketch_loadgen $case: expected usage exit 2, got $status: $(cat "$WORK/flag.log")"
done
echo "oversized 32-bit flag values rejected with usage"
# A non-finite skew is a usage error before the stream is generated;
# the Zipf sampler would abort on NaN and stall on inf (hence timeout).
for skew in nan inf; do
  timeout 10 "$LOADGEN" --port 1 --tuples 10 --keys 10 --skew "$skew" \
    >"$WORK/flag.log" 2>&1
  status=$?
  [ "$status" -eq 2 ] \
    || fail "asketch_loadgen --skew $skew: expected usage exit 2, got $status: $(cat "$WORK/flag.log")"
done
echo "non-finite loadgen skew rejected with usage"

# /trace.json: with --metrics-port the daemon records spans, so after
# an ingest and a SIGUSR1 checkpoint the timeline holds both.
trace_smoke() {
  local dir="$WORK/trace"
  mkdir -p "$dir"
  DAEMON_FLAGS=(--port 0 --shards 2 --bytes 32768 --metrics-port 0
                --prefix "$dir/ckpt/serve")
  echo "--- /trace.json ---"
  start_server "$dir/server.log"
  local metrics_port
  metrics_port=$(sed -n 's/^metrics on http:\/\/127\.0\.0\.1:\([0-9]*\).*/\1/p' \
                   "$dir/server.log")
  [ -n "$metrics_port" ] || fail "no metrics line in: $(cat "$dir/server.log")"
  "$LOADGEN" --port "$PORT" --tuples 200000 --keys 20000 --seed 5 \
    >"$dir/load.log" 2>&1 || fail "trace load: $(cat "$dir/load.log")"
  kill -USR1 "$SERVER_PID"
  for _ in $(seq 1 100); do
    grep -q '^checkpoint generation=' "$dir/server.log" && break
    sleep 0.1
  done
  grep -q '^checkpoint generation=' "$dir/server.log" \
    || fail "SIGUSR1 cut no checkpoint: $(cat "$dir/server.log")"
  # One HTTP/1.0 GET over bash's /dev/tcp; the exporter closes the
  # connection after the response.
  timeout 10 bash -c 'exec 3<>"/dev/tcp/127.0.0.1/$1" &&
      printf "GET /trace.json HTTP/1.0\r\n\r\n" >&3 && cat <&3' \
    _ "$metrics_port" >"$dir/trace.json" \
    || fail "GET /trace.json failed"
  if grep -q '^ASKETCH_NO_TELEMETRY:BOOL=ON' "$BUILD_DIR/CMakeCache.txt" \
       2>/dev/null; then
    echo "telemetry compiled out: /trace.json is empty by design"
  else
    for span in snapshot_save asketch_update_batch; do
      grep -q "\"name\":\"$span\"" "$dir/trace.json" \
        || fail "/trace.json has no $span span: $(head -c 300 "$dir/trace.json")"
    done
    echo "/trace.json records snapshot_save and asketch_update_batch"
  fi
  kill "$SERVER_PID" 2>/dev/null
  wait "$SERVER_PID" 2>/dev/null
  SERVER_PID=""
}

run_smoke countmin
run_smoke salsa
trace_smoke

echo "PASS: recovered serving state is bit-identical to the snapshot (both backends); /trace.json records spans"
