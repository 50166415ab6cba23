#!/usr/bin/env bash
# Crash-recovery smoke: ingest a stream with periodic checkpoints, kill
# the process with SIGKILL mid-run, restart with --recover, and require
# the recovered synopsis to be BYTE-IDENTICAL to a clean uninterrupted
# run. Identity (not mere closeness) holds because the checkpoint loop
# re-adopts every saved snapshot, making the in-memory trajectory a
# deterministic function of (stream, checkpoint interval) regardless of
# where the crash lands.
#
# usage: crash_recovery_smoke.sh <build_dir>
set -u

BUILD_DIR=${1:?usage: crash_recovery_smoke.sh <build_dir>}
CLI="$BUILD_DIR/tools/asketch_cli"
MAKE_STREAM="$BUILD_DIR/tools/make_stream"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/asketch_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

[ -x "$CLI" ] || fail "missing $CLI"
[ -x "$MAKE_STREAM" ] || fail "missing $MAKE_STREAM"

STREAM="$WORK/stream.ask"
# Large enough that the run takes a few seconds, so the kill below lands
# mid-ingest on any reasonable machine.
"$MAKE_STREAM" "$STREAM" --n 30000000 --m 200000 --skew 1.2 --seed 11 \
  || fail "make_stream"

# 32-bit flags: a value above UINT32_MAX is a usage error (exit 2), not
# a silent truncation (--width 4294967297 would build a 1-row sketch).
for case in "build $STREAM $WORK/flag.as --width 4294967297" \
            "build $STREAM $WORK/flag.as --filter 4294967297" \
            "checkpoint $STREAM $WORK/flag/ck --retain 4294967297"; do
  # shellcheck disable=SC2086  # split the case into its arguments
  "$CLI" $case >"$WORK/flag.log" 2>&1
  status=$?
  [ "$status" -eq 2 ] \
    || fail "asketch_cli $case: expected usage exit 2, got $status: $(cat "$WORK/flag.log")"
done
"$MAKE_STREAM" "$WORK/flag.ask" --n 10 --m 4294967297 >"$WORK/flag.log" 2>&1
status=$?
[ "$status" -eq 2 ] \
  || fail "make_stream --m 4294967297: expected usage exit 2, got $status: $(cat "$WORK/flag.log")"
echo "oversized 32-bit flag values rejected with usage"

# Stream-shape flags: junk, non-finite or missing values are usage
# errors (exit 2) that write no file. An unchecked NaN skew trips the
# Zipf sampler's CHECK and an infinite one stalls it, hence the timeout.
for case in "--n 10 --m 10 --skew abc" "--n 10 --m 10 --skew 1.5x" \
            "--n 10 --m 10 --skew nan" "--n 10 --m 10 --skew inf" \
            "--trace ip --scale junk" "--trace ip --scale 0" \
            "--n 10 --m 10 --skew" "--m 10 --n"; do
  rm -f "$WORK/shape.ask"
  # shellcheck disable=SC2086  # split the case into its arguments
  timeout 10 "$MAKE_STREAM" "$WORK/shape.ask" $case >"$WORK/flag.log" 2>&1
  status=$?
  [ "$status" -eq 2 ] \
    || fail "make_stream $case: expected usage exit 2, got $status: $(cat "$WORK/flag.log")"
  [ ! -e "$WORK/shape.ask" ] || fail "make_stream $case wrote a file"
done
echo "malformed stream-shape flags rejected with usage"

CKPT_FLAGS=(--bytes 131072 --width 8 --filter 32 --seed 3 --every 1000000)

# Reference: clean, uninterrupted checkpointed run.
"$CLI" checkpoint "$STREAM" "$WORK/clean/ck" "${CKPT_FLAGS[@]}" \
  || fail "clean checkpoint run"
"$CLI" restore "$WORK/clean/ck" "$WORK/clean.as" || fail "clean restore"

# Crashed run: same configuration, SIGKILLed mid-ingest.
"$CLI" checkpoint "$STREAM" "$WORK/crash/ck" "${CKPT_FLAGS[@]}" &
PID=$!
sleep 0.4
if kill -9 "$PID" 2>/dev/null; then
  wait "$PID" 2>/dev/null
  STATUS=$?
  [ "$STATUS" -eq 137 ] || fail "expected SIGKILL exit 137, got $STATUS"
  echo "killed ingest (pid $PID) mid-run"
else
  # The run beat the timer. Recovery from a completed run must still
  # reproduce the clean synopsis, so the check below remains valid.
  wait "$PID" 2>/dev/null || fail "un-killed run exited nonzero"
  echo "run finished before the kill fired; continuing with recovery"
fi

"$CLI" recover "$WORK/crash/ck" || fail "recover inspection"

# Restart from the newest valid generation and finish the stream.
"$CLI" checkpoint "$STREAM" "$WORK/crash/ck" "${CKPT_FLAGS[@]}" --recover \
  || fail "recovering checkpoint run"
"$CLI" restore "$WORK/crash/ck" "$WORK/recovered.as" \
  || fail "recovered restore"

cmp "$WORK/clean.as" "$WORK/recovered.as" \
  || fail "recovered synopsis differs from clean run"

echo "PASS: recovered synopsis is byte-identical to the clean run"
