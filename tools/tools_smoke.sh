#!/usr/bin/env bash
# Offline-tools smoke: make_stream and asketch_cli end to end, plus the
# flag and budget checks of asketch_cli and asketchd.
#
#   - happy path: make_stream -> build -> stats (filtered + sketch
#     weight = n) -> stats --json -> query -> topk -> merge of two
#     same-seed builds (merged weights sum the inputs');
#   - malformed flags and budgets are usage errors (exit 2), never an
#     abort, a silent clamp, or a truncation.
#
# usage: tools_smoke.sh <build_dir>
set -u

BUILD_DIR=${1:?usage: tools_smoke.sh <build_dir>}
CLI="$BUILD_DIR/tools/asketch_cli"
ASKETCHD="$BUILD_DIR/tools/asketchd"
MAKE_STREAM="$BUILD_DIR/tools/make_stream"
WORK=$(mktemp -d "${TMPDIR:-/tmp}/asketch_tools_smoke.XXXXXX")
trap 'rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

for tool in "$CLI" "$ASKETCHD" "$MAKE_STREAM"; do
  [ -x "$tool" ] || fail "missing $tool"
done

# Prints the value of one `stats` line ("filtered weight     123").
stat_of() { sed -n "s/^$2  *\([0-9][0-9]*\)$/\1/p" "$1"; }

# ------------------------------------------------------------ happy path
N=200000
STREAM="$WORK/stream.ask"
"$MAKE_STREAM" "$STREAM" --n "$N" --m 20000 --skew 1.2 --seed 11 \
  >"$WORK/make.log" 2>&1 || fail "make_stream: $(cat "$WORK/make.log")"
BUILD_FLAGS=(--bytes 32768 --width 4 --filter 32 --seed 3)
"$CLI" build "$STREAM" "$WORK/a.as" "${BUILD_FLAGS[@]}" >"$WORK/build.log" 2>&1 \
  || fail "build: $(cat "$WORK/build.log")"

"$CLI" stats "$WORK/a.as" >"$WORK/stats.txt" || fail "stats"
FILTERED=$(stat_of "$WORK/stats.txt" "filtered weight")
SKETCHED=$(stat_of "$WORK/stats.txt" "sketch weight")
[ -n "$FILTERED" ] && [ -n "$SKETCHED" ] \
  || fail "stats lacks the weight lines: $(cat "$WORK/stats.txt")"
[ $((FILTERED + SKETCHED)) -eq "$N" ] \
  || fail "filtered $FILTERED + sketch $SKETCHED != $N tuples"

"$CLI" stats "$WORK/a.as" --json >"$WORK/stats.json" || fail "stats --json"
python3 -c 'import json, sys; json.load(open(sys.argv[1]))' "$WORK/stats.json" \
  || fail "stats --json is not JSON: $(cat "$WORK/stats.json")"

"$CLI" query "$WORK/a.as" 0 1 2 >"$WORK/query.txt" || fail "query"
[ "$(wc -l <"$WORK/query.txt")" -eq 3 ] \
  || fail "query printed: $(cat "$WORK/query.txt")"
"$CLI" topk "$WORK/a.as" >"$WORK/topk.txt" || fail "topk"
echo "build/stats/query/topk: filtered $FILTERED + sketch $SKETCHED = $N"

# A second same-seed build over another stream merges into one synopsis
# whose `stats` weights are the sums of the inputs': filtered + sketch
# weight of the merge equals the two inputs' totals.
"$MAKE_STREAM" "$WORK/other.ask" --n "$N" --m 20000 --skew 1.2 --seed 12 \
  >"$WORK/make.log" 2>&1 || fail "make_stream: $(cat "$WORK/make.log")"
"$CLI" build "$WORK/other.ask" "$WORK/b.as" "${BUILD_FLAGS[@]}" \
  >"$WORK/build.log" 2>&1 || fail "build b: $(cat "$WORK/build.log")"
"$CLI" merge "$WORK/a.as" "$WORK/b.as" "$WORK/ab.as" >"$WORK/merge.log" 2>&1 \
  || fail "merge: $(cat "$WORK/merge.log")"
TOTAL=0
for s in a b; do
  "$CLI" stats "$WORK/$s.as" >"$WORK/stats.$s" || fail "stats $s.as"
  TOTAL=$((TOTAL + $(stat_of "$WORK/stats.$s" "filtered weight") \
                 + $(stat_of "$WORK/stats.$s" "sketch weight")))
done
"$CLI" stats "$WORK/ab.as" >"$WORK/stats.ab" || fail "stats ab.as"
MERGED_FILTERED=$(stat_of "$WORK/stats.ab" "filtered weight")
MERGED_SKETCHED=$(stat_of "$WORK/stats.ab" "sketch weight")
[ $((MERGED_FILTERED + MERGED_SKETCHED)) -eq "$TOTAL" ] \
  || fail "merged $MERGED_FILTERED + $MERGED_SKETCHED != $TOTAL input tuples"
echo "merge: filtered $MERGED_FILTERED + sketch $MERGED_SKETCHED = $TOTAL"

# ------------------------------------------------------ usage-error cases
# expect_usage <log-label> <command...>: the command must exit 2. A
# daemon that starts anyway is stopped by the timeout (status 124).
expect_usage() {
  local label=$1; shift
  timeout 10 "$@" >"$WORK/flag.log" 2>&1
  local status=$?
  [ "$status" -eq 2 ] \
    || fail "$label: expected usage exit 2, got $status: $(cat "$WORK/flag.log")"
}

# 32-bit flags: a value above UINT32_MAX is a usage error, not a silent
# truncation (--width 4294967297 would build a 1-row sketch).
expect_usage "build --width 4294967297" \
  "$CLI" build "$STREAM" "$WORK/flag.as" --width 4294967297
expect_usage "build --filter 4294967297" \
  "$CLI" build "$STREAM" "$WORK/flag.as" --filter 4294967297
expect_usage "make_stream --m 4294967297" \
  "$MAKE_STREAM" "$WORK/flag.ask" --n 10 --m 4294967297
echo "oversized 32-bit flag values rejected with usage"

# Byte budgets: a filter that does not fit the budget, or more rows than
# the sketches stage, is a usage error in both tools.
expect_usage "build --bytes 100" \
  "$CLI" build "$STREAM" "$WORK/flag.as" --bytes 100
expect_usage "build --filter 100000" \
  "$CLI" build "$STREAM" "$WORK/flag.as" --filter 100000
expect_usage "build --width 100" \
  "$CLI" build "$STREAM" "$WORK/flag.as" --width 100
[ ! -e "$WORK/flag.as" ] || fail "a rejected build wrote a synopsis"
expect_usage "asketchd --bytes 1024 --filter 1000" \
  "$ASKETCHD" --port 0 --bytes 1024 --filter 1000
echo "over-budget filters and over-wide sketches rejected with usage"

# Stream-shape flags: junk, non-finite or missing values are usage
# errors that write no file. An unchecked NaN skew trips the Zipf
# sampler's CHECK and an infinite one stalls it, hence the timeout.
for case in "--n 10 --m 10 --skew abc" "--n 10 --m 10 --skew 1.5x" \
            "--n 10 --m 10 --skew nan" "--n 10 --m 10 --skew inf" \
            "--trace ip --scale junk" "--trace ip --scale 0" \
            "--n 10 --m 10 --skew" "--m 10 --n"; do
  rm -f "$WORK/shape.ask"
  # shellcheck disable=SC2086  # split the case into its arguments
  expect_usage "make_stream $case" "$MAKE_STREAM" "$WORK/shape.ask" $case
  [ ! -e "$WORK/shape.ask" ] || fail "make_stream $case wrote a file"
done
echo "malformed stream-shape flags rejected with usage"

echo "PASS: offline tools and flag checks"
