#!/usr/bin/env bash
# Regenerates every paper table/figure: runs each bench binary in
# build/bench/, concatenates the raw output into bench_output.txt (the
# file EXPERIMENTS.md quotes from), and writes a per-bench record under
# bench/out/: <name>.txt (raw stdout) and <name>.json (name, scale,
# exit code, wall seconds, output embedded as a JSON string).
#
# usage: bench/run_all.sh [build_dir] [out_dir]
#   build_dir  defaults to "build" (relative to the repo root)
#   out_dir    defaults to "bench/out"
#
# Honors ASKETCH_BENCH_SCALE (EXPERIMENTS.md §Workload scaling): 1 is
# the default 4M/1M workload, 8 the paper's full size. CI smokes the
# whole suite at 0.01. Exits nonzero if any bench fails.
set -u

REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
BUILD_DIR=${1:-"$REPO_ROOT/build"}
OUT_DIR=${2:-"$REPO_ROOT/bench/out"}
SCALE=${ASKETCH_BENCH_SCALE:-1}
SUMMARY="$REPO_ROOT/bench_output.txt"

[ -d "$BUILD_DIR/bench" ] || {
  echo "run_all.sh: no bench binaries under $BUILD_DIR/bench" \
       "(build first: cmake -B build -S . && cmake --build build)" >&2
  exit 2
}
mkdir -p "$OUT_DIR"

# Raw stdout -> a JSON string literal (escape \, ", and newlines).
json_escape_file() {
  awk 'BEGIN{ORS="";} {
    gsub(/\\/, "\\\\"); gsub(/"/, "\\\"");
    if (NR > 1) print "\\n";
    print
  }' "$1"
}

: > "$SUMMARY"
failed=0
ran=0
for bin in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$bin" ] && [ -f "$bin" ] || continue
  name=$(basename "$bin")
  printf '=== %s (ASKETCH_BENCH_SCALE=%s) ===\n' "$name" "$SCALE" \
    >> "$SUMMARY"
  start_ns=$(date +%s%N)
  "$bin" > "$OUT_DIR/$name.txt" 2>&1
  status=$?
  end_ns=$(date +%s%N)
  seconds=$(awk "BEGIN{printf \"%.3f\", ($end_ns - $start_ns) / 1e9}")
  cat "$OUT_DIR/$name.txt" >> "$SUMMARY"
  printf '\n' >> "$SUMMARY"
  # Benches that print machine-readable lines of the form
  # `name=number` get them lifted into a "metrics" object so dashboards
  # can read the numbers without parsing the raw output.
  metrics=$(grep -ohE '^[a-z][a-z0-9_]*=[0-9.]+$' "$OUT_DIR/$name.txt" \
              | awk -F= 'BEGIN{ORS=""; sep=""}
                         {printf "%s\"%s\":%s", sep, $1, $2; sep=","}')
  {
    printf '{"name":"%s","scale":"%s","exit_code":%d,"seconds":%s,' \
           "$name" "$SCALE" "$status" "$seconds"
    printf '"metrics":{%s},' "$metrics"
    printf '"output":"'
    json_escape_file "$OUT_DIR/$name.txt"
    printf '"}\n'
  } > "$OUT_DIR/$name.json"
  ran=$((ran + 1))
  if [ "$status" -ne 0 ]; then
    echo "run_all.sh: $name exited $status" >&2
    failed=$((failed + 1))
  else
    echo "ran $name (${seconds}s)"
  fi
done

[ "$ran" -gt 0 ] || { echo "run_all.sh: no bench binaries found" >&2; exit 2; }
echo "wrote $SUMMARY and $ran per-bench records in $OUT_DIR"
[ "$failed" -eq 0 ] || { echo "run_all.sh: $failed bench(es) failed" >&2; exit 1; }
