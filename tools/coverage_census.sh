#!/usr/bin/env bash
# Coverage census: which functions under src/ and tools/ does no kept
# driver reach?
#
# Builds the whole tree (tests included, so every template instantiation
# they make is emitted with zero counts) with --coverage at -O0 in
# <scratch_dir>/build, then runs only the drivers the project keeps:
#
#   - the 16 paper figure and table benches, bench_salsa_accuracy and
#     bench_ablation_backends (the only bench that runs Count Sketch), at
#     ASKETCH_BENCH_SCALE=0.01;
#   - tools_smoke, asketchd_recovery_smoke and asketchd_chaos_smoke;
#   - the six examples (each is also a ctest);
#   - a clean-exit asketchd pass per backend: --prefix, an
#     asketch_loadgen run with --verify and --snapshot, then SIGTERM. A
#     process killed with -9 writes no .gcda file, so the smokes alone
#     under-count the daemon.
#
# No unit test runs. The census then reads every .gcno/.gcda pair with
# `gcov --json-format` and prints each source-level function under src/
# and tools/ that never executed in any instantiation or translation
# unit, as `path:line  name`, followed by a per-file count.
#
# With --lines it also prints, as `path:line`, every instrumented line
# that never ran although the innermost function holding it did (a dead
# branch inside a live function), with per-file counts. That report is
# made twice: once after the kept drivers, and once more after the unit
# tests (every ctest but bench_e2e_smoke, which builds its own tree)
# have run on top of them.
#
# usage: tools/coverage_census.sh [--lines] <scratch_dir>
set -u

LINES=0
if [ "${1:-}" = "--lines" ]; then
  LINES=1
  shift
fi
SCRATCH=${1:?usage: coverage_census.sh [--lines] <scratch_dir>}
REPO_ROOT=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$SCRATCH"
SCRATCH=$(cd "$SCRATCH" && pwd)
BUILD="$SCRATCH/build"
LOGS="$SCRATCH/logs"
mkdir -p "$LOGS"

fail() { echo "FAIL: $*" >&2; exit 1; }

PAPER_BENCHES=(bench_table1 bench_fig03_selectivity bench_fig05_throughput
  bench_table3_misclassification bench_fig07_error bench_fig08_fcm
  bench_table5_precision bench_fig09_exchanges bench_fig10_realworld
  bench_fig11_spacesaving bench_fig12_pipeline bench_fig13_spmd
  bench_fig14_filters bench_fig15_filter_size bench_appendix
  bench_fig17_selectivity_model bench_salsa_accuracy bench_ablation_backends)
EXAMPLES=(quickstart heavy_hitters network_monitor pipeline_demo nlp_pmi
  load_balancer)

# ------------------------------------------------------------- build
cmake -S "$REPO_ROOT" -B "$BUILD" -DCMAKE_BUILD_TYPE=Debug \
  -DCMAKE_CXX_FLAGS="--coverage -O0" \
  -DCMAKE_EXE_LINKER_FLAGS="--coverage" >"$LOGS/configure.log" 2>&1 \
  || fail "configure: see $LOGS/configure.log"
cmake --build "$BUILD" -j 4 >"$LOGS/build.log" 2>&1 \
  || fail "build: see $LOGS/build.log"
# Counts from an earlier census would leak into this one.
find "$BUILD" -name '*.gcda' -delete

# ----------------------------------------------------------- drivers
for bench in "${PAPER_BENCHES[@]}"; do
  ASKETCH_BENCH_SCALE=0.01 "$BUILD/bench/$bench" >"$LOGS/$bench.log" 2>&1 \
    || fail "$bench: see $LOGS/$bench.log"
done
echo "ran ${#PAPER_BENCHES[@]} paper benches at scale 0.01" >&2

for smoke in tools_smoke asketchd_recovery_smoke asketchd_chaos_smoke; do
  bash "$REPO_ROOT/tools/$smoke.sh" "$BUILD" >"$LOGS/$smoke.log" 2>&1 \
    || fail "$smoke: see $LOGS/$smoke.log"
done
echo "ran tools_smoke, asketchd_recovery_smoke, asketchd_chaos_smoke" >&2

for example in "${EXAMPLES[@]}"; do
  "$BUILD/examples/$example" >"$LOGS/$example.log" 2>&1 \
    || fail "$example: see $LOGS/$example.log"
done
echo "ran ${#EXAMPLES[@]} examples" >&2

# Clean-exit daemon pass: SIGTERM drains, checkpoints and returns from
# main, so the daemon's counts reach its .gcda files.
for backend in countmin salsa; do
  log="$LOGS/asketchd_$backend.log"
  rm -rf "$SCRATCH/ckpt_$backend"
  "$BUILD/tools/asketchd" --port 0 --shards 4 --bytes 32768 \
    --sketch "$backend" --prefix "$SCRATCH/ckpt_$backend/serve" >"$log" 2>&1 &
  pid=$!
  trap 'kill -9 "$pid" 2>/dev/null' EXIT
  port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")
    [ -n "$port" ] && break
    sleep 0.1
  done
  [ -n "$port" ] || fail "asketchd ($backend) never listened: see $log"
  for args in "--tuples 200000 --keys 20000 --seed 5 --verify" --snapshot; do
    # shellcheck disable=SC2086  # one word per flag
    "$BUILD/tools/asketch_loadgen" --port "$port" $args \
      >>"$LOGS/loadgen_$backend.log" 2>&1 \
      || fail "loadgen $args ($backend): see $LOGS/loadgen_$backend.log"
  done
  kill -TERM "$pid"
  wait "$pid" || fail "asketchd ($backend) exited nonzero after SIGTERM"
  trap - EXIT
done
echo "ran a clean-exit asketchd pass per backend" >&2

# ------------------------------------------------------------ report
# A function is listed only if its count is zero in every translation
# unit and every template instantiation that carries its source line; a
# line likewise sums its counts over all of them.
find "$BUILD" -name '*.gcno' -not -path '*/CMakeFiles/CMakeScratch/*' \
  >"$SCRATCH/gcno.txt"
cat >"$SCRATCH/census_report.py" <<'PY'
import collections, json, os, subprocess, sys
from concurrent.futures import ThreadPoolExecutor

root, listing, mode = sys.argv[1], sys.argv[2], sys.argv[3]
kept = tuple(os.path.join(root, d) + os.sep for d in ("src", "tools"))
gcnos = [line.strip() for line in open(listing) if line.strip()]

def read(gcno):
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", "--demangled-names",
         os.path.basename(gcno)],
        cwd=os.path.dirname(gcno), capture_output=True, text=True)
    return [json.loads(doc) for doc in out.stdout.splitlines() if doc.strip()]

counts = collections.defaultdict(int)
ends = {}
names = {}
line_counts = collections.defaultdict(int)
with ThreadPoolExecutor(max_workers=4) as pool:
    for docs in pool.map(read, gcnos):
        for doc in docs:
            for f in doc.get("files", []):
                path = os.path.normpath(os.path.join(
                    doc.get("current_working_directory", ""), f["file"]))
                if not path.startswith(kept):
                    continue
                rel = os.path.relpath(path, root)
                for fn in f.get("functions", []):
                    key = (rel, fn["start_line"])
                    counts[key] += fn["execution_count"]
                    ends[key] = max(ends.get(key, 0), fn["end_line"])
                    names.setdefault(key, fn.get("demangled_name", fn["name"]))
                for ln in f.get("lines", []):
                    line_counts[(rel, ln["line_number"])] += ln["count"]

if mode == "functions":
    never = sorted(k for k, c in counts.items() if c == 0)
    per_file = collections.Counter(rel for rel, _ in never)
    for rel, line in never:
        name = names[(rel, line)]
        if len(name) > 110:
            name = name[:107] + "..."
        print(f"{rel}:{line}  {name}")
    print()
    print(f"never executed: {len(never)} of {len(counts)} functions "
          f"under src/ and tools/")
    for rel, n in sorted(per_file.items()):
        print(f"  {n:4d}  {rel}")
    sys.exit(0)

# Lines: each instrumented line belongs to the innermost function whose
# source range holds it (a lambda inside a function is its own function).
ranges = collections.defaultdict(list)
for (rel, start), end in ends.items():
    ranges[rel].append((start, end, counts[(rel, start)]))
dead = []
live_lines = 0
for (rel, line), count in sorted(line_counts.items()):
    holders = [r for r in ranges[rel] if r[0] <= line <= r[1]]
    if not holders:
        continue
    _, _, fn_count = min(holders, key=lambda r: r[1] - r[0])
    if fn_count == 0:
        continue
    live_lines += 1
    if count == 0:
        dead.append((rel, line))
per_file = collections.Counter(rel for rel, _ in dead)
for rel, line in dead:
    print(f"{rel}:{line}")
print()
print(f"never ran: {len(dead)} of {live_lines} instrumented lines inside "
      f"executed functions under src/ and tools/ ({mode})")
for rel, n in sorted(per_file.items(), key=lambda kv: (-kv[1], kv[0])):
    print(f"  {n:4d}  {rel}")
PY
python3 "$SCRATCH/census_report.py" "$REPO_ROOT" "$SCRATCH/gcno.txt" \
  functions
[ "$LINES" = 1 ] || exit 0

echo
echo "=== lines never run inside executed functions: kept drivers ==="
python3 "$SCRATCH/census_report.py" "$REPO_ROOT" "$SCRATCH/gcno.txt" \
  drivers

ctest --test-dir "$BUILD" -j 2 -E '^bench_e2e_smoke$' \
  >"$LOGS/ctest.log" 2>&1 \
  || echo "some unit tests failed under coverage: see $LOGS/ctest.log" >&2
echo "ran the unit tests" >&2
echo
echo "=== lines never run inside executed functions: drivers + unit tests ==="
python3 "$SCRATCH/census_report.py" "$REPO_ROOT" "$SCRATCH/gcno.txt" \
  "drivers + unit tests"
