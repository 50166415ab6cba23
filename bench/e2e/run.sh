#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark (README.md in this directory).
#
#   bench/e2e/run.sh [--workload NAME] [--seed N] [--seconds S]
#                    [--trace 0|1] [--smoke] [--out DIR]
#
# Builds asketchd and asketch_e2e from this checkout into
# .bench_build/e2e (CMake, Release), then runs the named workload, or
# every workload BENCHMARK.json lists, one after the other. Each prints
# metric lines `workload metric value unit`, writes
# DIR/<workload>.results.json (default DIR: bench/out/e2e), and ends with
# one JSON line: "correct", "attempted", "failed" and "metrics". Build
# output goes to stderr. --smoke runs every workload for about a second
# with tracing on and checks that each metric BENCHMARK.json names is
# reported.
#
# Exit codes: 0 all gates passed, 1 a gate or the run failed, 2 usage or
# missing sources.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/../.." && pwd)
build="$root/.bench_build/e2e"

workloads=()
seed=1
seconds=20
trace=0
smoke=0
out="$root/bench/out/e2e"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --workload) workloads=("${2:?}"); shift 2 ;;
    --seed) seed=${2:?}; shift 2 ;;
    --seconds) seconds=${2:?}; shift 2 ;;
    --trace) trace=${2:?}; shift 2 ;;
    --out) out=${2:?}; shift 2 ;;
    --smoke) smoke=1; shift ;;
    *) echo "run.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done

for f in BENCHMARK.json CMakeLists.txt src/CMakeLists.txt tools/asketchd.cc; do
  if [[ ! -f "$root/$f" ]]; then
    echo "run.sh: $root/$f not found; the benchmark builds asketchd from" \
         "the repository sources" >&2
    exit 2
  fi
done

if (( ${#workloads[@]} == 0 )); then
  read -r -a workloads < <(python3 -c 'import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "$root/BENCHMARK.json")
fi

jobs=$(nproc 2>/dev/null || echo 2)
(( jobs > 4 )) && jobs=4
cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target asketch_e2e asketchd -j "$jobs" >&2
mkdir -p "$out"

git_args=()
if sha=$(git -C "$root" rev-parse HEAD 2>/dev/null); then
  dirty=0
  git -C "$root" diff --quiet HEAD 2>/dev/null || dirty=1
  git_args=(--git-sha "$sha" --git-dirty "$dirty")
fi

args=(--daemon "$build/asketch/tools/asketchd" --seed "$seed"
      --seconds "$seconds" --trace "$trace" --out "$out" "${git_args[@]}")
if (( smoke )); then
  args+=(--smoke --seconds 1 --trace 1)
fi

# The daemon dies with the benchmark (it asks the kernel for that); the
# trap also stops the benchmark itself if this script is interrupted.
bench_pid=
cleanup() {
  if [[ -n "$bench_pid" ]] && kill -0 "$bench_pid" 2>/dev/null; then
    pkill -KILL -P "$bench_pid" 2>/dev/null || true
    kill -KILL "$bench_pid" 2>/dev/null || true
    wait "$bench_pid" 2>/dev/null || true
  fi
}
trap cleanup EXIT
trap 'exit 130' INT TERM
status=0
results=()
for w in "${workloads[@]}"; do
  "$build/asketch_e2e" --workload "$w" "${args[@]}" &
  bench_pid=$!
  wait "$bench_pid" || status=$?
  bench_pid=
  (( status == 0 )) || break
  results+=("$out/$w.results.json")
done
if (( status == 0 && smoke )); then
  python3 "$here/compare.py" --check "${results[@]}" >&2 || status=1
fi
exit "$status"
