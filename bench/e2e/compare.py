#!/usr/bin/env python3
"""Compares two sets of asketch_e2e result files, or checks one set.

    compare.py --base A/*.json --head B/*.json [--benchmark BENCHMARK.json]
    compare.py --check FILE... [--benchmark BENCHMARK.json]

Each FILE is a <workload>.results.json written by bench/e2e/run.sh (one
per workload and run; files of several workloads may be mixed). The
metric names, units, directions and bounds come from BENCHMARK.json (by
default the one at the repository root), which is validated first.

Compare mode prints, for every workload and metric, the median and
quartiles of both sets and one verdict, using the i-th base file and the
i-th head file as a pair:

  unresolved  the base set spreads (quartile distance / median) wider than
              the bound, and not every head run beats every base run;
  regressed   the head median is worse than the base median by more than
              the bound (a share of the base median);
  improved    the head run wins at least 9 of 10 pairs (ties count for
              neither) and the medians differ by more than the base set's
              quartile distance;
  unchanged   otherwise.

Per-layer metrics have no bound, so they only get improved, regressed
(the improved rule in the other direction) or unchanged.

Check mode exits nonzero unless every workload BENCHMARK.json names is in
some file, and every file passed its correctness gates and reports every
metric BENCHMARK.json names with a finite value and a unit.
"""

import argparse
import json
import math
import os
import re
import statistics
import sys

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
DEFAULT_BENCHMARK = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "..", "BENCHMARK.json")


def fail(message):
    sys.exit("compare.py: " + message)


def load_benchmark(path):
    """Reads BENCHMARK.json and checks the fields this script relies on."""
    with open(path) as f:
        bench = json.load(f)
    expected = {"command", "paths", "run_seconds", "workloads", "end_to_end",
                "per_layer"}
    if set(bench) != expected:
        fail(f"{path}: keys must be exactly {sorted(expected)}")
    names = set()
    for w in bench["workloads"]:
        if set(w) != {"name", "why"} or not NAME_RE.match(w["name"]):
            fail(f"{path}: bad workload entry {w}")
        names.add(w["name"])
    for group in ("end_to_end", "per_layer"):
        keys = {"name", "unit", "better"}
        if group == "end_to_end":
            keys.add("bound")
        for m in bench[group]:
            if set(m) != keys:
                fail(f"{path}: {group} entry {m} must have keys {sorted(keys)}")
            if not NAME_RE.match(m["name"]) or m["name"] in names:
                fail(f"{path}: bad or repeated name {m['name']!r}")
            names.add(m["name"])
            if not UNIT_RE.match(m["unit"]):
                fail(f"{path}: bad unit {m['unit']!r}")
            if m["better"] not in ("higher", "lower"):
                fail(f"{path}: better must be higher or lower in {m}")
            if group == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail(f"{path}: bound must be in (0, 0.25] in {m}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and
               m["better"] == "lower" for m in bench["end_to_end"]):
        fail(f"{path}: end_to_end must hold setup_s in s, better lower")
    return bench


def load_results(paths):
    """[(path, parsed results.json)] in the order given."""
    runs = []
    for path in paths:
        with open(path) as f:
            runs.append((path, json.load(f)))
    return runs


def values_of(runs, workload, metric):
    out = []
    for _, run in runs:
        w = run.get("workloads", {}).get(workload)
        if w is None:
            continue
        m = w.get("metrics", {}).get(metric) or w.get("per_layer", {}).get(
            metric)
        if m is not None and m.get("value") is not None:
            out.append(float(m["value"]))
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, head, better, bound):
    """One of improved / regressed / unchanged / unresolved (module doc)."""
    sign = 1.0 if better == "higher" else -1.0
    b1, b_med, b3 = quartiles(base)
    _, h_med, _ = quartiles(head)
    iqr = b3 - b1
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) > 0)
    losses = sum(1 for b, h in pairs if sign * (h - b) < 0)
    gap = sign * (h_med - b_med)
    improved = wins >= 0.9 * len(pairs) and gap > iqr
    if bound is None:
        if improved:
            return "improved"
        if losses >= 0.9 * len(pairs) and -gap > iqr:
            return "regressed"
        return "unchanged"
    spread = iqr / abs(b_med) if b_med else math.inf
    all_better = all(sign * (h - b) > 0 for h in head for b in base)
    if spread > bound and not all_better:
        return "unresolved"
    if -gap > bound * abs(b_med):
        return "regressed"
    return "improved" if improved else "unchanged"


def compare(bench, base_runs, head_runs):
    rows = []
    metrics = [(m, m["bound"]) for m in bench["end_to_end"]]
    metrics += [(m, None) for m in bench["per_layer"]]
    for w in bench["workloads"]:
        for m, bound in metrics:
            base = values_of(base_runs, w["name"], m["name"])
            head = values_of(head_runs, w["name"], m["name"])
            if not base or not head:
                continue
            bq = quartiles(base)
            hq = quartiles(head)
            rows.append((w["name"], m["name"], m["unit"], bq, hq,
                         verdict(base, head, m["better"], bound)))
    print(f"{'workload':<14} {'metric':<36} {'base median [q1, q3]':<36} "
          f"{'head median [q1, q3]':<36} verdict")
    for w, name, unit, bq, hq, v in rows:
        base = f"{bq[1]:.4g} [{bq[0]:.4g}, {bq[2]:.4g}] {unit}"
        head = f"{hq[1]:.4g} [{hq[0]:.4g}, {hq[2]:.4g}] {unit}"
        print(f"{w:<14} {name:<36} {base:<36} {head:<36} {v}")
    return rows


def check(bench, runs):
    problems = []
    seen = set()
    for path, run in runs:
        for w in bench["workloads"]:
            got = run.get("workloads", {}).get(w["name"])
            if got is None:
                continue
            seen.add(w["name"])
            if not got.get("correct"):
                problems.append(f"{path}: {w['name']} failed its gates: "
                                f"{got.get('gate_failures')}")
            for group, key in (("end_to_end", "metrics"),
                               ("per_layer", "per_layer")):
                for m in bench[group]:
                    entry = got.get(key, {}).get(m["name"])
                    value = None if entry is None else entry.get("value")
                    if value is None or not math.isfinite(value):
                        problems.append(
                            f"{path}: {w['name']} {m['name']} missing or "
                            f"not finite")
                    elif entry.get("unit") != m["unit"]:
                        problems.append(
                            f"{path}: {w['name']} {m['name']} has unit "
                            f"{entry.get('unit')!r}, expected {m['unit']!r}")
    for w in bench["workloads"]:
        if w["name"] not in seen:
            problems.append(f"workload {w['name']} is in no result file")
    for p in problems:
        print(p, file=sys.stderr)
    if not problems:
        print(f"compare.py: {len(runs)} result file(s) report every metric")
    return not problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--base", nargs="+")
    parser.add_argument("--head", nargs="+")
    parser.add_argument("--check", nargs="+")
    args = parser.parse_args()
    bench = load_benchmark(args.benchmark)
    if args.check:
        return 0 if check(bench, load_results(args.check)) else 1
    if not args.base or not args.head:
        parser.error("give --check FILE..., or --base FILE... --head FILE...")
    compare(bench, load_results(args.base), load_results(args.head))
    return 0


if __name__ == "__main__":
    sys.exit(main())
