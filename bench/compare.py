"""Compare two sets of benchmark results (``run.py --compare A B``).

A result set is a directory of the result files that ``run.py`` writes.
For every end-to-end metric this prints one row per workload with each
side's median and quartiles, the ratio B/A and a verdict against the
metric's bound in BENCHMARK.json:

* better: B wins at least nine tenths of the runs paired by seed (or by
  order) and the medians differ by more than A's quartile spread;
* worse: B's median is worse than A's by more than the bound;
* unresolved: A's own quartile spread is wider than the bound, unless
  every run of B is better than every run of A;
* unchanged: otherwise.

It then prints the per-layer deltas between the traced runs of the two
sets, and each set's tracing overhead: untraced requests_per_s over
traced requests_per_s.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(directory: str) -> dict:
    """{(workload, trace): [result, ...]} for every result file under ``directory``."""
    runs = defaultdict(list)
    for path in sorted(Path(directory).rglob("*.json")):
        result = json.loads(path.read_text())
        if "workload" in result and "metrics" in result:
            runs[(result["workload"], result["trace"])].append(result)
    return runs


def _series(results: list, name: str) -> list[tuple[int, float]]:
    """(seed, value) of metric ``name`` in each result that has it."""
    out = []
    for result in results:
        values = {**result["metrics"], **result["beside"]}
        if name in values:
            out.append((result["seed"], values[name]))
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list[tuple[int, float]], b: list[tuple[int, float]], better: str,
            bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    va, vb = [v for _, v in a], [v for _, v in b]
    q1, ma, q3 = _quartiles(va)
    mb = statistics.median(vb)
    gain = sign * (mb - ma) / ma
    by_seed_a, by_seed_b = dict(a), dict(b)
    seeds = sorted(set(by_seed_a) & set(by_seed_b))
    pairs = ([(by_seed_a[s], by_seed_b[s]) for s in seeds] if len(seeds) == len(va)
             else list(zip(va, vb)))
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    all_better = min(sign * v for v in vb) > max(sign * v for v in va)
    spread = (q3 - q1) / ma
    if gain > 0 and abs(mb - ma) > q3 - q1 and wins >= 0.9 * len(pairs):
        return "better"
    if -gain > bound:
        return "worse"
    if spread > bound and not all_better:
        return "unresolved"
    return "unchanged"


def main(dir_a: str, dir_b: str, benchmark: dict) -> None:
    runs_a, runs_b = load(dir_a), load(dir_b)
    workloads = [w["name"] for w in benchmark["workloads"]]
    print(f"A = {dir_a}\nB = {dir_b}\n")
    for metric in benchmark["end_to_end"]:
        name, unit = metric["name"], metric["unit"]
        print(f"{name} [{unit}], {metric['better']} is better, bound {metric['bound']:.0%}")
        print(f"  {'workload':20s} {'n':>5s} {'A median':>11s} {'A q1..q3':>23s}"
              f" {'B median':>11s} {'B q1..q3':>23s} {'B/A':>7s}  verdict")
        for workload in workloads:
            a = _series(runs_a.get((workload, 0), []), name)
            b = _series(runs_b.get((workload, 0), []), name)
            if not a or not b:
                print(f"  {workload:20s} {'-':>5s}  missing in {'A' if not a else 'B'}")
                continue
            qa, qb = _quartiles([v for _, v in a]), _quartiles([v for _, v in b])
            print(f"  {workload:20s} {len(a):>2d}/{len(b):<2d} {qa[1]:11.5g}"
                  f" {qa[0]:11.5g}..{qa[2]:<11.5g} {qb[1]:11.5g} {qb[0]:11.5g}..{qb[2]:<11.5g}"
                  f" {qb[1] / qa[1]:7.3f}  {verdict(a, b, metric['better'], metric['bound'])}")
        print()

    print("beside the metrics (no bound)")
    for name in ("points_per_s", "failed_fraction"):
        for workload in workloads:
            a = [v for _, v in _series(runs_a.get((workload, 0), []), name)]
            b = [v for _, v in _series(runs_b.get((workload, 0), []), name)]
            if a and b:
                print(f"  {name:16s} {workload:20s} A {statistics.median(a):11.5g}"
                      f"  B {statistics.median(b):11.5g}")
    print()

    print("per-layer medians of traced runs (per pass over the deck), rows that differ")
    for workload in workloads:
        ta, tb = runs_a.get((workload, 1), []), runs_b.get((workload, 1), [])
        if not ta or not tb:
            print(f"  {workload}: no traced runs in {'A' if not ta else 'B'}")
            continue
        print(f"  {workload}")
        for metric in benchmark["per_layer"]:
            name = metric["name"]
            ma = statistics.median(v for _, v in _series(ta, name))
            mb = statistics.median(v for _, v in _series(tb, name))
            if ma != mb:
                ratio = f"{mb / ma:7.3f}" if ma else "      -"
                print(f"    {name:40s} {ma:12.5g} -> {mb:12.5g}  delta {mb - ma:+12.5g}"
                      f"  ratio {ratio} {metric['unit']}")
    print()

    print("tracing overhead: untraced requests_per_s / traced requests_per_s")
    for label, runs in (("A", runs_a), ("B", runs_b)):
        for workload in workloads:
            plain = [v for _, v in _series(runs.get((workload, 0), []), "requests_per_s")]
            traced = [v for _, v in _series(runs.get((workload, 1), []), "trace.requests_per_s")]
            if plain and traced:
                print(f"  {label} {workload:20s} {statistics.median(plain):10.5g} /"
                      f" {statistics.median(traced):10.5g} = "
                      f"{statistics.median(plain) / statistics.median(traced):6.3f}")
