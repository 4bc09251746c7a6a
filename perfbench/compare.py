"""Summarise recorded benchmark runs and check them against a baseline.

    python3 perfbench/compare.py RUNS.jsonl [CANDIDATE.jsonl]

RUNS files are what ``run.py --record`` appends. Every metric is printed by
name with its unit, one row per workload: sample count, median, quartiles
and spread (quartile distance over median). Metric names, units, the better
direction and the bounds come from BENCHMARK.json.

With one file, each end-to-end metric is ``steady`` when its spread is
within its bound and ``unresolved`` otherwise. With two, the second is
checked against the first as baseline: a metric is ``regressed`` when its
median is worse than the baseline's by more than the bound, ``unresolved``
when either side spreads wider than the bound (unless every candidate run
beats every baseline run), and ``ok`` otherwise. Exits 1 when any metric
regressed or is unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict[tuple[int, str, str], list[float]]:
    """(trace, workload, metric) -> values, in recorded order."""
    values: dict[tuple[int, str, str], list[float]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        for name, metric in record["metrics"].items():
            key = (record["trace"], record["workload"], name)
            values.setdefault(key, []).append(metric["value"])
    return values


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread as a share of the median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / abs(median) if median else 0.0
    return median, q1, q3, spread


def worse_by(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    change = (new - base) / abs(base) if base else 0.0
    return change if better == "lower" else -change


def verdict(spec: dict, base: list[float], new: list[float] | None) -> str:
    bound = spec.get("bound")
    if bound is None:
        return ""
    if new is None:
        return "steady" if summary(base)[3] <= bound else "unresolved"
    lower = spec["better"] == "lower"
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if max(summary(base)[3], summary(new)[3]) > bound and not all_better:
        return "unresolved"
    return "regressed" if worse_by(summary(base)[0], summary(new)[0],
                                   spec["better"]) > bound else "ok"


def _cell(values: list[float]) -> str:
    median, q1, q3, spread = summary(values)
    return f"{len(values):3} {median:12.6g} [{q1:.6g}, {q3:.6g}] {spread:6.1%}"


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text())
    runs = [load(path) for path in argv]
    workloads = [w["name"] for w in bench["workloads"]]
    failing = 0
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        columns = "  n       median [q1, q3]  spread"
        print(f"# {group} (--trace {trace})")
        print(f"{'metric':30} {'unit':6} {'workload':8} {columns}"
              + (f"  | candidate{columns}  change" if len(runs) > 1 else "")
              + "  bound  verdict")
        for spec in bench[group]:
            for workload in workloads:
                key = (trace, workload, spec["name"])
                base = runs[0].get(key)
                new = runs[1].get(key) if len(runs) > 1 else None
                if not base or (len(runs) > 1 and not new):
                    continue
                row = f"{spec['name']:30} {spec['unit']:6} {workload:8} {_cell(base)}"
                if new:
                    old_median, new_median = summary(base)[0], summary(new)[0]
                    change = (new_median - old_median) / abs(old_median) if old_median else 0.0
                    row += f"  | {_cell(new)}  {change:+7.1%}"
                result = verdict(spec, base, new)
                failing += result in ("regressed", "unresolved")
                print(f"{row}  {spec.get('bound', ''):5}  {result}".rstrip())
        print()
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
