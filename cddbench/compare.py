#!/usr/bin/env python3
"""Compare two sets of saved benchmark results, metric by metric.

Usage: python3 cddbench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds the records that `run.py --save` appends, one run per line.
For every workload, trace mode and metric it prints each side's median and
quartiles over its runs and the change relative to the base; an end-to-end
metric whose median is worse than the base by more than its bound in
BENCHMARK.json is marked WORSE. Results measured with different scanner
backends are not comparable, and the script refuses them.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(sys.argv[1]), load(sys.argv[2])
    backends = {r["env"]["scanner_backend"] for r in base + change}
    if len(backends) > 1:
        print(f"refusing to compare: scanner backends differ ({sorted(backends)})",
              file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text("utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    sides: dict[tuple, dict[str, list[list[float]]]] = defaultdict(
        lambda: defaultdict(lambda: [[], []]))
    for side, records in enumerate((base, change)):
        for r in records:
            key = (r["workload"], r["trace"])
            for name, m in r["metrics"].items():
                sides[key][name][side].append(m["value"])
    worse = 0
    for (workload, trace), metrics in sorted(sides.items()):
        print(f"{workload} (trace {trace})")
        for name, (old, new) in metrics.items():
            if not old or not new:
                continue
            before, after = statistics.median(old), statistics.median(new)
            rel = (after - before) / before if before else 0.0
            mark = ""
            if name in bounds:
                sign = -1 if bounds[name]["better"] == "higher" else 1
                if sign * rel > bounds[name]["bound"]:
                    mark, worse = "  WORSE", worse + 1
            print(f"  {name:30} {summary(old):34} -> {summary(new):34} "
                  f"{rel:+.1%}{mark}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
