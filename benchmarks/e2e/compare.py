"""Compare end-to-end results of a parent commit and a change.

Usage::

    python benchmarks/e2e/compare.py PARENT.json CHANGE.json [CHANGE2.json ...]
    python benchmarks/e2e/compare.py P1.json P2.json -- C1.json C2.json

Each file is the ``--out`` JSON of ``run.py``. Without ``--`` the first
file is the parent side and the rest the change side; with it, the files
before ``--`` are the parent side. A side pools the repetitions of all
its files: host metrics contribute one value per repetition, peak RSS
and the exact simulated metrics one value per file.

For each workload and metric it prints both sides' medians and
quartiles, the bound (``BENCHMARK.json``; 0 for simulated metrics) and a
verdict:

* ``unresolved`` -- a side's spread (quartile distance over median)
  exceeds the bound and the two sides' runs overlap;
* ``worse`` -- the change's median is worse than the parent's by more
  than the bound;
* ``better`` -- with at least two values a side, the change wins at
  least 90% of all (parent, change) pairs and the medians differ by more
  than the parent's quartile distance (an exact metric: any improvement);
* ``within bound`` -- none of the above.

Exits 1 when any metric is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def _quartiles(values: List[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, relative change, positive = worse) for one metric."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    sign = 1.0 if better == "lower" else -1.0
    if p_med:
        worse_by = sign * (c_med - p_med) / abs(p_med)
    else:
        worse_by = 0.0 if c_med == p_med else sign * float("inf")
    spreads = [(q3 - q1) / abs(med) if med else 0.0
               for (q1, q3), med in ((_quartiles(parent), p_med),
                                     (_quartiles(change), c_med))]
    overlap = min(change) <= max(parent) and min(parent) <= max(change)
    if max(spreads) > bound and overlap:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < 0 and bound == 0:
        return "better", worse_by   # exact metrics: any move is real
    wins = sum(sign * (p - c) > 0 for p in parent for c in change)
    q1, q3 = _quartiles(parent)
    if (worse_by < 0 and min(len(parent), len(change)) > 1
            and wins >= 0.9 * len(parent) * len(change)
            and abs(c_med - p_med) > q3 - q1):
        return "better", worse_by
    return "within bound", worse_by


def side_values(files: List[dict]) -> Dict[Tuple[str, str], dict]:
    """(workload, metric) -> {values, unit, better, bound} for one side."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    host = {m["name"]: m for m in bench["end_to_end"]}
    out: Dict[Tuple[str, str], dict] = {}
    for payload in files:
        for name, result in payload["workloads"].items():
            for metric, entry in result["host"].items():
                spec = host[metric]
                slot = out.setdefault((name, metric), dict(
                    values=[], unit=spec["unit"], better=spec["better"],
                    bound=spec["bound"]))
                slot["values"].extend(entry["reps"])
            for metric, entry in result["sim"].items():
                slot = out.setdefault((name, metric), dict(
                    values=[], unit=entry["unit"], better=entry["better"],
                    bound=0.0))
                slot["values"].append(entry["value"])
    return out


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if "--" in args:
        cut = args.index("--")
        parent_paths, change_paths = args[:cut], args[cut + 1:]
    else:
        parent_paths, change_paths = args[:1], args[1:]
    if not parent_paths or not change_paths:
        print(__doc__, file=sys.stderr)
        return 2
    parent = side_values([json.loads(Path(p).read_text())
                          for p in parent_paths])
    change = side_values([json.loads(Path(p).read_text())
                          for p in change_paths])
    worse = False
    header = (f"{'workload':12s} {'metric':15s} "
              f"{'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'worse by':>9s} "
              f"{'bound':>6s}  verdict")
    print(header)
    print("-" * len(header))
    for key in sorted(set(parent) & set(change)):
        p, c = parent[key], change[key]
        result, worse_by = verdict(p["values"], c["values"], p["better"],
                                   p["bound"])
        worse |= result == "worse"
        cells = []
        for side in (p, c):
            q1, q3 = _quartiles(side["values"])
            cells.append(f"{statistics.median(side['values']):.6g} "
                         f"[{q1:.6g}, {q3:.6g}] {side['unit']}")
        print(f"{key[0]:12s} {key[1]:15s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{worse_by:+9.2%} {p['bound']:6.2f}  {result}")
    for key in sorted(set(parent) ^ set(change)):
        print(f"{key[0]:12s} {key[1]:15s} only on one side")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
