"""Compare two sets of benchmark runs, metric by metric.

    python3 bench/compare.py A.jsonl B.jsonl

Each file is a set of runs as ``bench/run.py --out FILE`` appends them,
one JSON object per workload run.  For every (workload, end-to-end
metric) row the script prints each set's median and quartiles and a
verdict, using the bounds and directions in ``BENCHMARK.json``:

* ``worse`` -- B's median is worse than A's by more than the bound;
* ``better`` -- B's median is better than A's by more than A's own
  spread (the distance between its quartiles, as a share of its median)
  and, when the sets hold as many runs each, B wins at least nine in ten
  of the pairs of runs taken in file order (ties count for neither);
* ``unresolved`` -- a set's spread is wider than the bound, and not
  every run of B beats (or loses to) every run of A;
* ``same`` -- otherwise.

Simulated metrics (``sim_*``) are deterministic: runs of the same seed
in both sets must read exactly the same, and any difference is reported
as ``changed``.  The exit status is 1 when any row reads worse,
unresolved or changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(path: Path) -> dict[str, list[dict]]:
    """workload -> untraced runs in the file, in order."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["trace"]:
                runs[rec["workload"]].append(rec)
    return runs


def summary(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list[float]) -> float:
    q1, med, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def pair_wins(a: list[float], b: list[float], metric: dict) -> int | None:
    """How many (A, B) pairs in file order B wins; None when unpaired."""
    if len(a) != len(b):
        return None
    sign = 1.0 if metric["better"] == "lower" else -1.0
    return sum(sign * (y - x) < 0 for x, y in zip(a, b))


def verdict(a: list[float], b: list[float], metric: dict) -> str:
    sign = 1.0 if metric["better"] == "lower" else -1.0
    a_med, b_med = summary(a)[1], summary(b)[1]
    worse = sign * (b_med - a_med) / abs(a_med) if a_med else 0.0
    bound = metric["bound"]
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "worse"
        return "unresolved"
    if worse > bound:
        return "worse"
    wins = pair_wins(a, b, metric)
    if -worse > spread(a) and (wins is None or wins >= 0.9 * len(a)):
        return "better"
    return "same"


def sim_verdict(a_runs: list[dict], b_runs: list[dict], name: str) -> str:
    """Per-seed equality of a deterministic metric."""
    a_by_seed = {r["seed"]: r["metrics"][name]["value"] for r in a_runs}
    common = [r for r in b_runs if r["seed"] in a_by_seed]
    if not common:
        return ""
    same = all(r["metrics"][name]["value"] == a_by_seed[r["seed"]]
               for r in common)
    return "identical" if same else "changed"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("a", type=Path, help="runs of the baseline")
    ap.add_argument("b", type=Path, help="runs of the change")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a_runs, b_runs = load_runs(args.a), load_runs(args.b)
    bad = 0
    print(f"{'workload':<14} {'metric':<18} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34} {'B vs A':>8} {'B wins':>7}  verdict")
    for workload in sorted(a_runs.keys() & b_runs.keys()):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in a_runs[workload]]
            b = [r["metrics"][name]["value"] for r in b_runs[workload]]
            word = verdict(a, b, metric)
            if name.startswith("sim_"):
                word = sim_verdict(a_runs[workload], b_runs[workload],
                                   name) or word
            bad += word in ("worse", "unresolved", "changed")
            cols = []
            for vals in (a, b):
                q1, med, q3 = summary(vals)
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(vals)}")
            a_med, b_med = summary(a)[1], summary(b)[1]
            change = (b_med - a_med) / abs(a_med) if a_med else 0.0
            wins = pair_wins(a, b, metric)
            won = "-" if wins is None else f"{wins}/{len(a)}"
            print(f"{workload:<14} {name:<18} {cols[0]:>34} {cols[1]:>34} "
                  f"{change:+8.1%} {won:>7}  {word}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
