#!/usr/bin/env python3
"""Compare two BENCH_*.json files and flag regressions on named series.

The benchmark artifacts (BENCH_COSY/BENCH_NET/BENCH_SCALE.json) are the
repo's perf trajectory, but until now "did this PR regress serving?" was
answered by eyeballing a JSON diff.  This tool walks both documents,
pairs every numeric leaf by its path, and flags the ones on *named
series* (cycle counts, latency percentiles, syscall rates — where bigger
is worse) that moved more than a threshold percentage.

Usage::

    python tools/bench_diff.py OLD.json NEW.json [--threshold PCT]
                               [--strict] [--all]

* by default regressions only print and the exit status stays 0;
  ``--strict`` exits 1 on any flagged regression.  CI runs
  ``--threshold 0 --strict`` against the committed BENCH_NET.json and
  BENCH_SCALE.json: their named series are simulated cycles, which
  regenerate exactly, so any rise is real;
* ``--all`` also prints improvements and unflagged drifts;
* a missing/empty OLD file (first run, new series) is a clean pass.

Series are "named" by leaf key: anything ending in one of
:data:`REGRESSION_SUFFIXES` counts, everything else (counts, digests,
bytes served, fairness) is context and never flags.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: leaf-key suffixes where an increase is a perf regression
REGRESSION_SUFFIXES = (
    "elapsed_cycles", "system_cycles", "user_cycles", "iowait_cycles",
    "wall_elapsed_cycles", "cycles_per_request", "syscalls_per_request",
    "p50", "p90", "p99", "untraced_cycles",
)

#: keys whose subtrees are skipped entirely (run metadata, not series)
SKIP_KEYS = {"schema", "digest", "fault_signature_len"}


def _leaves(doc, path=()):
    """Yield (path_tuple, number) for every numeric leaf in the tree."""
    if isinstance(doc, dict):
        for key in sorted(doc):
            if key in SKIP_KEYS:
                continue
            yield from _leaves(doc[key], path + (str(key),))
    elif isinstance(doc, list):
        for i, item in enumerate(doc):
            yield from _leaves(item, path + (str(i),))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path, float(doc)


def _is_named(path: tuple) -> bool:
    return path and path[-1].endswith(REGRESSION_SUFFIXES)


def diff(old: dict, new: dict, threshold: float):
    """Return (regressions, improvements, drifts): lists of
    (path, old, new, pct_change) with pct_change > 0 meaning *worse*."""
    old_leaves = dict(_leaves(old))
    regressions, improvements, drifts = [], [], []
    for path, new_v in _leaves(new):
        old_v = old_leaves.get(path)
        if old_v is None or old_v == new_v:
            continue
        if old_v == 0:
            continue  # no baseline to express a percentage against
        change = 100.0 * (new_v - old_v) / abs(old_v)
        entry = (path, old_v, new_v, change)
        if not _is_named(path):
            drifts.append(entry)
        elif change > threshold:
            regressions.append(entry)
        elif change < -threshold:
            improvements.append(entry)
        else:
            drifts.append(entry)
    regressions.sort(key=lambda e: -e[3])
    improvements.sort(key=lambda e: e[3])
    return regressions, improvements, drifts


def _fmt(entry) -> str:
    path, old_v, new_v, change = entry
    return (f"  {'.'.join(path):<70} {old_v:>14,.1f} -> {new_v:>14,.1f} "
            f"({change:+.1f}%)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", help="baseline BENCH_*.json")
    ap.add_argument("new", help="freshly measured BENCH_*.json")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="flag named series moving more than this %% "
                         "(default 10)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 when regressions are flagged")
    ap.add_argument("--all", action="store_true", dest="show_all",
                    help="also print improvements and unflagged drift")
    args = ap.parse_args(argv)

    old_path, new_path = Path(args.old), Path(args.new)
    if not new_path.exists():
        print(f"bench_diff: {new_path} missing — nothing measured?")
        return 1
    new = json.loads(new_path.read_text())
    if not old_path.exists() or not old_path.read_text().strip():
        print(f"bench_diff: no baseline at {old_path} — first run, "
              f"nothing to compare")
        return 0
    try:
        old = json.loads(old_path.read_text())
    except json.JSONDecodeError:
        print(f"bench_diff: unreadable baseline {old_path} — skipping")
        return 0

    regressions, improvements, drifts = diff(old, new, args.threshold)
    print(f"bench_diff: {old_path.name} -> {new_path.name} "
          f"(threshold {args.threshold:.0f}% on named series)")
    if regressions:
        print(f"REGRESSIONS ({len(regressions)}):")
        for e in regressions:
            print(_fmt(e))
    else:
        print("no regressions flagged")
    if improvements:
        print(f"improvements ({len(improvements)}):")
        for e in improvements if args.show_all else improvements[:5]:
            print(_fmt(e))
    if args.show_all and drifts:
        print(f"other drift ({len(drifts)}):")
        for e in drifts:
            print(_fmt(e))
    if regressions and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
