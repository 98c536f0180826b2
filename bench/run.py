"""The repository benchmark: four workloads, two clocks, one command.

    python3 bench/run.py [--workload W] [--seed S] [--trace [0|1]]
                         [--out FILE]

A run of one workload is a fixed number of *rounds* (``WORKLOADS``),
sized so the run takes about ``run_seconds`` of ``BENCHMARK.json`` on a
2-core machine.  Each round runs in a fresh child process
(``bench/child.py``), one after another, with its own seed derived from
``--seed``, so the same seed always gives the same inputs.
The end-to-end metrics come from untraced rounds; host seconds are
steady seconds (``bench/hostclock.py``), scaled for the shared host's
drifting speed:

* ``setup_s`` -- median over rounds of the child's start-to-ready time,
  counted from before ``import repro``;
* ``host_ops_per_s`` -- ops completed (neither failed nor refused) over
  the host seconds of the measured calls;
* ``peak_rss_mb`` -- the largest child's peak resident set;
* ``sim_cycles_per_op`` -- simulated cycles per op (deterministic).

``--trace 1`` runs every round a second time, traced, and reports the
per-layer metrics instead; the traced rounds must reproduce the
untraced simulated results bit for bit.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The run exits non-zero when any check fails.

Without ``--workload`` every workload runs in turn, and the web
workloads' response digests are compared with each other.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"

#: the seed runs use by default, and the one held out to confirm claims
DEFAULT_SEED = 1
HELDOUT_SEED = 97

#: rounds per run and the size of one round; a ``smoke`` run, for the
#: tests, is one round of the ``smoke`` size
WORKLOADS = {
    "web-epoll": {"rounds": 5,
                  "full": {"nclients": 6000}, "smoke": {"nclients": 256}},
    "web-cosy": {"rounds": 7,
                 "full": {"nclients": 6000}, "smoke": {"nclients": 256}},
    "kgcc-postmark": {"rounds": 3,
                      "full": {"nfiles": 100, "transactions": 50,
                               "cache_blocks": 32},
                      "smoke": {"nfiles": 8, "transactions": 10,
                                "cache_blocks": 8}},
    "tenants-smp": {"rounds": 4,
                    "full": {"events": 800}, "smoke": {"events": 40}},
}

#: per-round fields kept in the ``--out`` records
ROUND_FIELDS = ("seed", "ops", "refused", "cycles", "setup_s", "host_s",
                "setup_wall_s", "host_wall_s", "rss_mb")

#: environment knobs of the system under test; a shell that sets them
#: would silently change what is measured
SCRUBBED_ENV_PREFIX = "REPRO_"

#: longest a single round may take before the run gives up
ROUND_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def round_seeds(seed: int, workload: str, size: str) -> list[int]:
    """The seeds of a run's rounds: a pure function of the arguments."""
    n = 1 if size == "smoke" else WORKLOADS[workload]["rounds"]
    return [seed * 1009 + r for r in range(n)]


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(SCRUBBED_ENV_PREFIX)}
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: dict) -> dict:
    """One round in a fresh interpreter; returns its record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(args)],
        capture_output=True, text=True, env=child_env(),
        timeout=ROUND_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"round {args} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, trace: bool,
                 size: str = "full") -> dict:
    """Run one workload; returns its result record (see ``main``)."""
    params = WORKLOADS[workload][size]
    plain: list[dict] = []
    traced: list[dict] = []
    for i, s in enumerate(round_seeds(seed, workload, size)):
        args = {"workload": workload, "seed": s, "size": params,
                "traced": False}
        plain.append(run_child(args))
        if trace:
            out = str(OUT_DIR / f"{workload}.trace.json") if i == 0 else None
            traced.append(run_child({**args, "traced": True,
                                     "trace_out": out}))
    errors = [f"seed {r['seed']}: {e}" for r in plain + traced
              for e in r["errors"]]
    for p, t in zip(plain, traced):
        if p["sim"] != t["sim"]:
            errors.append(f"seed {p['seed']}: traced simulated results "
                          "differ from untraced")
    ops = sum(r["ops"] for r in plain)
    failed = sum(r["failed"] for r in plain)
    completed = ops - failed - sum(r["refused"] for r in plain)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "host_ops_per_s": completed / sum(r["host_s"] for r in plain),
        "peak_rss_mb": max(r["rss_mb"] for r in plain),
        "sim_cycles_per_op": sum(r["cycles"] for r in plain) / ops,
    }
    if trace:
        from layers import layer_metrics
        metrics.update(layer_metrics(traced))
        metrics["trace.host_overhead_frac"] = (
            sum(r["host_s"] for r in traced)
            / sum(r["host_s"] for r in plain) - 1)
    return {"workload": workload, "seed": seed,
            "trace": trace, "correct": not errors, "errors": errors,
            "attempted": ops, "failed": failed,
            "digests": [r.get("digest") for r in plain],
            "rounds": [{k: r[k] for k in ROUND_FIELDS} for r in plain],
            "metrics": metrics}


def report(result: dict, spec: dict) -> dict:
    """Print the run's metrics as ``workload metric value unit`` lines and
    return them, with units, in the order ``BENCHMARK.json`` lists."""
    kind = "per_layer" if result["trace"] else "end_to_end"
    out = {}
    for m in spec[kind]:
        value = result["metrics"][m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{result['workload']} {m['name']} {value:.6g} {m['unit']}")
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="run only this workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="accepted for callers that pass BENCHMARK.json's "
                         "run_seconds; the rounds of a run are fixed, so "
                         "it changes nothing")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1),
                    help="traced run: report the per-layer metrics")
    ap.add_argument("--out", type=Path,
                    help="append each workload's result to this JSONL file")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "repro").is_dir():
        print(f"bench: no system under test at {SRC / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    names = [args.workload] if args.workload else list(WORKLOADS)
    t0 = time.perf_counter()
    try:
        results = [run_workload(w, args.seed, bool(args.trace))
                   for w in names]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    by_name = {r["workload"]: r for r in results}
    if "web-epoll" in by_name and "web-cosy" in by_name:
        pairs = zip(by_name["web-epoll"]["digests"],
                    by_name["web-cosy"]["digests"])
        if any(a != b for a, b in pairs):
            by_name["web-cosy"]["errors"].append(
                "web-cosy responses differ from web-epoll's")
            by_name["web-cosy"]["correct"] = False
    metrics = {}
    for r in results:
        shown = report(r, spec)
        prefix = "" if args.workload else f"{r['workload']}."
        metrics.update({prefix + k: v for k, v in shown.items()})
        for e in r["errors"]:
            print(f"bench: {r['workload']}: {e}", file=sys.stderr)
        if args.out:
            args.out.parent.mkdir(parents=True, exist_ok=True)
            with args.out.open("a") as f:
                f.write(json.dumps({**r, "metrics": shown}) + "\n")
    correct = all(r["correct"] for r in results)
    print(f"bench: {len(results)} workload(s) in "
          f"{time.perf_counter() - t0:.1f} s", file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
