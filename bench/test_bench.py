"""Smoke test of the benchmark at tiny sizes: ``pytest bench/``."""

from __future__ import annotations

import importlib
import re
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from hostclock import SteadyClock  # noqa: E402
from layers import ENTRY_POINTS  # noqa: E402
from workloads import WebRound, run_round  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def smoke(workload: str, seed: int, traced: bool = False) -> dict:
    (round_seed,) = run.round_seeds(seed, workload, "smoke")
    out = run_round(workload, round_seed, run.WORKLOADS[workload]["smoke"],
                    traced)
    assert not out["errors"], out["errors"]
    return out


def test_every_metric_is_named_and_reported():
    spec = run.load_spec()
    for kind, trace in (("end_to_end", False), ("per_layer", True)):
        names = [m["name"] for m in spec[kind]]
        assert len(names) == len(set(names))
        for m in spec[kind]:
            assert NAME.fullmatch(m["name"]), m["name"]
            assert m["unit"]
        result = run.run_workload("tenants-smp", run.DEFAULT_SEED, trace,
                                  size="smoke")
        assert result["correct"], result["errors"]
        assert set(names) <= result["metrics"].keys()


def test_same_seed_same_simulated_results():
    for workload in run.WORKLOADS:
        a, b = smoke(workload, 3), smoke(workload, 3)
        assert (a["sim"], a["cycles"]) == (b["sim"], b["cycles"])
    assert smoke("web-epoll", 3)["digest"] == smoke("web-cosy", 3)["digest"]


def test_heldout_seed_changes_inputs():
    for workload in ("tenants-smp", "kgcc-postmark"):
        a = smoke(workload, run.DEFAULT_SEED)
        b = smoke(workload, run.HELDOUT_SEED)
        assert a["sim"] != b["sim"]


def test_steady_clock_times_an_interval_shorter_than_a_probe_gap():
    clock = SteadyClock()
    clock.start()
    try:
        begin = time.perf_counter()
        end = begin + 0.001
        while time.perf_counter() < end:
            pass
        end = time.perf_counter()
    finally:
        clock.stop()
    assert 0 < clock.seconds(begin, end) < 1


def test_trace_wrappers_are_removed():
    def attributes() -> dict:
        out = {}
        for targets in ENTRY_POINTS.values():
            for module, cls_name, methods in targets:
                cls = getattr(importlib.import_module(module), cls_name)
                out.update({(cls_name, m): cls.__dict__.get(m)
                            for m in methods})
        for cls in WebRound.servers.values():
            out[(cls.__name__, "serve_wave")] = cls.__dict__["serve_wave"]
        return out

    before = attributes()
    plain = smoke("web-cosy", 2)
    traced = smoke("web-cosy", 2, traced=True)
    assert attributes() == before
    again = smoke("web-cosy", 2)
    assert plain["sim"] == traced["sim"] == again["sim"]
