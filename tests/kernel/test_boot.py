"""The boot configuration (repro.kernel.boot): one rule for every switch,
the kernel booting what it resolves, and CI's ``configs`` matrix
booting what each of its entries promises."""

import re
from itertools import takewhile
from pathlib import Path

import pytest
import yaml

from repro.kernel import Kernel
from repro.kernel.boot import BootConfig

ROOT = Path(__file__).resolve().parents[2]
CI = ROOT / ".github" / "workflows" / "ci.yml"

#: what the comment above the CI ``configs`` job promises for each entry
PROMISED = {
    "trace": BootConfig(trace=True),
    "lockdep": BootConfig(lockdep="strict"),
    "smp": BootConfig(cpus=4, lockdep="strict"),
    "uring": BootConfig(cpus=4, lockdep="strict"),
    "faults": BootConfig(fault_seed=1),
}


def test_kernel_boots_the_resolved_config(monkeypatch):
    for name in ("REPRO_CPUS", "REPRO_LOCKDEP", "REPRO_TRACE",
                 "REPRO_FAULT_SEED"):
        monkeypatch.delenv(name, raising=False)
    k = Kernel()
    assert (k.ncpus, k.lockdep, k.trace.enabled, k.faults.enabled) == \
        (1, None, False, False)
    monkeypatch.setenv("REPRO_CPUS", "2")
    monkeypatch.setenv("REPRO_LOCKDEP", "1")
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_FAULT_SEED", "3")
    k = Kernel()
    assert (k.ncpus, k.lockdep.strict, k.trace.enabled) == (2, True, True)
    injections = list(k.faults.active_injections())
    assert len(injections) == 6 and all(i.observe for i in injections)
    k = Kernel(cpus=1, lockdep=False)
    assert (k.ncpus, k.lockdep) == (1, None)


def test_trace_flag_reads_one_as_on(monkeypatch):
    for raw, on in (("1", True), ("0", False), ("", False)):
        monkeypatch.setenv("REPRO_TRACE", raw)
        assert Kernel().trace.enabled is on
    monkeypatch.setenv("REPRO_TRACE", "true")
    with pytest.raises(ValueError, match="REPRO_TRACE"):
        Kernel()


def _env(assignments):
    return dict(a.split("=", 1) for a in assignments)


def _env_prefixes(command):
    """The ``VAR=value`` words after each ``env`` that starts a line."""
    for line in command.splitlines():
        words = line.split()
        if words[:1] == ["env"]:
            yield _env(takewhile(lambda w: "=" in w, words[1:]))


def test_ci_configs_boot_what_their_comment_promises():
    ci = yaml.safe_load(CI.read_text())
    entries = ci["jobs"]["configs"]["strategy"]["matrix"]["include"]
    assert {e["name"] for e in entries} == set(PROMISED)
    prefixes = 0
    for entry in entries:
        env = _env(entry["env"].split())
        assert BootConfig.resolve(environ=env) == PROMISED[entry["name"]], \
            entry["name"]
        for prefix in _env_prefixes(entry.get("extra", "")):
            prefixes += 1
            assert BootConfig.resolve(environ=prefix).lockdep == "strict", \
                entry["name"]
    assert prefixes


def test_ci_names_only_variables_the_code_reads():
    code = "".join(p.read_text() for d in ("src", "benchmarks")
                   for p in (ROOT / d).rglob("*.py"))
    named = set(re.findall(r"REPRO_[A-Z_]+", CI.read_text()))
    assert named
    assert {n for n in named if f'"{n}"' not in code} == set()
