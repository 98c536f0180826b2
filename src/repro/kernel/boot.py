"""The switches a :class:`~repro.kernel.core.Kernel` boots under, resolved
in one place (README, "Boot configuration")."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Literal, Mapping

#: sanity ceiling — the simulation is O(cpus) in several per-CPU sweeps.
MAX_CPUS = 64


def _flag(env: Mapping[str, str], name: str) -> bool:
    raw = env.get(name, "").strip()
    if raw not in ("", "0", "1"):
        raise ValueError(f"{name} must be 0 or 1, got {raw!r}")
    return raw == "1"


def _int(env: Mapping[str, str], name: str, default: int | None) -> int | None:
    raw = env.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class BootConfig:
    """The resolved boot switches of one kernel."""

    #: simulated CPU count; 1 is bit-identical to the pre-SMP machine
    cpus: int = 1
    #: "record" keeps violations in ``kernel.lockdep.reports``, "strict" raises
    lockdep: Literal["off", "record", "strict"] = "off"
    #: boot with tracing (and the latency tracers) enabled
    trace: bool = False
    #: arm the seeded observe-mode fault schedule (``arm_schedule``)
    fault_seed: int | None = None

    @classmethod
    def resolve(cls, cpus: int | None = None, lockdep: bool | None = None,
                environ: Mapping[str, str] | None = None) -> "BootConfig":
        """An explicit argument wins, then ``environ`` (default
        ``os.environ``), then the default.  ``lockdep=True`` records even
        under ``REPRO_LOCKDEP=1``, so self-tests of known-bad patterns can
        run in a strict CI run."""
        env = os.environ if environ is None else environ
        if cpus is None:
            cpus = _int(env, "REPRO_CPUS", 1)
        if not 1 <= cpus <= MAX_CPUS:
            raise ValueError(f"cpus must be in [1, {MAX_CPUS}], got {cpus}")
        if lockdep is None:
            level = "strict" if _flag(env, "REPRO_LOCKDEP") else "off"
        else:
            level = "record" if lockdep else "off"
        return cls(cpus, level, _flag(env, "REPRO_TRACE"),
                   _int(env, "REPRO_FAULT_SEED", None))
