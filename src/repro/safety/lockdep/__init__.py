"""repro.safety.lockdep — the concurrency sanitizer (Linux lockdep model).

Validates lock ordering, IRQ-safety classes, and atomicity across the
whole simulated kernel *before* the SMP work makes violations fatal.
Enable per-kernel with ``Kernel(lockdep=True)`` (record violations) or
run-wide with ``REPRO_LOCKDEP=1`` (strict: first violation raises
:class:`LockdepError`).  Validation charges zero simulated cycles.

See ``docs/LOCKDEP.md`` for the model and report format.
"""

from repro.safety.lockdep.classes import (CTX_HARDIRQ, CTX_PROCESS,
                                          CTX_SOFTIRQ, ENABLED_IRQ,
                                          KIND_SLEEP, KIND_SPIN,
                                          USED_IN_HARDIRQ, USED_IN_SOFTIRQ,
                                          DepEdge, HeldLock, LockClass)
from repro.safety.lockdep.report import (DEADLOCK, IRQ_INVERSION,
                                         IRQ_UNSAFE_DEP, RECURSION,
                                         RELEASE_NOT_HELD, RELEASE_ORDER,
                                         SLEEP_IN_ATOMIC, LockdepError,
                                         LockdepReport, render_reports)
from repro.safety.lockdep.selftest import SelftestResult, run_selftests
from repro.safety.lockdep.validator import ENV_LOCKDEP_OUT, LockdepValidator

__all__ = [
    "LockdepValidator", "LockdepError", "LockdepReport", "render_reports",
    "LockClass", "HeldLock", "DepEdge",
    "run_selftests", "SelftestResult",
    "ENV_LOCKDEP_OUT",
    "KIND_SPIN", "KIND_SLEEP",
    "USED_IN_HARDIRQ", "USED_IN_SOFTIRQ", "ENABLED_IRQ",
    "CTX_PROCESS", "CTX_SOFTIRQ", "CTX_HARDIRQ",
    "DEADLOCK", "RECURSION", "IRQ_INVERSION", "IRQ_UNSAFE_DEP",
    "SLEEP_IN_ATOMIC", "RELEASE_ORDER", "RELEASE_NOT_HELD",
]
