"""Deterministic fault injection: failpoints for the simulated kernel.

Linux hardens its error paths with *fault injection* (``failslab``,
``fail_make_request``, BPF error injection): named hooks on the success
path of fallible services that a test can arm to fail on demand.  This
module is the simulator's equivalent, with one extra property the real
facility lacks: **full determinism**.  Every policy is driven either by
hit counters or by a caller-supplied PRNG seed, so an identical seed and
workload reproduces the identical injection trace, byte for byte — which
is what makes failure-path bugs *regression-testable*.

Concepts:

* A **failpoint** is a named site class (``kmalloc``, ``disk.write``, ...)
  the kernel consults on its success path via
  :meth:`FaultRegistry.should_fail`.  With nothing armed the consultation
  is a single attribute check and charges no simulated cycles — a kernel
  with no faults configured behaves identically to one without the
  subsystem.
* An **injection** arms one failpoint with a *policy* (every-Nth hit,
  seeded probability, one-shot at hit K), an optional *site filter*
  (fnmatch glob over the call-site string), an optional cap on total
  injections, and the errno to deliver.  Injections are context managers::

      with kernel.faults.inject("kmalloc", errno=ENOMEM, every=3):
          workload()

* Every decision to inject appends a :class:`FaultRecord` to the
  registry's trace and logs a ``fault-inject:`` line to syslog, so both
  tests and `analysis/report.py` can account for exactly what fired where.

What an injection *means* is defined by the instrumented site:

====================  =====================================================
failpoint             effect when it fires
====================  =====================================================
``kmalloc``           :class:`~repro.errors.OutOfMemory` (ENOMEM at the
                      syscall boundary)
``vmalloc``           same, from the vmalloc area
``disk.read``         :class:`~repro.errors.Errno` EIO from the device
``disk.write``        same, including buffer-cache write-back
``copy_to_user``      Errno EFAULT at the user/kernel boundary
``copy_from_user``    same, inbound
``lock.acquire``      simulated contention: the acquiring task is charged
                      a schedule-away-and-back round trip (no error)
``sched.preempt``     the current quantum is treated as expired (forced
                      preemption; no error)
``net.tx``            the packet is dropped on the NIC TX ring and the
                      connection is reset (later ops see ECONNRESET)
``net.rx``            the packet is dropped during softirq RX delivery,
                      with the same connection-reset effect
``uring.dispatch``    the SQE being dispatched completes with an error CQE
                      (EIO), linked SQEs complete with ECANCELED, and the
                      rest of the batch stays queued — the ring analogue
                      of Cosy partial-failure semantics (``CompoundFault``)
====================  =====================================================

Injected faults still charge their normal cost-model cycles up to the
point of failure (a failing ``disk.write`` already paid the seek; a
failing ``kmalloc`` already paid the allocator cost) — see
``docs/FAULT_INJECTION.md`` and ``docs/COST_MODEL.md``.
"""

from __future__ import annotations

import fnmatch
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.errors import ECONNRESET, EFAULT, EINTR, EIO, ENOMEM, errno_name
from repro.trace.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

#: The kernel-wide failpoint catalog.  ``register`` can add more at runtime
#: (e.g. module-private failpoints), but these always exist.
FAILPOINTS = (
    "kmalloc",
    "vmalloc",
    "disk.read",
    "disk.write",
    "lock.acquire",
    "copy_to_user",
    "copy_from_user",
    "sched.preempt",
    "net.tx",
    "net.rx",
    "uring.dispatch",
)

#: errno delivered when ``inject()`` is not given one explicitly.
DEFAULT_ERRNOS = {
    "kmalloc": ENOMEM,
    "vmalloc": ENOMEM,
    "disk.read": EIO,
    "disk.write": EIO,
    "copy_to_user": EFAULT,
    "copy_from_user": EFAULT,
    # For these two the errno is a label only; the site defines the effect.
    "lock.acquire": EINTR,
    "sched.preempt": EINTR,
    # Dropped packets reset the connection (there is no retransmit layer).
    "net.tx": ECONNRESET,
    "net.rx": ECONNRESET,
    # Delivered as a per-CQE error code, never as a syscall failure.
    "uring.dispatch": EIO,
}

#: per-hit probability of the boot-time schedule (:func:`arm_schedule`).
SCHEDULE_RATE = 0.002


@dataclass(frozen=True)
class FaultRecord:
    """One entry of the deterministic injection trace."""

    seq: int            # position in the registry's trace
    failpoint: str
    site: str
    hit: int            # the failpoint's hit counter when this fired
    errno: int
    observed: bool      # True = counted only, no failure delivered

    def __str__(self) -> str:
        tag = "observe" if self.observed else "inject"
        return (f"{tag} #{self.seq} {self.failpoint}@{self.site} "
                f"hit={self.hit} -> {errno_name(self.errno)}")


class Failpoint:
    """Per-failpoint counters (the ``/sys/kernel/debug/fail*`` analogue).

    The counters live in the owning registry's
    :class:`~repro.trace.metrics.MetricsRegistry` under
    ``fault.<name>.{hits,injected,observed}``; the attribute names read
    here are thin views so callers and tests keep the classic API.
    """

    def __init__(self, name: str, metrics: MetricsRegistry):
        self.name = name
        self._hits = metrics.counter(
            f"fault.{name}.hits",
            help="evaluations while at least one injection armed")
        self._injected = metrics.counter(
            f"fault.{name}.injected",
            help="decisions that delivered a failure")
        self._observed = metrics.counter(
            f"fault.{name}.observed",
            help="decisions that fired in observe mode")

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def injected(self) -> int:
        return self._injected.value

    @property
    def observed(self) -> int:
        return self._observed.value

    def reset(self) -> None:
        self._hits.reset()
        self._injected.reset()
        self._observed.reset()

    def __repr__(self) -> str:  # pragma: no cover
        return (f"Failpoint({self.name!r}, hits={self.hits}, "
                f"injected={self.injected}, observed={self.observed})")


class Injection:
    """One armed policy on one failpoint.

    Exactly one of ``every`` / ``probability`` / ``at_call`` selects the
    policy; with none given the injection fires on every matching hit.
    ``times`` caps total firings; ``site`` is an fnmatch glob over the
    call-site string; ``observe=True`` counts and traces the decision but
    delivers success (used by the CI smoke schedule so the tier-1 suite
    exercises the plumbing everywhere with zero behavioral change).
    """

    def __init__(self, registry: "FaultRegistry", failpoint: str, errno: int,
                 *, every: int | None = None, probability: float | None = None,
                 seed: int | None = None, at_call: int | None = None,
                 times: int | None = None, site: str = "*",
                 observe: bool = False):
        chosen = [p for p in (every, probability, at_call) if p is not None]
        if len(chosen) > 1:
            raise ValueError("pick one policy: every=, probability=, or at_call=")
        if every is not None and every < 1:
            raise ValueError("every= must be >= 1")
        if at_call is not None and at_call < 1:
            raise ValueError("at_call= is 1-based and must be >= 1")
        if probability is not None and not (0.0 <= probability <= 1.0):
            raise ValueError("probability= must be in [0, 1]")
        if probability is not None and seed is None:
            raise ValueError("probability= requires seed= (determinism)")
        if times is not None and times < 1:
            raise ValueError("times= must be >= 1")
        self.registry = registry
        self.failpoint = failpoint
        self.errno = errno
        self.every = every
        self.probability = probability
        self.seed = seed
        self.at_call = at_call
        self.times = times
        self.site = site
        self.observe = observe
        self.hits = 0       # matching-site evaluations of *this* injection
        self.injected = 0
        self._rng = random.Random(seed) if probability is not None else None

    # ------------------------------------------------------------ decision

    def matches(self, site: str) -> bool:
        return self.site == "*" or fnmatch.fnmatchcase(site, self.site)

    def decide(self) -> bool:
        """Evaluate the policy for one matching hit."""
        self.hits += 1
        if self.times is not None and self.injected >= self.times:
            return False
        if self.at_call is not None:
            fire = self.hits == self.at_call
        elif self.every is not None:
            fire = self.hits % self.every == 0
        elif self.probability is not None:
            fire = self._rng.random() < self.probability
        else:
            fire = True
        if fire:
            self.injected += 1
        return fire

    # ------------------------------------------------------- arm lifecycle

    def remove(self) -> None:
        self.registry._disarm(self)

    def __enter__(self) -> "Injection":
        return self

    def __exit__(self, *exc) -> bool:
        self.remove()
        return False


class FaultRegistry:
    """The kernel-wide failpoint registry (``kernel.faults``).

    ``kernel`` may be None for standalone policy tests; then injections
    still work but nothing is logged to syslog and trace records carry
    cycle 0.  Counters live in ``metrics`` (the kernel-wide registry when
    attached to a kernel, a private one when standalone).
    """

    def __init__(self, kernel: "Kernel | None" = None, *,
                 metrics: MetricsRegistry | None = None):
        self.kernel = kernel
        if metrics is None:
            metrics = getattr(kernel, "metrics", None) or MetricsRegistry()
        self.metrics = metrics
        self.failpoints: dict[str, Failpoint] = {
            name: Failpoint(name, metrics) for name in FAILPOINTS}
        self._active: dict[str, list[Injection]] = {}
        #: fast-path gate: False ⇒ ``should_fail`` returns after one check.
        self.enabled = False
        self.trace: list[FaultRecord] = []

    # ------------------------------------------------------------ failpoints

    def register(self, name: str) -> Failpoint:
        """Declare an extra (module-private) failpoint."""
        fp = self.failpoints.get(name)
        if fp is None:
            fp = self.failpoints[name] = Failpoint(name, self.metrics)
        return fp

    # -------------------------------------------------------------- arming

    def inject(self, failpoint: str, *, errno: int | None = None,
               every: int | None = None, probability: float | None = None,
               seed: int | None = None, at_call: int | None = None,
               times: int | None = None, site: str = "*",
               observe: bool = False) -> Injection:
        """Arm an injection; returns it (usable as a context manager).

        The injection is live immediately and stays live until its context
        exits, :meth:`Injection.remove` is called, or :meth:`clear`.
        """
        if failpoint not in self.failpoints:
            raise ValueError(
                f"unknown failpoint {failpoint!r}; declared: "
                f"{sorted(self.failpoints)} (use register() for new ones)")
        if errno is None:
            errno = DEFAULT_ERRNOS.get(failpoint, EIO)
        inj = Injection(self, failpoint, errno, every=every,
                        probability=probability, seed=seed, at_call=at_call,
                        times=times, site=site, observe=observe)
        self._active.setdefault(failpoint, []).append(inj)
        self.enabled = True
        return inj

    def _disarm(self, inj: Injection) -> None:
        active = self._active.get(inj.failpoint)
        if active and inj in active:
            active.remove(inj)
            if not active:
                del self._active[inj.failpoint]
        self.enabled = bool(self._active)

    def clear(self) -> None:
        """Disarm every injection (counters and trace are kept)."""
        self._active.clear()
        self.enabled = False

    def reset_counters(self) -> None:
        for fp in self.failpoints.values():
            fp.reset()
        self.trace.clear()

    def active_injections(self) -> Iterator[Injection]:
        for injections in self._active.values():
            yield from injections

    # ------------------------------------------------------------- decision

    def should_fail(self, failpoint: str, site: str = "?") -> int | None:
        """Consult a failpoint on its success path.

        Returns the errno to deliver, or None for success.  This is the
        only call instrumented kernel code makes; with nothing armed it
        costs one attribute check and no simulated cycles.
        """
        if not self.enabled:
            return None
        active = self._active.get(failpoint)
        if not active:
            return None
        fp = self.failpoints[failpoint]
        fp._hits.inc()
        for inj in active:
            if not inj.matches(site):
                continue
            if inj.decide():
                return self._fire(fp, inj, site)
        return None

    def _fire(self, fp: Failpoint, inj: Injection, site: str) -> int | None:
        record = FaultRecord(seq=len(self.trace), failpoint=fp.name,
                             site=site, hit=fp.hits, errno=inj.errno,
                             observed=inj.observe)
        self.trace.append(record)
        tag = "observe" if inj.observe else "inject"
        if self.kernel is not None:
            from repro.kernel.syslog import KERN_WARNING
            self.kernel.printk(
                KERN_WARNING,
                f"fault-inject: {tag} {fp.name}@{site} hit={fp.hits} "
                f"-> {errno_name(inj.errno)}")
            tracer = self.kernel.trace
            if tracer.enabled:
                tracer.instant(f"fault:{fp.name}", "fault", site=site,
                               mode=tag, errno=errno_name(inj.errno))
        if inj.observe:
            fp._observed.inc()
            return None
        fp._injected.inc()
        return inj.errno

    # ------------------------------------------------------------- reporting

    def stats(self) -> dict[str, tuple[int, int, int]]:
        """{failpoint: (hits, injected, observed)} for every failpoint."""
        return {name: (fp.hits, fp.injected, fp.observed)
                for name, fp in sorted(self.failpoints.items())}

    def trace_signature(self) -> list[tuple[str, str, int, int]]:
        """The determinism-relevant projection of the trace: identical
        seed + workload must reproduce this list exactly."""
        return [(r.failpoint, r.site, r.hit, r.errno) for r in self.trace]

    def log_summary(self) -> None:
        """printk one summary line per failpoint that saw traffic."""
        if self.kernel is None:
            return
        from repro.kernel.syslog import KERN_INFO
        for name, (hits, injected, observed) in self.stats().items():
            if hits:
                self.kernel.printk(
                    KERN_INFO,
                    f"fault-inject: summary {name}: hits={hits} "
                    f"injected={injected} observed={observed}")


def arm_schedule(registry: FaultRegistry, seed: int) -> None:
    """Arm the seeded low-rate schedule a kernel boots with when
    ``BootConfig.fault_seed`` is set (the CI ``faults`` entry).

    Every error-delivering failpoint gets a seeded probability injection
    in observe mode: decisions are traced and counted but always return
    success, so the tier-1 suite runs unmodified.  Suites written to
    survive delivered faults arm their own injections.
    """
    for i, name in enumerate(("kmalloc", "vmalloc", "disk.read", "disk.write",
                              "copy_to_user", "copy_from_user")):
        # Distinct derived seeds keep the failpoints' streams independent
        # while the whole schedule stays a function of one published seed.
        registry.inject(name, probability=SCHEDULE_RATE,
                        seed=seed * 1000003 + i, observe=True)
