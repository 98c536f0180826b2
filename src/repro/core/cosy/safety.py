"""Cosy safety mechanisms: the kernel-time watchdog and segment isolation.

Two mechanisms, exactly the two the paper names (§2.3):

* **Preemption watchdog** — "to remove the possibility of infinite loops in
  the kernel, we use a preemptive kernel that checks the running time of a
  Cosy process inside the kernel every time it is scheduled out. If this
  time has exceeded the maximum allowed kernel time then the process is
  terminated."  :class:`CosyWatchdog` is a scheduler preempt hook doing
  precisely that check; compound execution arms it by stamping
  ``task.kernel_entry_cycles``.

* **Segmentation** — user-supplied functions execute confined to an x86
  segment.  :class:`CosyProtection` selects between the paper's two
  designs:

  - ``FULL_ISOLATION``: code and data in separate segments at kernel
    privilege; every call pays a far-call, but self-modifying code is
    impossible (the code segment is execute-only) and *any* reference
    outside the data segment faults, even from hand-crafted functions.
  - ``DATA_ONLY``: only function data is confined; calls are free, but the
    protection assumes the code came from Cosy-GCC — a hand-crafted
    function can escape (the vulnerability the paper concedes, reproduced
    here so it can be demonstrated in tests).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.cminus import ast_nodes as ast
from repro.cminus.compile import CompiledEngine
from repro.cminus.interp import ExecLimits, Interpreter
from repro.cminus.memaccess import (KernelMemAccess, MemoryAccess,
                                   SegmentMemAccess)
from repro.errors import WatchdogExpired
from repro.kernel.clock import Mode
from repro.kernel.segments import (SEG_READ, SEG_WRITE, SegmentDescriptor,
                                   SegmentedView)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cosy.shared_buffer import SharedBuffer
    from repro.kernel.core import Kernel
    from repro.kernel.process import Task


class CosyProtection(enum.Enum):
    FULL_ISOLATION = "full"
    DATA_ONLY = "data-only"


class CosyWatchdog:
    """Scheduler hook that kills compounds exceeding their kernel time."""

    def __init__(self, kernel: "Kernel", max_kernel_cycles: int):
        if max_kernel_cycles <= 0:
            raise ValueError("watchdog budget must be positive")
        self.kernel = kernel
        self.max_kernel_cycles = max_kernel_cycles
        self.expirations = 0
        self._armed = False

    def arm(self) -> None:
        if not self._armed:
            self.kernel.sched.add_preempt_hook(self._on_preempt)
            self._armed = True

    def disarm(self) -> None:
        if self._armed:
            self.kernel.sched.remove_preempt_hook(self._on_preempt)
            self._armed = False

    def _on_preempt(self, task) -> None:
        entry = task.kernel_entry_cycles
        if entry is None:
            return
        used = self.kernel.clock.now - entry
        if used > self.max_kernel_cycles:
            self.expirations += 1
            task.kernel_entry_cycles = None
            raise WatchdogExpired(task.pid, used, self.max_kernel_cycles)


class FunctionIsolation:
    """Executes a compiled user function under a Cosy protection mode.

    The function's data segment is laid over the task's shared buffer, so
    shared-buffer offsets deposited by earlier syscall ops are directly
    dereferenceable by the function (zero-copy), while its stack and heap
    are carved from the tail of the same segment — "the static and dynamic
    needs of such a function are satisfied using memory belonging to the
    same isolated segment."
    """

    def __init__(self, kernel: "Kernel", task: "Task", shared: "SharedBuffer",
                 mode: CosyProtection, *, max_ops: int = 50_000_000,
                 engine: str = "compiled"):
        if engine not in ("compiled", "tree"):
            raise ValueError(f"unknown engine {engine!r}")
        self.kernel = kernel
        self.task = task
        self.shared = shared
        self.mode = mode
        self.max_ops = max_ops
        self.engine = engine
        self.data_selector = kernel.gdt.install(SegmentDescriptor(
            base=shared.base, limit=shared.size,
            perms=SEG_READ | SEG_WRITE, name="cosy-data"))
        self.view = SegmentedView(kernel.mmu, task.aspace,
                                  kernel.gdt, self.data_selector)

    def call(self, program: ast.Program, func: str, args: list[int], *,
             handcrafted: bool = False,
             mode: CosyProtection | None = None) -> int:
        """Run ``func`` from ``program`` in kernel mode under isolation.

        ``mode`` overrides the instance default per call — the trust
        manager (§2.4) uses this to promote observed-safe functions from
        full isolation to the cheap data-only scheme.
        """
        kernel = self.kernel
        costs = kernel.costs
        mode = mode if mode is not None else self.mode

        if handcrafted and mode is CosyProtection.DATA_ONLY:
            # The concession of §2.3: hand-crafted code in data-only mode
            # runs in the kernel segment — nothing confines it.
            mem: MemoryAccess = KernelMemAccess(kernel)
        else:
            # Heap/stack start after the data already staged in the buffer.
            mem = SegmentMemAccess(self.view,
                                   static_reserve=self.shared._cursor)

        if mode is CosyProtection.FULL_ISOLATION:
            # far call into the isolated code segment + segment loads
            kernel.clock.charge(costs.far_call + 2 * costs.segment_load,
                                Mode.SYSTEM)

        cminus_op = costs.cminus_op
        charge_system = kernel.clock.charge_system
        if self.engine == "compiled":
            interp: Interpreter | CompiledEngine = CompiledEngine(
                program, mem,
                on_op_batch=lambda n: charge_system(n * cminus_op),
                step_hook=kernel.sched.maybe_preempt,
                limits=ExecLimits(max_ops=self.max_ops),
                cache=kernel.code_cache,
                tracer=kernel.trace,
            )
        else:  # the tree-walking oracle
            interp = Interpreter(
                program, mem,
                on_op=lambda: charge_system(cminus_op),
                step_hook=kernel.sched.maybe_preempt,
                limits=ExecLimits(max_ops=self.max_ops),
            )
        try:
            return interp.call(func, *args)
        finally:
            if mode is CosyProtection.FULL_ISOLATION:
                kernel.clock.charge(costs.far_call, Mode.SYSTEM)  # far return

    def release(self) -> None:
        self.kernel.gdt.remove(self.data_selector)
