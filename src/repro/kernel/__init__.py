"""The simulated-kernel substrate.

Everything the paper's systems run on: a cycle-accounted clock, demand-paged
memory with a faulting MMU, x86-style segmentation, kmalloc/vmalloc, a
preemptive scheduler, a VFS with a dcache, concrete filesystems, and a
syscall layer that meters every boundary crossing.
"""

from repro.kernel.clock import Clock, ClockSnapshot, Mode, Timings
from repro.kernel.costs import (CostModel, DEFAULT_COSTS, DiskProfile,
                                IDE_7200RPM, SCSI_15KRPM)
from repro.kernel.core import Kernel
from repro.kernel.faultinject import (FAILPOINTS, FaultRecord, FaultRegistry,
                                      Injection, arm_schedule)
from repro.kernel.process import Task
from repro.kernel.locks import SpinLock, Semaphore
from repro.kernel.refcount import RefCount

__all__ = [
    "Clock", "ClockSnapshot", "Mode", "Timings",
    "CostModel", "DEFAULT_COSTS", "DiskProfile", "IDE_7200RPM", "SCSI_15KRPM",
    "Kernel", "Task", "SpinLock", "Semaphore", "RefCount",
    "FAILPOINTS", "FaultRecord", "FaultRegistry", "Injection", "arm_schedule",
]
