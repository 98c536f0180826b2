"""The Cosy kernel extension: decode and execute compounds in kernel mode.

"The final component is the Cosy kernel extension, which is the heart of
the Cosy framework.  It decodes each operation within a compound and then
executes each operation in turn." (§2.3)

Execution model:

* the whole compound enters the kernel through **one** trap (the
  ``cosy_exec`` syscall), so N operations cost one boundary crossing;
* syscall operations run the *same kernel bodies* a normal process reaches
  through the dispatcher (the ``ksys_*`` and ``do_*`` methods of
  :mod:`repro.kernel.syscalls`), so every argument/fd/permission/path
  check still runs and fails with the same errno; only the copy differs:
  data moves through the shared buffer at in-kernel memcpy cost instead
  of uaccess cost (the zero-copy saving).  :data:`COMPOUND_SYSCALLS` is
  the one table of syscalls a compound may run; Cosy-GCC and autoprofile
  read it too;
* every operation is a preemption point, which arms the kernel-time
  watchdog against infinite loops;
* user functions (CALLF ops) run under segment isolation per the
  configured :class:`~repro.core.cosy.safety.CosyProtection`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.cminus import ast_nodes as ast
from repro.cminus.compile import bump_generation
from repro.cminus.interp import int_binop
from repro.core.cosy.compound import (CompoundFault, CompoundStatus,
                                      decode_compound)
from repro.core.cosy.ops import Arg, ArgKind, MATH_OP_NAMES, Op, OpCode
from repro.core.cosy.safety import CosyProtection, CosyWatchdog, FunctionIsolation
from repro.core.cosy.shared_buffer import SharedBuffer
from repro.errors import CosyError, ENOMEM, Errno, OutOfMemory
from repro.kernel.clock import Mode
from repro.kernel.syscalls.table import syscall_name, syscall_nr

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.net.syscalls import SocketLayer
    from repro.kernel.process import Task
    from repro.kernel.syscalls import SyscallInterface

#: default kernel-time budget for one compound: ~200 ms at 1.7 GHz.
DEFAULT_MAX_KERNEL_CYCLES = 340_000_000


class _RegisteredFunction:
    def __init__(self, program: ast.Program, func: str, handcrafted: bool):
        self.program = program
        self.func = func
        self.handcrafted = handcrafted


class CosyKernelExtension:
    """One loaded instance of the Cosy kernel module."""

    def __init__(self, kernel: "Kernel", *,
                 protection: CosyProtection = CosyProtection.DATA_ONLY,
                 max_kernel_cycles: int = DEFAULT_MAX_KERNEL_CYCLES,
                 verifier=None, engine: str = "compiled"):
        self.kernel = kernel
        self.protection = protection
        #: C-minus execution engine for CALLF ops: "compiled" (generated
        #: code + kernel.code_cache) or "tree" (the oracle interpreter)
        self.engine = engine
        self.watchdog = CosyWatchdog(kernel, max_kernel_cycles)
        self.watchdog.arm()
        self._functions: dict[int, _RegisteredFunction] = {}
        self._next_func_id = 1
        self.compounds_executed = 0
        self.compounds_failed = 0
        self.ops_executed = 0
        #: status of the most recent compound (§2.1 partial-failure record)
        self.last_status: CompoundStatus | None = None
        #: optional §2.4 trust manager (set by TrustManager itself)
        self.trust_manager = None
        #: optional load-time verifier (e.g.
        #: :class:`repro.safety.verifier.LoadTimeVerifier` — duck-typed so
        #: the core package keeps no import of the safety tools).  When
        #: set, every register_function() is verified: REJECT refuses the
        #: load, and verdicts are published to the trust manager.
        self.verifier = verifier
        #: func_id -> effective load-time verdict (when a verifier is set)
        self.verdicts: dict[int, object] = {}

    def unload(self) -> None:
        self.watchdog.disarm()

    # ---------------------------------------------------------- functions

    def register_function(self, program: ast.Program, func: str,
                          *, handcrafted: bool = False) -> int:
        """Register a compiled user function; returns its CALLF id.

        When a load-time verifier is attached, the function is statically
        verified *here* — the one-time analysis cost is charged to kernel
        time, a REJECT verdict refuses the registration with
        :class:`~repro.errors.VerifierReject`, and PROVEN_SAFE verdicts are
        published to the trust manager so the function can start at
        DATA_ONLY protection without any warmup runs.
        """
        if func not in program.funcs:
            raise CosyError(f"function '{func}' not defined in program")
        # (Re-)registration is a load event: any previously compiled code
        # for this program object must not survive it.
        bump_generation(program)
        verdict = None
        if self.verifier is not None and not handcrafted:
            fv = self.verifier.verdict_for(program, func)
            self.kernel.clock.charge(
                self.kernel.costs.verifier_cost(fv.nodes), Mode.SYSTEM)
            if fv.effective.name == "REJECT":
                from repro.errors import VerifierReject
                raise VerifierReject(func, fv.reject_reasons())
            verdict = fv.effective
        func_id = self._next_func_id
        self._next_func_id += 1
        self._functions[func_id] = _RegisteredFunction(program, func, handcrafted)
        if verdict is not None:
            self.verdicts[func_id] = verdict
            if self.trust_manager is not None:
                self.trust_manager.note_verdict(func_id, verdict)
        return func_id

    # ----------------------------------------------------------- execution

    def execute(self, task: "Task", compound: bytes,
                shared: SharedBuffer) -> list[int]:
        """Run a compound as the ``cosy_exec`` syscall; returns final slots."""
        sys = self.kernel.sys
        return sys._dispatch(
            "cosy_exec",
            lambda: self._execute_in_kernel(task, compound, shared),
            args=(len(compound),))

    def _execute_in_kernel(self, task: "Task", compound: bytes,
                           shared: SharedBuffer) -> list[int]:
        kernel = self.kernel
        costs = kernel.costs
        kernel.clock.charge(costs.cosy_setup, Mode.SYSTEM)
        ops, nslots = decode_compound(compound)
        slots = [0] * max(nslots, 1)
        isolation = FunctionIsolation(kernel, task, shared, self.protection,
                                      engine=self.engine)
        self.compounds_executed += 1
        task.kernel_entry_cycles = kernel.clock.now
        status = CompoundStatus()
        self.last_status = status
        pc = 0
        tracer = kernel.trace
        try:
            while pc < len(ops):
                op = ops[pc]
                kernel.clock.charge(costs.cosy_decode_op, Mode.SYSTEM)
                kernel.sched.maybe_preempt()  # watchdog checkpoint
                self.ops_executed += 1
                if op.opcode is OpCode.END:
                    break
                traced = tracer.enabled
                if traced:
                    tracer.begin(f"cosy:{_op_label(op)}", "cosy", pc=pc)
                try:
                    pc = self._exec_op(op, pc, slots, shared, isolation)
                except (Errno, OutOfMemory) as exc:
                    # §2.1 partial failure: the compound stops at the
                    # failing element.  Ops before pc have fully taken
                    # effect (their results are in `slots`); nothing after
                    # pc ran.  Report which element failed, with errno.
                    errno = exc.errno if isinstance(exc, Errno) else ENOMEM
                    status.failed_index = pc
                    status.errno = errno
                    self.compounds_failed += 1
                    raise CompoundFault(errno, pc, _op_label(op), slots,
                                        status.ops_completed,
                                        str(exc)) from exc
                finally:
                    if traced:
                        tracer.end()
                status.ops_completed += 1
        finally:
            task.kernel_entry_cycles = None
            isolation.release()
        return slots

    # ------------------------------------------------------------ op bodies

    def _exec_op(self, op: Op, pc: int, slots: list[int],
                 shared: SharedBuffer, isolation: FunctionIsolation) -> int:
        if op.opcode is OpCode.MOV:
            slots[op.dst] = _resolve(op.args[0], slots)
            return pc + 1
        if op.opcode is OpCode.MATH:
            name = MATH_OP_NAMES.get(op.extra)
            if name is None:
                raise CosyError(f"bad math opcode {op.extra}")
            a = _resolve(op.args[0], slots)
            b = _resolve(op.args[1], slots)
            try:
                slots[op.dst] = int_binop(name, a, b)
            except ZeroDivisionError:
                what = "division" if name == "/" else "modulo"
                raise CosyError(f"{what} by zero in compound") from None
            return pc + 1
        if op.opcode is OpCode.JMP:
            return op.extra
        if op.opcode is OpCode.JZ:
            cond = _resolve(op.args[0], slots)
            return op.extra if cond == 0 else pc + 1
        if op.opcode is OpCode.SYSCALL:
            slots[op.dst] = self._exec_syscall(op, slots, shared)
            return pc + 1
        if op.opcode is OpCode.CALLF:
            reg = self._functions.get(op.extra)
            if reg is None:
                raise CosyError(f"CALLF to unregistered function {op.extra}")
            args = [_resolve(a, slots) if a.kind is not ArgKind.SHARED
                    else a.value for a in op.args]
            trust = self.trust_manager
            mode = trust.protection_for(op.extra) if trust is not None else None
            try:
                slots[op.dst] = isolation.call(reg.program, reg.func, args,
                                               handcrafted=reg.handcrafted,
                                               mode=mode)
            except Exception as exc:
                from repro.errors import HardwareFault
                if trust is not None and isinstance(exc, HardwareFault):
                    trust.record_fault(op.extra, exc)
                raise
            if trust is not None:
                trust.record_clean(op.extra)
            return pc + 1
        raise CosyError(f"unexpected opcode {op.opcode}")

    # ------------------------------------------------- syscall marshalling

    def _exec_syscall(self, op: Op, slots: list[int],
                      shared: SharedBuffer) -> int:
        """Run one syscall op through the classic kernel body, zero-copy."""
        kernel = self.kernel
        kernel.clock.charge(kernel.costs.syscall_dispatch, Mode.SYSTEM)
        run = _SYSCALLS_BY_NR.get(op.extra)
        if run is None:
            raise CosyError(f"syscall '{syscall_name(op.extra)}' is not "
                            "available in compounds")
        return run(kernel.sys, _OpArgs(op, slots, shared))


def _resolve(arg: Arg, slots: list[int]) -> int:
    if arg.kind is ArgKind.LIT:
        return arg.value
    if arg.kind is ArgKind.SLOT:
        return slots[arg.value]
    raise CosyError("shared-buffer arg used where a scalar is expected")


class _OpArgs:
    """The arguments of one SYSCALL op: scalars are literals or slots,
    buffers and paths are references into the shared buffer."""

    __slots__ = ("op", "slots", "shared")

    def __init__(self, op: Op, slots: list[int], shared: SharedBuffer):
        self.op = op
        self.slots = slots
        self.shared = shared

    def __len__(self) -> int:
        return len(self.op.args)

    def scalar(self, i: int) -> int:
        return _resolve(self.op.args[i], self.slots)

    def ref(self, i: int) -> tuple[int, int]:
        """``(offset, length)`` of a shared-buffer argument."""
        a = self.op.args[i]
        if a.kind is not ArgKind.SHARED:
            raise CosyError(f"{syscall_name(self.op.extra)}: arg {i} must "
                            "be a shared-buffer ref")
        return a.value, a.aux

    def path(self, i: int) -> str:
        off, length = self.ref(i)
        # C-string semantics: stop at the first NUL so a reused request
        # region (e.g. the Cosy HTTP server's) tolerates stale tails.
        return self.shared.read_kernel(off, length).split(b"\0", 1)[0].decode()


# One function per compound syscall: the classic kernel body, with the
# shared buffer in place of uaccess.  Each copy sits where the classic
# handler's uaccess copy sits: reads copy out after the position update,
# writes copy in once the file is known to be writable.

def _read(sys: "SyscallInterface", a: _OpArgs,
          offset: int | None = None) -> int:
    off, _ = a.ref(1)
    data = sys.ksys_read(a.scalar(0), a.scalar(2), offset)
    a.shared.write_kernel(off, data)
    return len(data)


def _write(sys: "SyscallInterface", a: _OpArgs,
           offset: int | None = None) -> int:
    off, _ = a.ref(1)
    count = a.scalar(2)
    return sys.ksys_write(a.scalar(0), count,
                          lambda: a.shared.read_kernel(off, count), offset)


def _stat(sys: "SyscallInterface", a: _OpArgs) -> int:
    path = a.path(0)
    off, _ = a.ref(1)
    a.shared.write_kernel(off, sys.ksys_stat(path).pack())
    return 0


def _fstat(sys: "SyscallInterface", a: _OpArgs) -> int:
    off, _ = a.ref(1)
    a.shared.write_kernel(off, sys.ksys_fstat(a.scalar(0)).pack())
    return 0


def _getdents(sys: "SyscallInterface", a: _OpArgs) -> int:
    """Packs linux_dirent64 records; returns the bytes filled."""
    off, length = a.ref(1)
    entries = sys.ksys_getdents(
        a.scalar(0), length,
        lambda out, used: a.shared.write_kernel(
            off, b"".join(e.pack() for e in out)))
    return sum(e.encoded_size() for e in entries)


def _net(sys: "SyscallInterface") -> "SocketLayer":
    """The socket layer, which compounds reach only once it is loaded."""
    stack = sys.kernel.socket_layer
    if stack is None:
        raise CosyError("socket layer is not loaded")
    return stack


#: The syscalls a compound may run, by name, and how each runs.
COMPOUND_SYSCALLS: dict[str, Callable[["SyscallInterface", _OpArgs], int]] = {
    "open": lambda sys, a: sys.ksys_open(
        a.path(0), a.scalar(1), a.scalar(2) if len(a) > 2 else 0o644),
    "close": lambda sys, a: sys.do_close(a.scalar(0)),
    "read": _read,
    "write": _write,
    "pread": lambda sys, a: _read(sys, a, a.scalar(3)),
    "pwrite": lambda sys, a: _write(sys, a, a.scalar(3)),
    "lseek": lambda sys, a: sys.do_lseek(a.scalar(0), a.scalar(1),
                                         a.scalar(2)),
    "getpid": lambda sys, a: sys.do_getpid(),
    "stat": _stat,
    "fstat": _fstat,
    "unlink": lambda sys, a: sys.ksys_unlink(a.path(0)),
    "mkdir": lambda sys, a: sys.ksys_mkdir(a.path(0)),
    "rmdir": lambda sys, a: sys.ksys_rmdir(a.path(0)),
    "ftruncate": lambda sys, a: sys.do_ftruncate(a.scalar(0), a.scalar(1)),
    "getdents": _getdents,
    "accept": lambda sys, a: _net(sys).do_accept(a.scalar(0)),
    "sendfile": lambda sys, a: _net(sys).do_sendfile(
        a.scalar(0), a.scalar(1), a.scalar(2), a.scalar(3)),
    "shutdown": lambda sys, a: _net(sys).do_shutdown(a.scalar(0),
                                                     a.scalar(1)),
}

_SYSCALLS_BY_NR = {syscall_nr(name): run
                   for name, run in COMPOUND_SYSCALLS.items()}


def _op_label(op: Op) -> str:
    """Human-readable name of a compound op for failure reports."""
    if op.opcode is OpCode.SYSCALL:
        return syscall_name(op.extra)
    if op.opcode is OpCode.CALLF:
        return f"callf#{op.extra}"
    return op.opcode.name.lower()
