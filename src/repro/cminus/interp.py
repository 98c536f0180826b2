"""Tree-walking interpreter for the C subset.

Names are resolved lexically, by :func:`repro.cminus.resolve.resolve`.
A *register* -- an integer or pointer local or parameter whose address
is never taken -- lives in the call's frame, outside simulated memory.
Every other variable lives at a real simulated address supplied by a
:class:`~repro.cminus.memaccess.MemoryAccess`; every load and store moves
actual bytes, so the safety tools observe genuine memory behaviour:
Kefence's guard pages fault on overflowing pointers, segment limits stop
escaping ones, and KGCC's :class:`~repro.cminus.ast_nodes.Check` nodes are
executed here by calling into the attached check runtime with the values
the checked node computed: an arith check evaluates its ``+``/``-`` once
and hands the runtime that sum's pointer operand as the base.

Hooks (all optional):

* ``on_op_batch(n)`` — called with ``n`` = 1 at every AST operation
  (the compiled engine batches ``n``); harnesses charge ``n`` ×
  :attr:`CostModel.cminus_op` cycles here.  KGCC's runtime calls are
  not operations: a program ticks the same with the check runtime
  attached, detached or disabled.
* ``step_hook()`` — called once per statement; the Cosy kernel extension
  hits its preemption point here (the watchdog of §2.3).  It may return
  a *budget*: how many more ops may run before it must see the clock
  again.  The tree-walker ignores it and calls the hook at every
  statement; the compiled engine skips the hook while fewer ops than
  the budget have run since the last flush point.  ``None``, ``False``
  or 0 asks for every statement.
* ``var_hooks`` — ``on_decl(binding, addr, site)`` /
  ``on_scope_exit(addrs)`` for every variable in memory; KGCC registers
  stack objects in its address map through these (the compiler-inserted
  registrations of §3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.cminus import ast_nodes as ast
from repro.cminus.ctypes import (ArrayType, CHAR, CType, INT, IntType,
                                 PointerType, StructType)
from repro.cminus.memaccess import MemoryAccess
from repro.cminus.resolve import (Binding, register_of, resolve,
                                  static_type)
from repro.errors import CMinusError

_WORD_MASK = (1 << 64) - 1


class CheckRuntime(Protocol):
    """What KGCC plugs in to execute Check nodes."""

    def check_deref(self, addr: int, size: int, site: str) -> None: ...
    def check_index(self, base: int, addr: int, size: int, site: str) -> None: ...
    def check_arith(self, base: int, result: int, site: str) -> int: ...


class VarHooks(Protocol):
    def on_decl(self, binding: Binding, addr: int, site: str) -> None: ...
    def on_scope_exit(self, addrs: list[int]) -> None: ...


@dataclass
class ExecLimits:
    """Runaway protection for untrusted programs."""

    max_ops: int | None = None


class _ReturnSignal(Exception):
    def __init__(self, value: int):
        self.value = value


class _BreakSignal(Exception):
    pass


class _ContinueSignal(Exception):
    pass


def _truncate(value: int, ctype: CType) -> int:
    """Store-width truncation with sign handling."""
    if isinstance(ctype, PointerType):
        return value & _WORD_MASK
    bits = ctype.size * 8
    value &= (1 << bits) - 1
    if isinstance(ctype, IntType) and ctype.signed and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


def _step_by(ctype: CType, op: str) -> int:
    """What ``++`` (``op``) or ``--`` adds to a ``ctype`` value: a pointer
    moves by its pointee's size."""
    size = ctype.pointee.size if isinstance(ctype, PointerType) else 1
    return size if op == "++" else -size


def c_div(a: int, b: int) -> int:
    """C's ``/``: the quotient truncated toward zero, in exact integers."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def c_mod(a: int, b: int) -> int:
    """C's ``%``: ``a - (a / b) * b``, so the result has ``a``'s sign."""
    return a - c_div(a, b) * b


_INT_OPS: dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": c_div,
    "%": c_mod,
    "&": lambda a, b: a & b,
    "|": lambda a, b: a | b,
    "^": lambda a, b: a ^ b,
    "<<": lambda a, b: a << (b & 63),
    ">>": lambda a, b: a >> (b & 63),
    "<": lambda a, b: 1 if a < b else 0,
    ">": lambda a, b: 1 if a > b else 0,
    "<=": lambda a, b: 1 if a <= b else 0,
    ">=": lambda a, b: 1 if a >= b else 0,
    "==": lambda a, b: 1 if a == b else 0,
    "!=": lambda a, b: 1 if a != b else 0,
    "&&": lambda a, b: 1 if (a and b) else 0,
    "||": lambda a, b: 1 if (a or b) else 0,
}


def int_binop(op: str, a: int, b: int) -> int:
    """C semantics of the binary operator ``op`` on two ``int`` values.

    The result wraps to ``int`` (64-bit two's complement), shift counts
    are masked with ``& 63``, division and modulo truncate toward zero,
    and comparisons and ``&&``/``||`` yield 0 or 1.  A zero divisor
    raises ZeroDivisionError and an unknown operator KeyError.
    """
    return _truncate(_INT_OPS[op](a, b), INT)


class Interpreter:
    """Executes a parsed :class:`~repro.cminus.ast_nodes.Program`."""

    def __init__(self, program: ast.Program, mem: MemoryAccess, *,
                 externs: dict[str, Callable] | None = None,
                 on_op_batch: Callable[[int], None] | None = None,
                 step_hook: Callable[[], int | None] | None = None,
                 check_runtime: CheckRuntime | None = None,
                 var_hooks: VarHooks | None = None,
                 limits: ExecLimits | None = None,
                 filename: str = "<cminus>"):
        self.program = program
        self.mem = mem
        self.externs = externs or {}
        self.on_op_batch = on_op_batch
        self.step_hook = step_hook
        self.check_runtime = check_runtime
        self.var_hooks = var_hooks
        self.limits = limits or ExecLimits()
        self.filename = filename
        self.ops_executed = 0
        resolve(program)
        #: a global's address, by its index in ``program.globals``
        self._globals = [0] * len(program.globals)
        #: the running call's variables: a register's value, or the
        #: address of a variable in memory
        self._frame: dict[Binding, int] = {}
        self._frame_allocs: list[list[tuple[int, int]]] = []
        self._strings: dict[int, int] = {}  # id(StrLit node) -> address
        self._init_globals()

    # ------------------------------------------------------------- plumbing

    def _tick(self) -> None:
        self.ops_executed += 1
        if self.on_op_batch is not None:
            self.on_op_batch(1)
        if (self.limits.max_ops is not None
                and self.ops_executed > self.limits.max_ops):
            raise CMinusError(
                f"execution exceeded {self.limits.max_ops} operations")

    def _site(self, node: ast.Node) -> str:
        return f"{self.filename}:{node.line}"

    def _init_globals(self) -> None:
        for decl in self.program.globals:
            addr = self.mem.malloc(max(decl.ctype.size, 1))
            self._globals[decl.binding.index] = addr
            if self.var_hooks is not None:
                self.var_hooks.on_decl(decl.binding, addr, self._site(decl))
            if decl.init is not None:
                value, _ = self.eval(decl.init)
                self._store(addr, value, decl.ctype)
            else:
                self.mem.write(addr, b"\0" * max(decl.ctype.size, 1))

    @staticmethod
    def _binding(e: ast.Ident) -> Binding:
        if e.binding is None:
            raise CMinusError(f"undefined variable '{e.name}'", e.line)
        return e.binding

    # ----------------------------------------------------------- load/store

    def _load(self, addr: int, ctype: CType) -> int:
        data = self.mem.read(addr, ctype.size)
        signed = isinstance(ctype, IntType) and ctype.signed
        return int.from_bytes(data, "little", signed=signed)

    def _store(self, addr: int, value: int, ctype: CType) -> None:
        bits = ctype.size * 8
        raw = value & ((1 << bits) - 1)
        self.mem.write(addr, raw.to_bytes(ctype.size, "little"))

    # ----------------------------------------------------------------- call

    def call(self, name: str, *args: int) -> int:
        """Call a program function (or extern) with integer arguments."""
        func = self.program.funcs.get(name)
        if func is None:
            ext = self.externs.get(name)
            if ext is None:
                raise CMinusError(f"undefined function '{name}'", 0)
            result = ext(*args)
            return int(result) if result is not None else 0
        if len(args) != len(func.params):
            raise CMinusError(
                f"{name}() takes {len(func.params)} args, got {len(args)}",
                func.line)
        resolve(self.program)   # re-binds after a generation bump
        frame: dict[Binding, int] = {}
        allocs: list[tuple[int, int]] = []
        for param, arg in zip(func.params, args):
            b = param.binding
            if b.register:
                frame[b] = _truncate(arg, b.ctype)
                continue
            size = max(param.ctype.size, 1)
            addr = self.mem.alloc_stack(size)
            allocs.append((addr, size))
            self._store(addr, arg, param.ctype)
            frame[b] = addr
            if self.var_hooks is not None:
                self.var_hooks.on_decl(b, addr, self._site(param))
        caller, self._frame = self._frame, frame
        self._frame_allocs.append(allocs)
        try:
            self.exec_stmt(func.body)
            result = 0
        except _ReturnSignal as ret:
            result = ret.value
            if isinstance(func.ret_type, (IntType, PointerType)):
                result = _truncate(result, func.ret_type)
        finally:
            self._frame = caller
            frame = self._frame_allocs.pop()
            if self.var_hooks is not None:
                self.var_hooks.on_scope_exit([a for a, _ in frame])
            for addr, size in reversed(frame):
                self.mem.free_stack(addr, size)
        return result

    # ------------------------------------------------------------ statements

    def exec_stmt(self, stmt: ast.Stmt) -> None:
        self._tick()
        if self.step_hook is not None:
            self.step_hook()
        method = getattr(self, f"_exec_{type(stmt).__name__}", None)
        if method is None:
            raise CMinusError(f"cannot execute {type(stmt).__name__}", stmt.line)
        method(stmt)

    def _exec_Block(self, block: ast.Block) -> None:
        allocs: list[tuple[int, int]] = []
        self._frame_allocs.append(allocs)
        try:
            for stmt in block.stmts:
                self.exec_stmt(stmt)
        finally:
            self._frame_allocs.pop()
            if self.var_hooks is not None and allocs:
                self.var_hooks.on_scope_exit([a for a, _ in allocs])
            for addr, size in reversed(allocs):
                self.mem.free_stack(addr, size)

    def _exec_VarDecl(self, decl: ast.VarDecl) -> None:
        b = decl.binding
        if b.register:
            self._frame[b] = 0      # what ``int x = x;`` reads
            if decl.init is not None:
                value, _ = self.eval(decl.init)
                self._frame[b] = _truncate(value, b.ctype)
            return
        size = max(decl.ctype.size, 1)
        addr = self.mem.alloc_stack(size)
        self._frame_allocs[-1].append((addr, size))
        self._frame[b] = addr
        if self.var_hooks is not None:
            self.var_hooks.on_decl(b, addr, self._site(decl))
        if decl.init is not None:
            if isinstance(decl.ctype, (ArrayType, StructType)):
                raise CMinusError(
                    "array/struct initializers are not supported", decl.line)
            value, _ = self.eval(decl.init)
            self._store(addr, value, decl.ctype)
        else:
            self.mem.write(addr, b"\0" * size)

    def _exec_ExprStmt(self, stmt: ast.ExprStmt) -> None:
        self.eval(stmt.expr)

    def _exec_If(self, stmt: ast.If) -> None:
        cond, _ = self.eval(stmt.cond)
        if cond:
            self.exec_stmt(stmt.then)
        elif stmt.orelse is not None:
            self.exec_stmt(stmt.orelse)

    def _exec_While(self, stmt: ast.While) -> None:
        while True:
            cond, _ = self.eval(stmt.cond)
            if not cond:
                break
            try:
                self.exec_stmt(stmt.body)
            except _BreakSignal:
                break
            except _ContinueSignal:
                continue

    def _exec_For(self, stmt: ast.For) -> None:
        allocs: list[tuple[int, int]] = []
        self._frame_allocs.append(allocs)
        try:
            if stmt.init is not None:
                self.exec_stmt(stmt.init)
            while True:
                if stmt.cond is not None:
                    cond, _ = self.eval(stmt.cond)
                    if not cond:
                        break
                try:
                    self.exec_stmt(stmt.body)
                except _BreakSignal:
                    break
                except _ContinueSignal:
                    pass
                if stmt.step is not None:
                    self.eval(stmt.step)
        finally:
            self._frame_allocs.pop()
            if self.var_hooks is not None and allocs:
                self.var_hooks.on_scope_exit([a for a, _ in allocs])
            for addr, size in reversed(allocs):
                self.mem.free_stack(addr, size)

    def _exec_Return(self, stmt: ast.Return) -> None:
        value = 0
        if stmt.value is not None:
            value, _ = self.eval(stmt.value)
        raise _ReturnSignal(value)

    def _exec_Break(self, stmt: ast.Break) -> None:
        raise _BreakSignal()

    def _exec_Continue(self, stmt: ast.Continue) -> None:
        raise _ContinueSignal()

    # ----------------------------------------------------------- expressions

    def eval(self, expr: ast.Expr) -> tuple[int, CType]:
        """Evaluate to (value, type)."""
        self._tick()
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise CMinusError(f"cannot evaluate {type(expr).__name__}", expr.line)
        return method(expr)

    def lvalue(self, expr: ast.Expr) -> tuple[int, CType]:
        """Evaluate to (address, type of the object at that address)."""
        if isinstance(expr, ast.Ident):
            b = self._binding(expr)
            if b.register:
                # no address: only ``.`` asks, and its type check fails
                return 0, b.ctype
            if b.kind == "global":
                return self._globals[b.index], b.ctype
            return self._frame[b], b.ctype
        if isinstance(expr, ast.Deref):
            ptr, ptype = self.eval(expr.ptr)
            if not isinstance(ptype, PointerType):
                raise CMinusError("dereference of non-pointer", expr.line)
            return ptr, ptype.pointee
        if isinstance(expr, ast.Index):
            base, btype = self.eval(expr.base)
            idx, _ = self.eval(expr.index)
            if isinstance(btype, PointerType):
                elem = btype.pointee
            else:
                raise CMinusError("indexing a non-pointer", expr.line)
            return base + idx * elem.size, elem
        if isinstance(expr, ast.Member):
            return self._member_lvalue(expr)
        if isinstance(expr, ast.Check):
            # a Check wrapping an lvalue: run the check, return the lvalue
            if isinstance(expr.inner, ast.Index):
                return self._checked_index_lvalue(expr)
            addr, ctype = self.lvalue(expr.inner)
            self._run_check(expr, addr)
            return addr, ctype
        raise CMinusError(f"{type(expr).__name__} is not an lvalue", expr.line)

    def _checked_index_lvalue(self, node: ast.Check) -> tuple[int, CType]:
        """Index under a KGCC check: evaluate base and index exactly once,
        then validate with intended-referent semantics — ``a[i]`` must stay
        inside the object ``a`` points into, not merely hit *some* object."""
        inner = node.inner
        base, btype = self.eval(inner.base)
        idx, _ = self.eval(inner.index)
        if not isinstance(btype, PointerType):
            raise CMinusError("indexing a non-pointer", inner.line)
        elem = btype.pointee
        addr = base + idx * elem.size
        if node.enabled and self.check_runtime is not None:
            self.check_runtime.check_index(base, addr, node.access_size,
                                           node.site)
        return addr, elem

    # --- leaves

    def _eval_IntLit(self, e: ast.IntLit) -> tuple[int, CType]:
        return e.value, INT

    def _eval_StrLit(self, e: ast.StrLit) -> tuple[int, CType]:
        addr = self._strings.get(id(e))
        if addr is None:
            raw = e.value.encode() + b"\0"
            addr = self.mem.malloc(len(raw))
            self.mem.write(addr, raw)
            self._strings[id(e)] = addr
        return addr, PointerType(CHAR)

    def _eval_Ident(self, e: ast.Ident) -> tuple[int, CType]:
        b = self._binding(e)
        if b.register:
            return self._frame[b], b.ctype
        addr, ctype = self.lvalue(e)
        if isinstance(ctype, ArrayType):
            return addr, ctype.decay()
        return self._load(addr, ctype), ctype

    # --- operators

    def _eval_BinOp(self, e: ast.BinOp) -> tuple[int, CType]:
        if e.op == "&&":
            left, _ = self.eval(e.left)
            if not left:
                return 0, INT
            right, _ = self.eval(e.right)
            return (1 if right else 0), INT
        if e.op == "||":
            left, _ = self.eval(e.left)
            if left:
                return 1, INT
            right, _ = self.eval(e.right)
            return (1 if right else 0), INT
        lv, lt = self.eval(e.left)
        rv, rt = self.eval(e.right)
        return self._binop(e.op, lv, lt, rv, rt, e.line)

    def _binop(self, op: str, lv: int, lt: CType, rv: int, rt: CType,
               line: int) -> tuple[int, CType]:
        lptr = isinstance(lt, PointerType)
        rptr = isinstance(rt, PointerType)
        if op == "+" and (lptr or rptr):
            if lptr and rptr:
                raise CMinusError("cannot add two pointers", line)
            if lptr:
                return (lv + rv * lt.pointee.size) & _WORD_MASK, lt
            return (rv + lv * rt.pointee.size) & _WORD_MASK, rt
        if op == "-" and lptr:
            if rptr:
                if lt.pointee.size != rt.pointee.size:
                    raise CMinusError("pointer subtraction type mismatch", line)
                return (lv - rv) // max(lt.pointee.size, 1), INT
            return (lv - rv * lt.pointee.size) & _WORD_MASK, lt
        if (lptr or rptr) and op not in ("-", "==", "!=", "<", ">", "<=", ">="):
            raise CMinusError(f"invalid pointer operand to '{op}'", line)
        try:
            return int_binop(op, lv, rv), INT
        except ZeroDivisionError:
            raise CMinusError("division by zero" if op == "/"
                              else "modulo by zero", line) from None
        except KeyError:
            raise CMinusError(f"unknown operator '{op}'", line) from None

    def _step(self, target: ast.Expr, op: str) -> tuple[int, int, CType]:
        """``++``/``--`` on ``target``: (old value, new value, type)."""
        b = register_of(target)
        if b is not None:
            old = self._frame[b]
            new = _truncate(old + _step_by(b.ctype, op), b.ctype)
            self._frame[b] = new
            return old, new, b.ctype
        addr, ctype = self.lvalue(target)
        old = self._load(addr, ctype)
        new = old + _step_by(ctype, op)
        self._store(addr, new, ctype)
        return old, _truncate(new, ctype), ctype

    def _eval_UnOp(self, e: ast.UnOp) -> tuple[int, CType]:
        if e.op in ("++", "--"):
            _, new, ctype = self._step(e.operand, e.op)
            return new, ctype
        value, ctype = self.eval(e.operand)
        if e.op == "-":
            return _truncate(-value, INT), INT
        if e.op == "!":
            return (0 if value else 1), INT
        if e.op == "~":
            return _truncate(~value, INT), INT
        raise CMinusError(f"unknown unary operator '{e.op}'", e.line)

    def _eval_Deref(self, e: ast.Deref) -> tuple[int, CType]:
        addr, ctype = self.lvalue(e)
        if isinstance(ctype, ArrayType):
            return addr, ctype.decay()
        return self._load(addr, ctype), ctype

    def _member_lvalue(self, expr: ast.Member) -> tuple[int, CType]:
        """Address and type of ``base.field`` / ``base->field``."""
        if expr.arrow:
            ptr, ptype = self.eval(expr.base)
            if not (isinstance(ptype, PointerType)
                    and isinstance(ptype.pointee, StructType)):
                raise CMinusError("-> on a non-struct-pointer", expr.line)
            struct = ptype.pointee
            base_addr = ptr
        else:
            base_addr, btype = self.lvalue(expr.base)
            if not isinstance(btype, StructType):
                raise CMinusError(". on a non-struct value", expr.line)
            struct = btype
        try:
            offset, ftype = struct.field(expr.field_name)
        except KeyError as exc:
            raise CMinusError(str(exc), expr.line) from exc
        return base_addr + offset, ftype

    def _eval_Member(self, e: ast.Member) -> tuple[int, CType]:
        addr, ctype = self._member_lvalue(e)
        if isinstance(ctype, ArrayType):
            return addr, ctype.decay()
        if isinstance(ctype, StructType):
            return addr, PointerType(ctype)  # nested structs decay to addr
        return self._load(addr, ctype), ctype

    def _eval_AddrOf(self, e: ast.AddrOf) -> tuple[int, CType]:
        addr, ctype = self.lvalue(e.target)
        if isinstance(ctype, ArrayType):
            return addr, PointerType(ctype.elem)
        return addr, PointerType(ctype)

    def _eval_Index(self, e: ast.Index) -> tuple[int, CType]:
        addr, ctype = self.lvalue(e)
        if isinstance(ctype, ArrayType):
            return addr, ctype.decay()
        return self._load(addr, ctype), ctype

    def _eval_Assign(self, e: ast.Assign) -> tuple[int, CType]:
        b = register_of(e.target)
        if b is not None:
            value, vtype = self.eval(e.value)
            if e.op:
                value, _ = self._binop(e.op, self._frame[b], b.ctype, value,
                                       vtype, e.line)
            value = self._frame[b] = _truncate(value, b.ctype)
            return value, b.ctype
        addr, ctype = self.lvalue(e.target)
        if isinstance(ctype, ArrayType):
            raise CMinusError("cannot assign to an array", e.line)
        value, vtype = self.eval(e.value)
        if e.op:
            old = self._load(addr, ctype)
            value, _ = self._binop(e.op, old, ctype, value, vtype, e.line)
        self._store(addr, value, ctype)
        return _truncate(value, ctype), ctype

    def _eval_PostIncDec(self, e: ast.PostIncDec) -> tuple[int, CType]:
        old, _, ctype = self._step(e.target, e.op)
        return old, ctype

    def _eval_Call(self, e: ast.Call) -> tuple[int, CType]:
        args = [self.eval(a)[0] for a in e.args]
        return self.call(e.func, *args), e.value_type

    def _eval_SizeOf(self, e: ast.SizeOf) -> tuple[int, CType]:
        if e.ctype is not None:
            return e.ctype.size, INT
        return static_type(e.expr).size, INT

    # ------------------------------------------------------------ KGCC hooks

    def _run_check(self, node: ast.Check, addr: int) -> None:
        if node.enabled and self.check_runtime is not None:
            self.check_runtime.check_deref(addr, node.access_size, node.site)

    def _eval_Check(self, e: ast.Check) -> tuple[int, CType]:
        if e.kind == "arith":
            # The BinOp, evaluated once; its pointer operand is the base
            # the runtime attributes the result to (§3.4).
            inner = e.inner
            self._tick()
            lv, lt = self.eval(inner.left)
            rv, rt = self.eval(inner.right)
            value, ctype = self._binop(inner.op, lv, lt, rv, rt, inner.line)
            if e.enabled and self.check_runtime is not None:
                base = lv if isinstance(lt, PointerType) else rv
                value = self.check_runtime.check_arith(base, value, e.site)
            return value, ctype
        # deref-kind Check wrapping a load
        if isinstance(e.inner, ast.Index):
            addr, ctype = self._checked_index_lvalue(e)
        else:
            addr, ctype = self.lvalue(e.inner)
            self._run_check(e, addr)
        if isinstance(ctype, ArrayType):
            return addr, ctype.decay()
        return self._load(addr, ctype), ctype
