"""Tree-walking interpreter for the C subset.

Variables live at real simulated addresses supplied by a
:class:`~repro.cminus.memaccess.MemoryAccess`; every load and store moves
actual bytes, so the safety tools observe genuine memory behaviour:
Kefence's guard pages fault on overflowing pointers, segment limits stop
escaping ones, and KGCC's :class:`~repro.cminus.ast_nodes.Check` nodes are
executed here by calling into the attached check runtime.

Hooks (all optional):

* ``on_op()`` — called once per AST operation; harnesses charge
  :attr:`CostModel.cminus_op` cycles here.
* ``step_hook()`` — called once per statement; the Cosy kernel extension
  hits its preemption point here (the watchdog of §2.3).
* ``var_hooks`` — ``on_decl(name, addr, ctype, site)`` /
  ``on_scope_exit(addrs)``; KGCC registers stack objects in its address
  map through these (the compiler-inserted registrations of §3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

from repro.cminus import ast_nodes as ast
from repro.cminus.ctypes import (ArrayType, CHAR, CType, INT, IntType,
                                 PointerType, StructType)
from repro.cminus.memaccess import MemoryAccess
from repro.errors import CMinusError

_WORD_MASK = (1 << 64) - 1


class CheckRuntime(Protocol):
    """What KGCC plugs in to execute Check nodes."""

    def check_deref(self, addr: int, size: int, site: str) -> None: ...
    def check_index(self, base: int, addr: int, size: int, site: str) -> None: ...
    def check_arith(self, base: int, result: int, site: str) -> int: ...


class VarHooks(Protocol):
    def on_decl(self, name: str, addr: int, ctype: CType, site: str) -> None: ...
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


@dataclass
class _Binding:
    addr: int
    ctype: CType


def _truncate(value: int, ctype: CType) -> int:
    """Store-width truncation with sign handling."""
    if isinstance(ctype, PointerType):
        return value & _WORD_MASK
    bits = ctype.size * 8
    value &= (1 << bits) - 1
    if isinstance(ctype, IntType) and ctype.signed and value >= (1 << (bits - 1)):
        value -= 1 << bits
    return value


_INT_OPS: dict[str, Callable[[int, int], int]] = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: int(a / b),           # C truncates toward zero
    "%": lambda a, b: a - int(a / b) * b,
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
                 on_op: Callable[[], None] | None = None,
                 on_op_batch: Callable[[int], None] | None = None,
                 step_hook: Callable[[], None] | None = None,
                 check_runtime: CheckRuntime | None = None,
                 var_hooks: VarHooks | None = None,
                 limits: ExecLimits | None = None,
                 filename: str = "<cminus>"):
        self.program = program
        self.mem = mem
        self.externs = externs or {}
        if on_op is None and on_op_batch is not None:
            # API symmetry with CompiledEngine: accept a batch callback;
            # the tree-walker simply charges it one op at a time
            batch = on_op_batch

            def on_op() -> None:
                batch(1)
        self.on_op = on_op
        self.step_hook = step_hook
        self.check_runtime = check_runtime
        self.var_hooks = var_hooks
        self.limits = limits or ExecLimits()
        self.filename = filename
        self.ops_executed = 0
        self._scopes: list[dict[str, _Binding]] = [{}]
        self._frame_allocs: list[list[tuple[int, int]]] = []
        self._strings: dict[int, int] = {}  # id(StrLit node) -> address
        self._init_globals()

    # ------------------------------------------------------------- plumbing

    def _tick(self) -> None:
        self.ops_executed += 1
        if self.on_op is not None:
            self.on_op()
        if (self.limits.max_ops is not None
                and self.ops_executed > self.limits.max_ops):
            raise CMinusError(
                f"execution exceeded {self.limits.max_ops} operations")

    def _site(self, node: ast.Node) -> str:
        return f"{self.filename}:{node.line}"

    def _init_globals(self) -> None:
        for decl in self.program.globals:
            addr = self.mem.malloc(max(decl.ctype.size, 1))
            self._scopes[0][decl.name] = _Binding(addr, decl.ctype)
            if self.var_hooks is not None:
                self.var_hooks.on_decl(decl.name, addr, decl.ctype,
                                       self._site(decl))
            if decl.init is not None:
                value, _ = self.eval(decl.init)
                self._store(addr, value, decl.ctype)
            else:
                self.mem.write(addr, b"\0" * max(decl.ctype.size, 1))

    def _lookup(self, name: str, line: int) -> _Binding:
        for scope in reversed(self._scopes):
            binding = scope.get(name)
            if binding is not None:
                return binding
        raise CMinusError(f"undefined variable '{name}'", line)

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
        scope: dict[str, _Binding] = {}
        allocs: list[tuple[int, int]] = []
        for param, arg in zip(func.params, args):
            size = max(param.ctype.size, 1)
            addr = self.mem.alloc_stack(size)
            allocs.append((addr, size))
            self._store(addr, arg, param.ctype)
            scope[param.name] = _Binding(addr, param.ctype)
            if self.var_hooks is not None:
                self.var_hooks.on_decl(param.name, addr, param.ctype,
                                       self._site(param))
        self._scopes.append(scope)
        self._frame_allocs.append(allocs)
        try:
            self.exec_stmt(func.body, new_scope=False)
            result = 0
        except _ReturnSignal as ret:
            result = ret.value
        finally:
            self._scopes.pop()
            frame = self._frame_allocs.pop()
            if self.var_hooks is not None:
                self.var_hooks.on_scope_exit([a for a, _ in frame])
            for addr, size in reversed(frame):
                self.mem.free_stack(addr, size)
        return result

    # ------------------------------------------------------------ statements

    def exec_stmt(self, stmt: ast.Stmt, *, new_scope: bool = True) -> None:
        self._tick()
        if self.step_hook is not None:
            self.step_hook()
        method = getattr(self, f"_exec_{type(stmt).__name__}", None)
        if method is None:
            raise CMinusError(f"cannot execute {type(stmt).__name__}", stmt.line)
        if isinstance(stmt, ast.Block):
            method(stmt, new_scope)
        else:
            method(stmt)

    def _exec_Block(self, block: ast.Block, new_scope: bool = True) -> None:
        if new_scope:
            self._scopes.append({})
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
            if new_scope:
                self._scopes.pop()

    def _exec_VarDecl(self, decl: ast.VarDecl) -> None:
        size = max(decl.ctype.size, 1)
        addr = self.mem.alloc_stack(size)
        self._frame_allocs[-1].append((addr, size))
        self._scopes[-1][decl.name] = _Binding(addr, decl.ctype)
        if self.var_hooks is not None:
            self.var_hooks.on_decl(decl.name, addr, decl.ctype, self._site(decl))
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
        self._scopes.append({})
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
            self._scopes.pop()

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
            binding = self._lookup(expr.name, expr.line)
            return binding.addr, binding.ctype
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
        binding = self._lookup(e.name, e.line)
        if isinstance(binding.ctype, ArrayType):
            return binding.addr, binding.ctype.decay()
        return self._load(binding.addr, binding.ctype), binding.ctype

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

    def _eval_UnOp(self, e: ast.UnOp) -> tuple[int, CType]:
        if e.op in ("++", "--"):
            addr, ctype = self.lvalue(e.operand)
            old = self._load(addr, ctype)
            scale = ctype.pointee.size if isinstance(ctype, PointerType) else 1
            new = old + scale if e.op == "++" else old - scale
            self._store(addr, new, ctype)
            return _truncate(new, ctype), ctype
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
        addr, ctype = self.lvalue(e.target)
        old = self._load(addr, ctype)
        scale = ctype.pointee.size if isinstance(ctype, PointerType) else 1
        new = old + scale if e.op == "++" else old - scale
        self._store(addr, new, ctype)
        return old, ctype

    def _eval_Call(self, e: ast.Call) -> tuple[int, CType]:
        args = [self.eval(a)[0] for a in e.args]
        return self.call(e.func, *args), INT

    def _eval_SizeOf(self, e: ast.SizeOf) -> tuple[int, CType]:
        if e.ctype is not None:
            return e.ctype.size, INT
        return self._static_type(e.expr).size, INT

    def _static_type(self, expr: ast.Expr) -> CType:
        """Best-effort static type of an expression (no evaluation)."""
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.StrLit):
            return PointerType(CHAR)
        if isinstance(expr, ast.Ident):
            return self._lookup(expr.name, expr.line).ctype
        if isinstance(expr, ast.Deref):
            inner = self._static_type(expr.ptr)
            if isinstance(inner, PointerType):
                return inner.pointee
            if isinstance(inner, ArrayType):
                return inner.elem
            raise CMinusError("sizeof: dereference of non-pointer", expr.line)
        if isinstance(expr, ast.Index):
            inner = self._static_type(expr.base)
            if isinstance(inner, (PointerType,)):
                return inner.pointee
            if isinstance(inner, ArrayType):
                return inner.elem
            raise CMinusError("sizeof: indexing a non-pointer", expr.line)
        if isinstance(expr, ast.AddrOf):
            return PointerType(self._static_type(expr.target))
        if isinstance(expr, ast.Member):
            base = self._static_type(expr.base)
            struct = base.pointee if isinstance(base, PointerType) else base
            if isinstance(struct, StructType):
                try:
                    return struct.field(expr.field_name)[1]
                except KeyError as exc:
                    raise CMinusError(str(exc), expr.line) from exc
            raise CMinusError("sizeof: member of a non-struct", expr.line)
        return INT

    # ------------------------------------------------------------ KGCC hooks

    def _run_check(self, node: ast.Check, addr: int) -> None:
        if node.enabled and self.check_runtime is not None:
            self.check_runtime.check_deref(addr, node.access_size, node.site)

    def _eval_Check(self, e: ast.Check) -> tuple[int, CType]:
        if e.kind == "arith":
            # Evaluate the arithmetic, then let the runtime validate/track it.
            value, ctype = self.eval(e.inner)
            if e.enabled and self.check_runtime is not None:
                base = self._arith_base(e.inner)
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

    def _arith_base(self, expr: ast.Expr) -> int:
        """The pointer operand's value, for peer attribution (§3.4)."""
        if isinstance(expr, ast.BinOp):
            for side in (expr.left, expr.right):
                try:
                    value, ctype = self.eval(side)
                except CMinusError:
                    continue
                if isinstance(ctype, PointerType):
                    return value
        if isinstance(expr, (ast.PostIncDec, ast.UnOp)):
            target = getattr(expr, "target", None) or getattr(expr, "operand")
            value, ctype = self.eval(target)
            if isinstance(ctype, PointerType):
                return value
        return 0
