"""Closure compiler for the C subset: lower an AST once, execute many.

The tree-walking :class:`~repro.cminus.interp.Interpreter` re-dispatches on
node types and fires a Python ``on_op`` callback for every simulated
operation.  That is faithful but slow, and every hot path in the
reproduction (CoSy compounds, KGCC-instrumented modules) bottoms out in
it.  This module performs the move real kernel-embedded runtimes make —
eBPF JIT-compiles at load time — scaled to this simulator:

* :func:`compile_program` lowers a parsed :class:`ast.Program` into flat
  Python closures.  Variable references resolve to frame-slot indices at
  compile time, type sizes and truncation masks are precomputed,
  per-node ``isinstance``/``getattr`` dispatch disappears, and KGCC
  :class:`ast.Check` nodes are baked into the closure stream.
* :class:`CompiledEngine` executes compiled code behind the same ``call``
  API as the interpreter, with **batched cost accounting**: operations
  accumulate in a pending counter and are charged ``costs.cminus_op × N``
  at *flush points* — before every memory access that leaves the
  backend's scalar fast path, allocation, runtime check, variable hook,
  extern call, ``step_hook`` and raised error — so any mid-run observer
  (preemption watchdog, fault injection, Kefence traps, segment-limit
  faults, TLB-miss and fault spans) reads a clock identical to the
  tree-walker's.  A scalar load or store that hits the TLB
  (``MemoryAccess.try_read_int``/``try_write_int``) neither reads nor
  charges the clock, so it needs no flush; only the ``ExecLimits`` test
  runs before it.  The tree-walker stays as the differential oracle.
* :class:`CodeCache` caches compiled programs keyed by (program
  fingerprint, instrumentation generation).  KGCC ``instrument`` /
  ``optimize`` / ``hotpatch`` / ``deinstrument`` and CoSy re-registration
  bump the generation via :func:`bump_generation`, so stale compiled code
  can never run: the engine re-checks the generation on every ``call``.

Semantics parity contract (verified by ``tests/property/test_prop_compile``):
return values, memory state, fault sites and messages, check verdicts,
``ops_executed`` and charged cycle totals all match the tree-walker.  The
single intentional divergence: the tree-walker resolves names against the
whole dynamic scope stack (a callee can see its caller's locals); compiled
code is lexically scoped.  Well-scoped programs — everything this repo
executes — behave identically.
"""

from __future__ import annotations

import hashlib
import weakref
from typing import Any, Callable

from repro.cminus import ast_nodes as ast
from repro.cminus.ctypes import (ArrayType, CHAR, CType, INT, IntType,
                                 PointerType, StructType)
from repro.cminus.interp import (CheckRuntime, ExecLimits, VarHooks,
                                 _WORD_MASK)
from repro.cminus.memaccess import MemoryAccess
from repro.errors import CMinusError

#: an expression closure: (engine, frame) -> value (or address, for lvalues)
EvalFn = Callable[["CompiledEngine", Any], int]
#: a statement closure: (engine, frame) -> None
StmtFn = Callable[["CompiledEngine", Any], None]

_GEN_ATTR = "_cminus_generation"
_FP_ATTR = "_cminus_fingerprint"


# --------------------------------------------------------------- generations

def generation_of(program: ast.Program) -> int:
    """The program's instrumentation generation (0 for a fresh parse)."""
    return getattr(program, _GEN_ATTR, 0)


def bump_generation(program: ast.Program) -> int:
    """Record that ``program``'s AST was mutated (instrumentation added or
    removed, a function hot-patched, checks toggled).  Any compiled code
    for earlier generations becomes stale and is invalidated on the next
    cache lookup."""
    gen = generation_of(program) + 1
    setattr(program, _GEN_ATTR, gen)
    return gen


def program_fingerprint(program: ast.Program) -> str:
    """Structural hash of the AST (cached per generation)."""
    gen = generation_of(program)
    cached = getattr(program, _FP_ATTR, None)
    if cached is not None and cached[0] == gen:
        return cached[1]
    h = hashlib.sha256()
    for node in ast.walk(program):
        h.update(type(node).__name__.encode())
        for key, value in vars(node).items():
            if isinstance(value, (bool, int, str)):
                h.update(f"{key}={value};".encode())
            elif isinstance(value, CType):
                h.update(f"{key}={value!r};".encode())
    fp = h.hexdigest()[:16]
    setattr(program, _FP_ATTR, (gen, fp))
    return fp


# ----------------------------------------------------------- control signals

class _Return(Exception):
    def __init__(self, value: int):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


# ------------------------------------------------------------------ helpers

def _make_truncate(ctype: CType) -> Callable[[int], int]:
    """Specialized equivalent of ``interp._truncate`` for a fixed type."""
    if isinstance(ctype, PointerType):
        return lambda v: v & _WORD_MASK
    bits = ctype.size * 8
    mask = (1 << bits) - 1
    if isinstance(ctype, IntType) and ctype.signed and bits > 0:
        half = 1 << (bits - 1)
        full = 1 << bits

        def trunc_signed(v: int) -> int:
            v &= mask
            return v - full if v >= half else v

        return trunc_signed
    return lambda v: v & mask


def _is_signed(ctype: CType) -> bool:
    return isinstance(ctype, IntType) and ctype.signed


class _GlobalSpec:
    """Everything the engine needs to materialize one global variable."""

    __slots__ = ("name", "ctype", "index", "line", "alloc_size",
                 "store_size", "store_mask", "init")

    def __init__(self, name: str, ctype: CType, index: int, line: int,
                 init: EvalFn | None):
        self.name = name
        self.ctype = ctype
        self.index = index
        self.line = line
        self.alloc_size = max(ctype.size, 1)
        self.store_size = ctype.size
        self.store_mask = (1 << (ctype.size * 8)) - 1
        self.init = init


class _ParamSpec:
    __slots__ = ("name", "ctype", "slot", "line", "alloc_size",
                 "store_size", "store_mask")

    def __init__(self, name: str, ctype: CType, slot: int, line: int):
        self.name = name
        self.ctype = ctype
        self.slot = slot
        self.line = line
        self.alloc_size = max(ctype.size, 1)
        self.store_size = ctype.size
        self.store_mask = (1 << (ctype.size * 8)) - 1


class CompiledFunction:
    """One lowered function: parameter specs plus the body closure."""

    __slots__ = ("name", "line", "params", "nslots", "body")

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.params: list[_ParamSpec] = []
        self.nslots = 0
        self.body: StmtFn | None = None


class CompiledProgram:
    """The closure-compiled form of one :class:`ast.Program` generation."""

    __slots__ = ("program", "generation", "fingerprint", "funcs",
                 "globals_spec")

    def __init__(self, program: ast.Program):
        self.program = program
        self.generation = generation_of(program)
        self.fingerprint = program_fingerprint(program)
        self.funcs: dict[str, CompiledFunction] = {}
        self.globals_spec: list[_GlobalSpec] = []


def _invoke(rt: "CompiledEngine", cf: CompiledFunction,
            args: list[int]) -> int:
    """Call a compiled function: mirror of ``Interpreter.call``."""
    if len(args) != len(cf.params):
        rt.flush()
        raise CMinusError(
            f"{cf.name}() takes {len(cf.params)} args, got {len(args)}",
            cf.line)
    rt.flush()
    mem = rt.mem
    vh = rt.var_hooks
    frame: list[int] = [0] * cf.nslots
    allocs: list[tuple[int, int]] = []
    for spec, arg in zip(cf.params, args):
        addr = mem.alloc_stack(spec.alloc_size)
        allocs.append((addr, spec.alloc_size))
        value = arg & spec.store_mask
        if not rt.store(addr, value, spec.store_size):
            rt.store_slow(addr, value, spec.store_size)
        frame[spec.slot] = addr
        if vh is not None:
            vh.on_decl(spec.name, addr, spec.ctype,
                       f"{rt.filename}:{spec.line}")
    body = cf.body
    assert body is not None
    try:
        body(rt, frame)
        result = 0
    except _Return as ret:
        result = ret.value
    finally:
        rt.flush()
        if vh is not None:
            vh.on_scope_exit([a for a, _ in allocs])
        for addr, size in reversed(allocs):
            mem.free_stack(addr, size)
    return result


# ---------------------------------------------------------------- the compiler

class _Compiler:
    """Per-function lowering: expressions/statements -> closures.

    Scope resolution happens here, at compile time: every name becomes
    either a frame-slot index (locals/params) or a global index, so
    executed code never walks a scope dictionary.
    """

    def __init__(self, program: ast.Program, compiled: CompiledProgram):
        self.program = program
        self.compiled = compiled
        self.global_index: dict[str, tuple[int, CType]] = {}
        self.scopes: list[dict[str, tuple[int, CType]]] = []
        self.nslots = 0

    # ---------------------------------------------------------------- scopes

    def declare(self, name: str, ctype: CType) -> int:
        slot = self.nslots
        self.nslots += 1
        self.scopes[-1][name] = (slot, ctype)
        return slot

    def lookup(self, name: str) -> tuple[str, int, CType] | None:
        """('local'|'global', slot-or-index, ctype) or None."""
        for scope in reversed(self.scopes):
            entry = scope.get(name)
            if entry is not None:
                return ("local", entry[0], entry[1])
        entry = self.global_index.get(name)
        if entry is not None:
            return ("global", entry[0], entry[1])
        return None

    def _fast_ident_slot(self, expr: ast.Expr
                         ) -> tuple[str, int, CType] | None:
        """The ('local'|'global', idx, ctype) of a scalar Ident lvalue —
        its address is just a slot read, so assignment/increment closures
        can skip the lvalue-closure call entirely."""
        if not isinstance(expr, ast.Ident):
            return None
        found = self.lookup(expr.name)
        if found is None or isinstance(found[2], (ArrayType, StructType)):
            return None
        return found

    # ----------------------------------------------------------- error nodes

    @staticmethod
    def _raise_eval(msg: str, line: int) -> EvalFn:
        """An expression that errors when (and only when) evaluated — this
        preserves the tree-walker's lazy error timing for code that is
        statically wrong but never executed."""

        def run(rt: "CompiledEngine", frame: Any) -> int:
            rt.pending += 1
            rt.flush()
            raise CMinusError(msg, line)

        return run

    @staticmethod
    def _raise_after(ev: EvalFn, msg: str, line: int) -> EvalFn:
        """Evaluate ``ev`` for its side effects (mirroring the tree-walker's
        operand-first evaluation order), then raise."""

        def run(rt: "CompiledEngine", frame: Any) -> int:
            ev(rt, frame)
            rt.flush()
            raise CMinusError(msg, line)

        return run

    @staticmethod
    def _raise_lvalue(msg: str, line: int) -> EvalFn:
        """An lvalue that errors on use (no tick: ``lvalue()`` never ticks)."""

        def run(rt: "CompiledEngine", frame: Any) -> int:
            rt.flush()
            raise CMinusError(msg, line)

        return run

    # ------------------------------------------------------------ expressions

    def compile_eval(self, expr: ast.Expr) -> tuple[EvalFn, CType]:
        """Closure returning the expression's value; type is static.

        Every eval closure begins with ``rt.pending += 1`` — the exact
        analogue of the tree-walker's ``_tick()`` at ``eval()`` entry.
        """
        if isinstance(expr, ast.IntLit):
            value = expr.value

            def run_int(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return value

            return run_int, INT

        if isinstance(expr, ast.StrLit):
            raw = expr.value.encode() + b"\0"
            key = id(expr)
            self._keepalive(expr)

            def run_str(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                addr = rt.strings.get(key)
                if addr is None:
                    rt.flush()
                    addr = rt.mem.malloc(len(raw))
                    rt.mem.write(addr, raw)
                    rt.strings[key] = addr
                return addr

            return run_str, PointerType(CHAR)

        if isinstance(expr, ast.Ident):
            return self._compile_ident(expr)
        if isinstance(expr, ast.BinOp):
            return self._compile_binop(expr)
        if isinstance(expr, ast.UnOp):
            return self._compile_unop(expr)
        if isinstance(expr, ast.Deref):
            lv, ctype = self.compile_lvalue(expr)
            return self._eval_via_lvalue(lv, ctype)
        if isinstance(expr, ast.Member):
            lv, ctype = self._member_lvalue(expr)
            if isinstance(ctype, StructType):
                struct = ctype

                def run_member(rt: "CompiledEngine", frame: Any) -> int:
                    rt.pending += 1
                    return lv(rt, frame)

                return run_member, PointerType(struct)
            return self._eval_via_lvalue(lv, ctype)
        if isinstance(expr, ast.AddrOf):
            lv, ctype = self.compile_lvalue_of(expr.target)

            def run_addr(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return lv(rt, frame)

            if isinstance(ctype, ArrayType):
                return run_addr, PointerType(ctype.elem)
            return run_addr, PointerType(ctype)
        if isinstance(expr, ast.Index):
            lv, ctype = self.compile_lvalue(expr)
            return self._eval_via_lvalue(lv, ctype)
        if isinstance(expr, ast.Assign):
            return self._compile_assign(expr)
        if isinstance(expr, ast.PostIncDec):
            return self._compile_postincdec(expr)
        if isinstance(expr, ast.Call):
            return self._compile_call(expr)
        if isinstance(expr, ast.SizeOf):
            return self._compile_sizeof(expr)
        if isinstance(expr, ast.Check):
            return self._compile_check(expr)
        return (self._raise_eval(f"cannot evaluate {type(expr).__name__}",
                                 expr.line), INT)

    def _keepalive(self, node: ast.Node) -> None:
        # compiled closures key interned strings by id(node); the compiled
        # program keeps the whole AST alive through .program, so ids are
        # stable for the cache entry's lifetime.  Nothing to do — the hook
        # exists to document the invariant.
        pass

    def _load_closure(self, lv: EvalFn, ctype: CType) -> EvalFn:
        size = ctype.size
        signed = _is_signed(ctype)

        def run(rt: "CompiledEngine", frame: Any) -> int:
            rt.pending += 1
            addr = lv(rt, frame)
            if rt.ops_executed + rt.pending > rt._ops_cap:
                rt.flush()      # trips ExecLimits at the exact op
            value = rt.load(addr, size, signed)
            if value is None:
                value = rt.load_slow(addr, size, signed)
            return value

        return run

    def _eval_via_lvalue(self, lv: EvalFn, ctype: CType
                         ) -> tuple[EvalFn, CType]:
        if isinstance(ctype, ArrayType):
            decayed = ctype.decay()

            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return lv(rt, frame)

            return run, decayed
        return self._load_closure(lv, ctype), ctype

    def _compile_ident(self, expr: ast.Ident) -> tuple[EvalFn, CType]:
        found = self.lookup(expr.name)
        if found is None:
            return (self._raise_eval(f"undefined variable '{expr.name}'",
                                     expr.line), INT)
        kind, idx, ctype = found
        if isinstance(ctype, ArrayType):
            decayed = ctype.decay()
            if kind == "local":
                def run_arr(rt: "CompiledEngine", frame: Any) -> int:
                    rt.pending += 1
                    return frame[idx]
            else:
                def run_arr(rt: "CompiledEngine", frame: Any) -> int:
                    rt.pending += 1
                    return rt.globals[idx]
            return run_arr, decayed
        size = ctype.size
        signed = _is_signed(ctype)
        if kind == "local":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                # local scalar loads dominate all interpreter-bound
                # profiles: a TLB hit is this closure plus one call
                rt.pending += 1
                if rt.ops_executed + rt.pending > rt._ops_cap:
                    rt.flush()
                value = rt.load(frame[idx], size, signed)
                if value is None:
                    value = rt.load_slow(frame[idx], size, signed)
                return value
        else:
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                if rt.ops_executed + rt.pending > rt._ops_cap:
                    rt.flush()
                value = rt.load(rt.globals[idx], size, signed)
                if value is None:
                    value = rt.load_slow(rt.globals[idx], size, signed)
                return value
        return run, ctype

    # ------------------------------------------------------------- operators

    def _make_binop_combine(self, op: str, lt: CType, rtt: CType, line: int
                            ) -> tuple[Callable[["CompiledEngine", int, int],
                                                int], CType]:
        """Specialized (rt, lv, rv) -> value mirroring ``Interpreter._binop``
        for statically-known operand types."""
        lptr = isinstance(lt, PointerType)
        rptr = isinstance(rtt, PointerType)
        t_int = _make_truncate(INT)

        def raiser(msg: str) -> Callable[["CompiledEngine", int, int], int]:
            def c(rt: "CompiledEngine", lv: int, rv: int) -> int:
                rt.flush()
                raise CMinusError(msg, line)
            return c

        if op == "+":
            if lptr and rptr:
                return raiser("cannot add two pointers"), INT
            if lptr:
                s = lt.pointee.size  # type: ignore[union-attr]
                return (lambda rt, lv, rv: (lv + rv * s) & _WORD_MASK), lt
            if rptr:
                s = rtt.pointee.size  # type: ignore[union-attr]
                return (lambda rt, lv, rv: (rv + lv * s) & _WORD_MASK), rtt
            return (lambda rt, lv, rv: t_int(lv + rv)), INT
        if op == "-":
            if lptr and rptr:
                if lt.pointee.size != rtt.pointee.size:  # type: ignore[union-attr]
                    return raiser("pointer subtraction type mismatch"), INT
                s = max(lt.pointee.size, 1)  # type: ignore[union-attr]
                return (lambda rt, lv, rv: (lv - rv) // s), INT
            if lptr:
                s = lt.pointee.size  # type: ignore[union-attr]
                return (lambda rt, lv, rv: (lv - rv * s) & _WORD_MASK), lt
            return (lambda rt, lv, rv: t_int(lv - rv)), INT
        if op == "==":
            return (lambda rt, lv, rv: 1 if lv == rv else 0), INT
        if op == "!=":
            return (lambda rt, lv, rv: 1 if lv != rv else 0), INT
        if op == "<":
            return (lambda rt, lv, rv: 1 if lv < rv else 0), INT
        if op == ">":
            return (lambda rt, lv, rv: 1 if lv > rv else 0), INT
        if op == "<=":
            return (lambda rt, lv, rv: 1 if lv <= rv else 0), INT
        if op == ">=":
            return (lambda rt, lv, rv: 1 if lv >= rv else 0), INT
        if lptr or rptr:
            return raiser(f"invalid pointer operand to '{op}'"), INT
        if op == "*":
            return (lambda rt, lv, rv: t_int(lv * rv)), INT
        if op == "/":
            def c_div(rt: "CompiledEngine", lv: int, rv: int) -> int:
                if rv == 0:
                    rt.flush()
                    raise CMinusError("division by zero", line)
                return t_int(int(lv / rv))  # C truncates toward zero
            return c_div, INT
        if op == "%":
            def c_mod(rt: "CompiledEngine", lv: int, rv: int) -> int:
                if rv == 0:
                    rt.flush()
                    raise CMinusError("modulo by zero", line)
                return t_int(lv - int(lv / rv) * rv)
            return c_mod, INT
        if op == "&":
            return (lambda rt, lv, rv: t_int(lv & rv)), INT
        if op == "|":
            return (lambda rt, lv, rv: t_int(lv | rv)), INT
        if op == "^":
            return (lambda rt, lv, rv: t_int(lv ^ rv)), INT
        if op == "<<":
            return (lambda rt, lv, rv: t_int(lv << (rv & 63))), INT
        if op == ">>":
            return (lambda rt, lv, rv: t_int(lv >> (rv & 63))), INT
        return raiser(f"unknown operator '{op}'"), INT

    def _compile_binop(self, expr: ast.BinOp) -> tuple[EvalFn, CType]:
        if expr.op == "&&":
            ev_l, _ = self.compile_eval(expr.left)
            ev_r, _ = self.compile_eval(expr.right)

            def run_and(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                if not ev_l(rt, frame):
                    return 0
                return 1 if ev_r(rt, frame) else 0

            return run_and, INT
        if expr.op == "||":
            ev_l, _ = self.compile_eval(expr.left)
            ev_r, _ = self.compile_eval(expr.right)

            def run_or(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                if ev_l(rt, frame):
                    return 1
                return 1 if ev_r(rt, frame) else 0

            return run_or, INT
        ev_l, lt = self.compile_eval(expr.left)
        ev_r, rtt = self.compile_eval(expr.right)
        if not isinstance(lt, PointerType) and not isinstance(rtt,
                                                              PointerType):
            # fused int-int paths: skip the combine indirection entirely
            if isinstance(expr.right, ast.IntLit):
                fused = self._fused_int_binop_const(expr.op, ev_l,
                                                    expr.right.value)
                if fused is not None:
                    return fused, INT
            fused = self._fused_int_binop(expr.op, ev_l, ev_r, expr.line)
            if fused is not None:
                return fused, INT
        combine, result_type = self._make_binop_combine(expr.op, lt, rtt,
                                                        expr.line)

        def run(rt: "CompiledEngine", frame: Any) -> int:
            rt.pending += 1
            lv = ev_l(rt, frame)
            rv = ev_r(rt, frame)
            return combine(rt, lv, rv)

        return run, result_type

    @staticmethod
    def _fused_int_binop_const(op: str, ev_l: EvalFn, c: int
                               ) -> EvalFn | None:
        """``<expr> op <int-literal>`` with the literal folded into the
        closure.  Tick discipline mirrors the tree-walker exactly: one tick
        for the BinOp before the left operand, one tick for the literal
        after it (the literal's own eval), so pending counts agree at every
        flush point."""
        t = _make_truncate(INT)
        if op == "+":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return t(lv + c)
        elif op == "-":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return t(lv - c)
        elif op == "*":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return t(lv * c)
        elif op == "==":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return 1 if lv == c else 0
        elif op == "!=":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return 1 if lv != c else 0
        elif op == "<":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return 1 if lv < c else 0
        elif op == ">":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return 1 if lv > c else 0
        elif op == "<=":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return 1 if lv <= c else 0
        elif op == ">=":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return 1 if lv >= c else 0
        elif op == "&":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return t(lv & c)
        elif op == "|":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return t(lv | c)
        elif op == "^":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return t(lv ^ c)
        elif op == "<<":
            sh = c & 63

            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return t(lv << sh)
        elif op == ">>":
            sh = c & 63

            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return t(lv >> sh)
        elif op == "/" and c != 0:
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return t(int(lv / c))
        elif op == "%" and c != 0:
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rt.pending += 1
                return t(lv - int(lv / c) * c)
        else:
            return None
        return run

    @staticmethod
    def _fused_int_binop(op: str, ev_l: EvalFn, ev_r: EvalFn,
                         line: int) -> EvalFn | None:
        t = _make_truncate(INT)
        if op == "+":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return t(ev_l(rt, frame) + ev_r(rt, frame))
        elif op == "-":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return t(ev_l(rt, frame) - ev_r(rt, frame))
        elif op == "*":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return t(ev_l(rt, frame) * ev_r(rt, frame))
        elif op == "==":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return 1 if ev_l(rt, frame) == ev_r(rt, frame) else 0
        elif op == "!=":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return 1 if ev_l(rt, frame) != ev_r(rt, frame) else 0
        elif op == "<":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return 1 if ev_l(rt, frame) < ev_r(rt, frame) else 0
        elif op == ">":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return 1 if ev_l(rt, frame) > ev_r(rt, frame) else 0
        elif op == "<=":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return 1 if ev_l(rt, frame) <= ev_r(rt, frame) else 0
        elif op == ">=":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return 1 if ev_l(rt, frame) >= ev_r(rt, frame) else 0
        elif op == "&":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return t(ev_l(rt, frame) & ev_r(rt, frame))
        elif op == "|":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return t(ev_l(rt, frame) | ev_r(rt, frame))
        elif op == "^":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return t(ev_l(rt, frame) ^ ev_r(rt, frame))
        elif op == "<<":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return t(ev_l(rt, frame) << (ev_r(rt, frame) & 63))
        elif op == ">>":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return t(ev_l(rt, frame) >> (ev_r(rt, frame) & 63))
        elif op == "/":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rv = ev_r(rt, frame)
                if rv == 0:
                    rt.flush()
                    raise CMinusError("division by zero", line)
                return t(int(lv / rv))
        elif op == "%":
            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv = ev_l(rt, frame)
                rv = ev_r(rt, frame)
                if rv == 0:
                    rt.flush()
                    raise CMinusError("modulo by zero", line)
                return t(lv - int(lv / rv) * rv)
        else:
            return None
        return run

    def _compile_unop(self, expr: ast.UnOp) -> tuple[EvalFn, CType]:
        if expr.op in ("++", "--"):
            lv_cl, ctype = self.compile_lvalue_of(expr.operand)
            scale = (ctype.pointee.size if isinstance(ctype, PointerType)
                     else 1)
            if expr.op == "--":
                scale = -scale
            size = ctype.size
            signed = _is_signed(ctype)
            mask = (1 << (size * 8)) - 1
            trunc = _make_truncate(ctype)

            def run_incdec(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                addr = lv_cl(rt, frame)
                if rt.ops_executed + rt.pending > rt._ops_cap:
                    rt.flush()
                old = rt.load(addr, size, signed)
                if old is None:
                    old = rt.load_slow(addr, size, signed)
                new = (old + scale) & mask
                if not rt.store(addr, new, size):
                    rt.store_slow(addr, new, size)
                return trunc(new)

            return run_incdec, ctype
        ev, _ = self.compile_eval(expr.operand)
        t_int = _make_truncate(INT)
        if expr.op == "-":
            def run_neg(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return t_int(-ev(rt, frame))
            return run_neg, INT
        if expr.op == "!":
            def run_not(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return 0 if ev(rt, frame) else 1
            return run_not, INT
        if expr.op == "~":
            def run_inv(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                return t_int(~ev(rt, frame))
            return run_inv, INT
        return (self._raise_after(
            ev, f"unknown unary operator '{expr.op}'", expr.line), INT)

    def _compile_assign_stmt(self, expr: ast.Assign) -> StmtFn | None:
        """``x = e;`` / ``x op= e;`` with a scalar Ident target, fused into
        one statement closure: statement tick, hook, assign tick, value,
        limit test, store.  Tick/hook/flush order is exactly the unfused
        ExprStmt + Assign sequence, so pending counts agree at every
        observable point."""
        fast = self._fast_ident_slot(expr.target)
        if fast is None:
            return None
        kind, idx, ctype = fast
        ev_val, vtype = self.compile_eval(expr.value)
        size = ctype.size
        signed = _is_signed(ctype)
        mask = (1 << (size * 8)) - 1
        is_local = kind == "local"
        if expr.op:
            combine, _ = self._make_binop_combine(expr.op, ctype, vtype,
                                                  expr.line)

            def run_aug_stmt(rt: "CompiledEngine", frame: Any) -> None:
                rt.pending += 1          # statement tick
                sh = rt.step_hook
                if sh is not None:
                    n = rt.pending
                    if n:
                        ops = rt.ops_executed + n
                        if ops > rt._ops_cap:
                            rt.flush()
                        rt.pending = 0
                        rt.ops_executed = ops
                        b = rt._on_op_batch
                        if b is not None:
                            b(n)
                    sh()
                rt.pending += 1          # the Assign node's tick
                value = ev_val(rt, frame)
                if rt.ops_executed + rt.pending > rt._ops_cap:
                    rt.flush()
                addr = frame[idx] if is_local else rt.globals[idx]
                old = rt.load(addr, size, signed)
                if old is None:
                    old = rt.load_slow(addr, size, signed)
                value = combine(rt, old, value) & mask
                if not rt.store(addr, value, size):
                    rt.store_slow(addr, value, size)

            return run_aug_stmt

        def run_assign_stmt(rt: "CompiledEngine", frame: Any) -> None:
            rt.pending += 1              # statement tick
            sh = rt.step_hook
            if sh is not None:
                n = rt.pending
                if n:
                    ops = rt.ops_executed + n
                    if ops > rt._ops_cap:
                        rt.flush()
                    rt.pending = 0
                    rt.ops_executed = ops
                    b = rt._on_op_batch
                    if b is not None:
                        b(n)
                sh()
            rt.pending += 1              # the Assign node's tick
            value = ev_val(rt, frame) & mask
            if rt.ops_executed + rt.pending > rt._ops_cap:
                rt.flush()
            addr = frame[idx] if is_local else rt.globals[idx]
            if not rt.store(addr, value, size):
                rt.store_slow(addr, value, size)

        return run_assign_stmt

    def _compile_assign(self, expr: ast.Assign) -> tuple[EvalFn, CType]:
        lv_cl, ctype = self.compile_lvalue_of(expr.target)
        if isinstance(ctype, ArrayType):
            line = expr.line

            def run_bad(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                lv_cl(rt, frame)
                rt.flush()
                raise CMinusError("cannot assign to an array", line)

            return run_bad, ctype
        ev_val, vtype = self.compile_eval(expr.value)
        size = ctype.size
        signed = _is_signed(ctype)
        mask = (1 << (size * 8)) - 1
        trunc = _make_truncate(ctype)
        if expr.op:
            combine, _ = self._make_binop_combine(expr.op, ctype, vtype,
                                                  expr.line)

            def run_aug(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                addr = lv_cl(rt, frame)
                value = ev_val(rt, frame)
                if rt.ops_executed + rt.pending > rt._ops_cap:
                    rt.flush()
                old = rt.load(addr, size, signed)
                if old is None:
                    old = rt.load_slow(addr, size, signed)
                value = combine(rt, old, value) & mask
                if not rt.store(addr, value, size):
                    rt.store_slow(addr, value, size)
                return trunc(value)

            return run_aug, ctype

        def run(rt: "CompiledEngine", frame: Any) -> int:
            rt.pending += 1
            addr = lv_cl(rt, frame)
            value = ev_val(rt, frame) & mask
            if rt.ops_executed + rt.pending > rt._ops_cap:
                rt.flush()
            if not rt.store(addr, value, size):
                rt.store_slow(addr, value, size)
            return trunc(value)

        return run, ctype

    def _compile_postincdec(self, expr: ast.PostIncDec
                            ) -> tuple[EvalFn, CType]:
        lv_cl, ctype = self.compile_lvalue_of(expr.target)
        scale = ctype.pointee.size if isinstance(ctype, PointerType) else 1
        if expr.op == "--":
            scale = -scale
        size = ctype.size
        signed = _is_signed(ctype)
        mask = (1 << (size * 8)) - 1
        fast = self._fast_ident_slot(expr.target)
        if fast is not None:
            kind, idx, _ = fast
            is_local = kind == "local"

            def run_fast(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                if rt.ops_executed + rt.pending > rt._ops_cap:
                    rt.flush()
                addr = frame[idx] if is_local else rt.globals[idx]
                old = rt.load(addr, size, signed)
                if old is None:
                    old = rt.load_slow(addr, size, signed)
                new = (old + scale) & mask
                if not rt.store(addr, new, size):
                    rt.store_slow(addr, new, size)
                return old

            return run_fast, ctype

        def run(rt: "CompiledEngine", frame: Any) -> int:
            rt.pending += 1
            addr = lv_cl(rt, frame)
            if rt.ops_executed + rt.pending > rt._ops_cap:
                rt.flush()
            old = rt.load(addr, size, signed)
            if old is None:
                old = rt.load_slow(addr, size, signed)
            new = (old + scale) & mask
            if not rt.store(addr, new, size):
                rt.store_slow(addr, new, size)
            return old

        return run, ctype

    def _compile_call(self, expr: ast.Call) -> tuple[EvalFn, CType]:
        arg_cls = tuple(self.compile_eval(a)[0] for a in expr.args)
        name = expr.func
        if name in self.program.funcs:
            cf = self.compiled.funcs[name]

            def run(rt: "CompiledEngine", frame: Any) -> int:
                rt.pending += 1
                args = [a(rt, frame) for a in arg_cls]
                return _invoke(rt, cf, args)

            return run, INT

        def run_ext(rt: "CompiledEngine", frame: Any) -> int:
            rt.pending += 1
            args = [a(rt, frame) for a in arg_cls]
            ext = rt.externs.get(name)
            if ext is None:
                rt.flush()
                raise CMinusError(f"undefined function '{name}'", 0)
            rt.flush()
            result = ext(*args)
            return int(result) if result is not None else 0

        return run_ext, INT

    def _compile_sizeof(self, expr: ast.SizeOf) -> tuple[EvalFn, CType]:
        try:
            if expr.ctype is not None:
                size = expr.ctype.size
            else:
                assert expr.expr is not None
                size = self._static_type(expr.expr).size
        except CMinusError as exc:
            # mirror the tree-walker: the error fires when evaluated
            return self._raise_eval(exc.args[0].rsplit(" at line", 1)[0]
                                    if exc.line else exc.args[0],
                                    exc.line), INT

        def run(rt: "CompiledEngine", frame: Any) -> int:
            rt.pending += 1
            return size

        return run, INT

    def _static_type(self, expr: ast.Expr) -> CType:
        """Compile-time mirror of ``Interpreter._static_type``."""
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.StrLit):
            return PointerType(CHAR)
        if isinstance(expr, ast.Ident):
            found = self.lookup(expr.name)
            if found is None:
                raise CMinusError(f"undefined variable '{expr.name}'",
                                  expr.line)
            return found[2]
        if isinstance(expr, ast.Deref):
            inner = self._static_type(expr.ptr)
            if isinstance(inner, PointerType):
                return inner.pointee
            if isinstance(inner, ArrayType):
                return inner.elem
            raise CMinusError("sizeof: dereference of non-pointer", expr.line)
        if isinstance(expr, ast.Index):
            inner = self._static_type(expr.base)
            if isinstance(inner, PointerType):
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

    # --------------------------------------------------------------- lvalues

    def compile_lvalue_of(self, expr: ast.Expr) -> tuple[EvalFn, CType]:
        """Closure returning the ADDRESS of ``expr``.  Mirrors
        ``Interpreter.lvalue`` — which does NOT tick."""
        if isinstance(expr, ast.Ident):
            found = self.lookup(expr.name)
            if found is None:
                return (self._raise_lvalue(
                    f"undefined variable '{expr.name}'", expr.line), INT)
            kind, idx, ctype = found
            if kind == "local":
                def run_l(rt: "CompiledEngine", frame: Any) -> int:
                    return frame[idx]
                return run_l, ctype

            def run_g(rt: "CompiledEngine", frame: Any) -> int:
                return rt.globals[idx]
            return run_g, ctype
        if isinstance(expr, ast.Deref):
            ev_ptr, ptype = self.compile_eval(expr.ptr)
            if not isinstance(ptype, PointerType):
                return (self._raise_after(ev_ptr, "dereference of non-pointer",
                                          expr.line), INT)
            return ev_ptr, ptype.pointee
        if isinstance(expr, ast.Index):
            ev_base, btype = self.compile_eval(expr.base)
            ev_idx, _ = self.compile_eval(expr.index)
            if not isinstance(btype, PointerType):
                def run_bad(rt: "CompiledEngine", frame: Any) -> int:
                    ev_base(rt, frame)
                    ev_idx(rt, frame)
                    rt.flush()
                    raise CMinusError("indexing a non-pointer", expr.line)
                return run_bad, INT
            elem = btype.pointee
            esize = elem.size

            def run_idx(rt: "CompiledEngine", frame: Any) -> int:
                base = ev_base(rt, frame)
                idx = ev_idx(rt, frame)
                return base + idx * esize

            return run_idx, elem
        if isinstance(expr, ast.Member):
            return self._member_lvalue(expr)
        if isinstance(expr, ast.Check):
            if isinstance(expr.inner, ast.Index):
                return self._checked_index_lvalue(expr)
            lv_cl, ctype = self.compile_lvalue_of(expr.inner)
            check = self._make_deref_check(expr)

            def run_chk(rt: "CompiledEngine", frame: Any) -> int:
                addr = lv_cl(rt, frame)
                check(rt, addr)
                return addr

            return run_chk, ctype
        return (self._raise_lvalue(
            f"{type(expr).__name__} is not an lvalue", expr.line), INT)

    # compile_lvalue: alias used where the tree-walker calls self.lvalue(e)
    compile_lvalue = compile_lvalue_of

    def _member_lvalue(self, expr: ast.Member) -> tuple[EvalFn, CType]:
        if expr.arrow:
            ev_base, btype = self.compile_eval(expr.base)
            if not (isinstance(btype, PointerType)
                    and isinstance(btype.pointee, StructType)):
                return (self._raise_after(ev_base, "-> on a non-struct-pointer",
                                          expr.line), INT)
            struct = btype.pointee
            base_cl = ev_base
        else:
            base_cl, bt = self.compile_lvalue_of(expr.base)
            if not isinstance(bt, StructType):
                return (self._raise_after(base_cl, ". on a non-struct value",
                                          expr.line), INT)
            struct = bt
        try:
            offset, ftype = struct.field(expr.field_name)
        except KeyError as exc:
            return (self._raise_after(base_cl, str(exc), expr.line), INT)
        if offset == 0:
            return base_cl, ftype

        def run(rt: "CompiledEngine", frame: Any) -> int:
            return base_cl(rt, frame) + offset

        return run, ftype

    # ---------------------------------------------------------------- checks

    def _make_deref_check(self, node: ast.Check
                          ) -> Callable[["CompiledEngine", int], None]:
        """(rt, addr) -> None executing the baked deref check.  The
        ``enabled`` flag is read from the live AST node so dynamic
        deinstrumentation takes effect even before the recompile its
        generation bump triggers."""
        access_size = node.access_size
        site = node.site

        def check(rt: "CompiledEngine", addr: int) -> None:
            if node.enabled:
                cr = rt.check_runtime
                if cr is not None:
                    rt.flush()
                    cr.check_deref(addr, access_size, site)

        return check

    def _checked_index_lvalue(self, node: ast.Check) -> tuple[EvalFn, CType]:
        """Mirror of ``Interpreter._checked_index_lvalue``: evaluate base and
        index exactly once, then validate with intended-referent
        semantics."""
        inner = node.inner
        assert isinstance(inner, ast.Index)
        ev_base, btype = self.compile_eval(inner.base)
        ev_idx, _ = self.compile_eval(inner.index)
        if not isinstance(btype, PointerType):
            line = inner.line

            def run_bad(rt: "CompiledEngine", frame: Any) -> int:
                ev_base(rt, frame)
                ev_idx(rt, frame)
                rt.flush()
                raise CMinusError("indexing a non-pointer", line)

            return run_bad, INT
        elem = btype.pointee
        esize = elem.size
        access_size = node.access_size
        site = node.site

        def run(rt: "CompiledEngine", frame: Any) -> int:
            base = ev_base(rt, frame)
            idx = ev_idx(rt, frame)
            addr = base + idx * esize
            if node.enabled:
                cr = rt.check_runtime
                if cr is not None:
                    rt.flush()
                    cr.check_index(base, addr, access_size, site)
            return addr

        return run, elem

    def _compile_check(self, expr: ast.Check) -> tuple[EvalFn, CType]:
        if expr.kind == "arith":
            return self._compile_arith_check(expr)
        # deref-kind Check wrapping a load
        if isinstance(expr.inner, ast.Index):
            lv_cl, ctype = self._checked_index_lvalue(expr)
        else:
            inner_lv, ctype = self.compile_lvalue_of(expr.inner)
            check = self._make_deref_check(expr)

            def lv_cl(rt: "CompiledEngine", frame: Any,
                      _lv: EvalFn = inner_lv,
                      _check: Callable[["CompiledEngine", int], None] = check
                      ) -> int:
                addr = _lv(rt, frame)
                _check(rt, addr)
                return addr
        return self._eval_via_lvalue(lv_cl, ctype)

    def _compile_arith_check(self, expr: ast.Check) -> tuple[EvalFn, CType]:
        ev_inner, ctype = self.compile_eval(expr.inner)
        site = expr.site
        inner = expr.inner
        base_fn: Callable[["CompiledEngine", Any], int]
        if isinstance(inner, ast.BinOp):
            sides = []
            for side in (inner.left, inner.right):
                ev_side, stype = self.compile_eval(side)
                sides.append((ev_side, isinstance(stype, PointerType)))
            side_specs = tuple(sides)

            def base_fn(rt: "CompiledEngine", frame: Any) -> int:
                # mirror of _arith_base: re-evaluate operands (including
                # their side effects and ticks), first pointer wins
                for ev_side, is_ptr in side_specs:
                    try:
                        v = ev_side(rt, frame)
                    except CMinusError:
                        continue
                    if is_ptr:
                        return v
                return 0
        elif isinstance(inner, (ast.PostIncDec, ast.UnOp)):
            target = getattr(inner, "target", None) or getattr(inner,
                                                               "operand")
            ev_t, ttype = self.compile_eval(target)
            t_is_ptr = isinstance(ttype, PointerType)

            def base_fn(rt: "CompiledEngine", frame: Any) -> int:
                v = ev_t(rt, frame)
                return v if t_is_ptr else 0
        else:
            def base_fn(rt: "CompiledEngine", frame: Any) -> int:
                return 0
        node = expr

        def run(rt: "CompiledEngine", frame: Any) -> int:
            rt.pending += 1
            value = ev_inner(rt, frame)
            if node.enabled:
                cr = rt.check_runtime
                if cr is not None:
                    base = base_fn(rt, frame)
                    rt.flush()
                    value = cr.check_arith(base, value, site)
            return value

        return run, ctype

    # ------------------------------------------------------------ statements

    def compile_stmt(self, stmt: ast.Stmt) -> StmtFn:
        """Every statement closure opens with the exact tree-walker
        sequence: tick, then ``step_hook`` (flushing first so the hook sees
        an up-to-date clock)."""
        if isinstance(stmt, ast.Block):
            return self.compile_block(stmt, new_scope=True)
        if isinstance(stmt, ast.VarDecl):
            return self._compile_vardecl(stmt)
        if isinstance(stmt, ast.ExprStmt):
            if isinstance(stmt.expr, ast.Assign):
                fused = self._compile_assign_stmt(stmt.expr)
                if fused is not None:
                    return fused
            ev, _ = self.compile_eval(stmt.expr)

            def run_expr(rt: "CompiledEngine", frame: Any) -> None:
                rt.pending += 1
                sh = rt.step_hook
                if sh is not None:
                    n = rt.pending
                    if n:
                        ops = rt.ops_executed + n
                        if ops > rt._ops_cap:
                            rt.flush()
                        rt.pending = 0
                        rt.ops_executed = ops
                        b = rt._on_op_batch
                        if b is not None:
                            b(n)
                    sh()
                ev(rt, frame)

            return run_expr
        if isinstance(stmt, ast.If):
            return self._compile_if(stmt)
        if isinstance(stmt, ast.While):
            return self._compile_while(stmt)
        if isinstance(stmt, ast.For):
            return self._compile_for(stmt)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                ev_val, _ = self.compile_eval(stmt.value)

                def run_ret(rt: "CompiledEngine", frame: Any) -> None:
                    rt.pending += 1
                    sh = rt.step_hook
                    if sh is not None:
                        n = rt.pending
                        if n:
                            ops = rt.ops_executed + n
                            if ops > rt._ops_cap:
                                rt.flush()
                            rt.pending = 0
                            rt.ops_executed = ops
                            b = rt._on_op_batch
                            if b is not None:
                                b(n)
                        sh()
                    raise _Return(ev_val(rt, frame))

                return run_ret

            def run_ret0(rt: "CompiledEngine", frame: Any) -> None:
                rt.pending += 1
                sh = rt.step_hook
                if sh is not None:
                    n = rt.pending
                    if n:
                        ops = rt.ops_executed + n
                        if ops > rt._ops_cap:
                            rt.flush()
                        rt.pending = 0
                        rt.ops_executed = ops
                        b = rt._on_op_batch
                        if b is not None:
                            b(n)
                    sh()
                raise _Return(0)

            return run_ret0
        if isinstance(stmt, ast.Break):
            def run_brk(rt: "CompiledEngine", frame: Any) -> None:
                rt.pending += 1
                sh = rt.step_hook
                if sh is not None:
                    n = rt.pending
                    if n:
                        ops = rt.ops_executed + n
                        if ops > rt._ops_cap:
                            rt.flush()
                        rt.pending = 0
                        rt.ops_executed = ops
                        b = rt._on_op_batch
                        if b is not None:
                            b(n)
                    sh()
                raise _Break()

            return run_brk
        if isinstance(stmt, ast.Continue):
            def run_cont(rt: "CompiledEngine", frame: Any) -> None:
                rt.pending += 1
                sh = rt.step_hook
                if sh is not None:
                    n = rt.pending
                    if n:
                        ops = rt.ops_executed + n
                        if ops > rt._ops_cap:
                            rt.flush()
                        rt.pending = 0
                        rt.ops_executed = ops
                        b = rt._on_op_batch
                        if b is not None:
                            b(n)
                    sh()
                raise _Continue()

            return run_cont
        msg = f"cannot execute {type(stmt).__name__}"
        line = stmt.line

        def run_bad(rt: "CompiledEngine", frame: Any) -> None:
            rt.pending += 1
            sh = rt.step_hook
            if sh is not None:
                n = rt.pending
                if n:
                    ops = rt.ops_executed + n
                    if ops > rt._ops_cap:
                        rt.flush()
                    rt.pending = 0
                    rt.ops_executed = ops
                    b = rt._on_op_batch
                    if b is not None:
                        b(n)
                sh()
            rt.flush()
            raise CMinusError(msg, line)

        return run_bad

    def compile_block(self, block: ast.Block, *, new_scope: bool) -> StmtFn:
        if new_scope:
            self.scopes.append({})
        try:
            stmts = tuple(self.compile_stmt(s) for s in block.stmts)
        finally:
            if new_scope:
                self.scopes.pop()
        has_decls = any(isinstance(s, ast.VarDecl) for s in block.stmts)
        if not has_decls:
            def run_plain(rt: "CompiledEngine", frame: Any) -> None:
                rt.pending += 1
                sh = rt.step_hook
                if sh is not None:
                    n = rt.pending
                    if n:
                        ops = rt.ops_executed + n
                        if ops > rt._ops_cap:
                            rt.flush()
                        rt.pending = 0
                        rt.ops_executed = ops
                        b = rt._on_op_batch
                        if b is not None:
                            b(n)
                    sh()
                for s in stmts:
                    s(rt, frame)

            return run_plain

        def run(rt: "CompiledEngine", frame: Any) -> None:
            rt.pending += 1
            sh = rt.step_hook
            if sh is not None:
                n = rt.pending
                if n:
                    ops = rt.ops_executed + n
                    if ops > rt._ops_cap:
                        rt.flush()
                    rt.pending = 0
                    rt.ops_executed = ops
                    b = rt._on_op_batch
                    if b is not None:
                        b(n)
                sh()
            allocs: list[tuple[int, int]] = []
            prev = rt.allocs
            rt.allocs = allocs
            try:
                for s in stmts:
                    s(rt, frame)
            finally:
                rt.allocs = prev
                rt.flush()
                vh = rt.var_hooks
                if vh is not None and allocs:
                    vh.on_scope_exit([a for a, _ in allocs])
                for addr, size in reversed(allocs):
                    rt.mem.free_stack(addr, size)

        return run

    def _compile_vardecl(self, decl: ast.VarDecl) -> StmtFn:
        ctype = decl.ctype
        # bind the slot BEFORE compiling the initializer — the tree-walker
        # installs the scope binding before evaluating init, so `int x = x;`
        # reads the freshly-declared x
        slot = self.declare(decl.name, ctype)
        size = max(ctype.size, 1)
        zero = b"\0" * size
        name = decl.name
        line = decl.line
        bad_init = (decl.init is not None
                    and isinstance(ctype, (ArrayType, StructType)))
        init_cl: EvalFn | None = None
        if decl.init is not None and not bad_init:
            init_cl, _ = self.compile_eval(decl.init)
        store_size = ctype.size
        store_mask = (1 << (store_size * 8)) - 1

        def run(rt: "CompiledEngine", frame: Any) -> None:
            rt.pending += 1
            sh = rt.step_hook
            if sh is not None:
                n = rt.pending
                if n:
                    ops = rt.ops_executed + n
                    if ops > rt._ops_cap:
                        rt.flush()
                    rt.pending = 0
                    rt.ops_executed = ops
                    b = rt._on_op_batch
                    if b is not None:
                        b(n)
                sh()
            rt.flush()
            addr = rt.mem.alloc_stack(size)
            rt.allocs.append((addr, size))
            frame[slot] = addr
            vh = rt.var_hooks
            if vh is not None:
                vh.on_decl(name, addr, ctype, f"{rt.filename}:{line}")
            if bad_init:
                raise CMinusError(
                    "array/struct initializers are not supported", line)
            if init_cl is not None:
                value = init_cl(rt, frame) & store_mask
                if rt.ops_executed + rt.pending > rt._ops_cap:
                    rt.flush()
                if not rt.store(addr, value, store_size):
                    rt.store_slow(addr, value, store_size)
            else:
                rt.mem.write(addr, zero)

        return run

    def _compile_if(self, stmt: ast.If) -> StmtFn:
        ev_cond, _ = self.compile_eval(stmt.cond)
        then_cl = self.compile_stmt(stmt.then)
        orelse_cl = (self.compile_stmt(stmt.orelse)
                     if stmt.orelse is not None else None)

        def run(rt: "CompiledEngine", frame: Any) -> None:
            rt.pending += 1
            sh = rt.step_hook
            if sh is not None:
                n = rt.pending
                if n:
                    ops = rt.ops_executed + n
                    if ops > rt._ops_cap:
                        rt.flush()
                    rt.pending = 0
                    rt.ops_executed = ops
                    b = rt._on_op_batch
                    if b is not None:
                        b(n)
                sh()
            if ev_cond(rt, frame):
                then_cl(rt, frame)
            elif orelse_cl is not None:
                orelse_cl(rt, frame)

        return run

    def _compile_while(self, stmt: ast.While) -> StmtFn:
        ev_cond, _ = self.compile_eval(stmt.cond)
        body_cl = self.compile_stmt(stmt.body)

        def run(rt: "CompiledEngine", frame: Any) -> None:
            rt.pending += 1
            sh = rt.step_hook
            if sh is not None:
                n = rt.pending
                if n:
                    ops = rt.ops_executed + n
                    if ops > rt._ops_cap:
                        rt.flush()
                    rt.pending = 0
                    rt.ops_executed = ops
                    b = rt._on_op_batch
                    if b is not None:
                        b(n)
                sh()
            while True:
                if rt.max_ops is not None:
                    # flush per iteration so a pure-compute runaway loop
                    # still trips ExecLimits at exactly the right op
                    rt.flush()
                if not ev_cond(rt, frame):
                    break
                try:
                    body_cl(rt, frame)
                except _Break:
                    break
                except _Continue:
                    continue

        return run

    def _compile_for(self, stmt: ast.For) -> StmtFn:
        self.scopes.append({})
        try:
            init_cl = (self.compile_stmt(stmt.init)
                       if stmt.init is not None else None)
            cond_cl = (self.compile_eval(stmt.cond)[0]
                       if stmt.cond is not None else None)
            body_cl = self.compile_stmt(stmt.body)
            step_cl = (self.compile_eval(stmt.step)[0]
                       if stmt.step is not None else None)
        finally:
            self.scopes.pop()
        header_allocs = isinstance(stmt.init, ast.VarDecl)

        def loop(rt: "CompiledEngine", frame: Any) -> None:
            if init_cl is not None:
                init_cl(rt, frame)
            while True:
                if rt.max_ops is not None:
                    rt.flush()
                if cond_cl is not None and not cond_cl(rt, frame):
                    break
                try:
                    body_cl(rt, frame)
                except _Break:
                    break
                except _Continue:
                    pass
                if step_cl is not None:
                    step_cl(rt, frame)

        if not header_allocs:
            def run_plain(rt: "CompiledEngine", frame: Any) -> None:
                rt.pending += 1
                sh = rt.step_hook
                if sh is not None:
                    n = rt.pending
                    if n:
                        ops = rt.ops_executed + n
                        if ops > rt._ops_cap:
                            rt.flush()
                        rt.pending = 0
                        rt.ops_executed = ops
                        b = rt._on_op_batch
                        if b is not None:
                            b(n)
                    sh()
                loop(rt, frame)

            return run_plain

        def run(rt: "CompiledEngine", frame: Any) -> None:
            rt.pending += 1
            sh = rt.step_hook
            if sh is not None:
                n = rt.pending
                if n:
                    ops = rt.ops_executed + n
                    if ops > rt._ops_cap:
                        rt.flush()
                    rt.pending = 0
                    rt.ops_executed = ops
                    b = rt._on_op_batch
                    if b is not None:
                        b(n)
                sh()
            allocs: list[tuple[int, int]] = []
            prev = rt.allocs
            rt.allocs = allocs
            try:
                loop(rt, frame)
            finally:
                rt.allocs = prev
                rt.flush()
                vh = rt.var_hooks
                if vh is not None and allocs:
                    vh.on_scope_exit([a for a, _ in allocs])
                for addr, size in reversed(allocs):
                    rt.mem.free_stack(addr, size)

        return run


# ----------------------------------------------------------- program compile

def compile_program(program: ast.Program) -> CompiledProgram:
    """Lower ``program`` (at its current generation) to closures."""
    compiled = CompiledProgram(program)
    compiler = _Compiler(program, compiled)
    # Function shells first so Call closures can bind them directly even
    # for mutual recursion.
    for name, fdef in program.funcs.items():
        compiled.funcs[name] = CompiledFunction(name, fdef.line)
    # Globals: indices assigned in declaration order; each initializer is
    # compiled with the bindings declared so far (plus its own, matching
    # the tree-walker's bind-then-eval order).
    for decl in program.globals:
        idx = len(compiled.globals_spec)
        compiler.global_index[decl.name] = (idx, decl.ctype)
        init_cl: EvalFn | None = None
        if decl.init is not None:
            compiler.scopes = [{}]
            compiler.nslots = 0
            init_cl = compiler.compile_eval(decl.init)[0]
        compiled.globals_spec.append(
            _GlobalSpec(decl.name, decl.ctype, idx, decl.line, init_cl))
    # Function bodies.
    for name, fdef in program.funcs.items():
        cf = compiled.funcs[name]
        compiler.scopes = [{}]
        compiler.nslots = 0
        for param in fdef.params:
            slot = compiler.declare(param.name, param.ctype)
            cf.params.append(_ParamSpec(param.name, param.ctype, slot,
                                        param.line))
        # the body block shares the parameter scope (new_scope=False),
        # exactly like Interpreter.call
        cf.body = compiler.compile_block(fdef.body, new_scope=False)
        cf.nslots = compiler.nslots
    return compiled


# ------------------------------------------------------------------ the cache

class CodeCache:
    """Per-kernel cache of compiled programs.

    The effective key is (program identity, structural fingerprint,
    instrumentation generation): a generation bump — hotpatch,
    (de)instrumentation, re-registration — invalidates the entry, and a
    dead program's entry is dropped via its weakref.  Counters live in
    the kernel's :class:`~repro.trace.metrics.MetricsRegistry` (a private
    one when standalone) under ``cminus.cache.*`` and feed
    :func:`repro.analysis.report.code_cache_report`.
    """

    def __init__(self, max_entries: int = 256, *, metrics=None):
        if metrics is None:
            from repro.trace.metrics import MetricsRegistry
            metrics = MetricsRegistry()
        self.max_entries = max_entries
        self._hits = metrics.counter("cminus.cache.hits")
        self._misses = metrics.counter("cminus.cache.misses")
        self._invalidations = metrics.counter("cminus.cache.invalidations")
        self._compiles = metrics.counter("cminus.cache.compiles")
        self._entries: dict[int, tuple[weakref.ref, int, CompiledProgram]] = {}
        metrics.gauge("cminus.cache.entries", fn=lambda: len(self._entries))

    @property
    def hits(self) -> int:
        return self._hits.value

    @property
    def misses(self) -> int:
        return self._misses.value

    @property
    def invalidations(self) -> int:
        return self._invalidations.value

    @property
    def compiles(self) -> int:
        return self._compiles.value

    def lookup(self, program: ast.Program) -> CompiledProgram:
        gen = generation_of(program)
        key = id(program)
        entry = self._entries.get(key)
        if entry is not None:
            ref, cached_gen, compiled = entry
            if ref() is program:
                if cached_gen == gen:
                    self._hits.inc()
                    return compiled
                # the program was rewritten since this was compiled —
                # stale code must never run
                self._invalidations.inc()
            del self._entries[key]
        self._misses.inc()
        compiled = compile_program(program)
        self._compiles.inc()
        if len(self._entries) >= self.max_entries:
            self._entries.pop(next(iter(self._entries)))
        self._entries[key] = (weakref.ref(program), gen, compiled)
        return compiled

    def invalidate(self, program: ast.Program) -> None:
        """Drop any cached code for ``program`` (bumps its generation)."""
        bump_generation(program)
        entry = self._entries.pop(id(program), None)
        if entry is not None:
            self._invalidations.inc()

    def stats(self) -> dict[str, int]:
        return {"hits": self.hits, "misses": self.misses,
                "invalidations": self.invalidations,
                "compiles": self.compiles, "entries": len(self._entries)}

    def __repr__(self) -> str:  # pragma: no cover
        s = self.stats()
        return (f"CodeCache(hits={s['hits']}, misses={s['misses']}, "
                f"invalidations={s['invalidations']}, "
                f"entries={s['entries']})")


# ------------------------------------------------------------------ the engine

class CompiledEngine:
    """Drop-in replacement for :class:`Interpreter` over compiled code.

    Same constructor surface plus:

    * ``on_op_batch(n)`` — preferred accounting hook, called once per
      flush with the batched op count (``on_op`` still works: it is
      invoked n times per flush, preserving exact call counts);
    * ``cache`` — a :class:`CodeCache`; compilation is skipped on a hit
      and the generation is re-validated on every :meth:`call`, so code
      invalidated by KGCC rewrites is recompiled before it can run.
    """

    def __init__(self, program: ast.Program, mem: MemoryAccess, *,
                 externs: dict[str, Callable] | None = None,
                 on_op: Callable[[], None] | None = None,
                 on_op_batch: Callable[[int], None] | None = None,
                 step_hook: Callable[[], None] | None = None,
                 check_runtime: CheckRuntime | None = None,
                 var_hooks: VarHooks | None = None,
                 limits: ExecLimits | None = None,
                 filename: str = "<cminus>",
                 cache: CodeCache | None = None,
                 compiled: CompiledProgram | None = None,
                 tracer=None):
        self.program = program
        self.mem = mem
        self.externs = externs or {}
        self.on_op = on_op
        self.step_hook = step_hook
        self.check_runtime = check_runtime
        self.var_hooks = var_hooks
        self.limits = limits or ExecLimits()
        self.max_ops = self.limits.max_ops
        # closures compare against an always-int cap so the unlimited case
        # costs one comparison, not an extra None test
        self._ops_cap = (self.max_ops if self.max_ops is not None
                         else float("inf"))
        self.filename = filename
        self.pending = 0
        self.ops_executed = 0
        # the backend's scalar fast path, bound once (see MemoryAccess)
        self.load = mem.try_read_int
        self.store = mem.try_write_int
        self.strings: dict[int, int] = {}
        self.allocs: list[tuple[int, int]] = []
        self._cache = cache
        self._tracer = tracer
        if on_op_batch is None and on_op is not None:
            op = on_op

            def on_op_batch(n: int) -> None:
                for _ in range(n):
                    op()
        self._on_op_batch = on_op_batch
        if compiled is None:
            compiled = (cache.lookup(program) if cache is not None
                        else compile_program(program))
        if compiled.program is not program:
            raise CMinusError("compiled code belongs to a different program")
        if compiled.generation != generation_of(program):
            raise CMinusError(
                f"stale compiled code (generation {compiled.generation}, "
                f"program is at {generation_of(program)})")
        self._compiled = compiled
        self.globals: list[int] = [0] * len(compiled.globals_spec)
        self._init_globals()

    # ------------------------------------------------------------ accounting

    def flush(self) -> None:
        """Charge all pending ops; enforce ``ExecLimits`` without overshoot.

        When the batch crosses ``max_ops``, exactly the ops up to and
        including the crossing one are charged (the tree-walker charges
        the crossing op's tick and then raises), then the same
        :class:`CMinusError` fires.
        """
        n = self.pending
        if not n:
            return
        self.pending = 0
        max_ops = self.max_ops
        if max_ops is not None and self.ops_executed + n > max_ops:
            allowed = max_ops + 1 - self.ops_executed
            if allowed > 0:
                self.ops_executed += allowed
                if self._on_op_batch is not None:
                    self._on_op_batch(allowed)
            raise CMinusError(
                f"execution exceeded {max_ops} operations")
        self.ops_executed += n
        if self._on_op_batch is not None:
            self._on_op_batch(n)

    def load_slow(self, addr: int, size: int, signed: bool) -> int:
        """A scalar load the fast path declined: charge the pending ops
        first, so the miss, fault or trap it meets sees the tree-walker's
        clock."""
        self.flush()
        return int.from_bytes(self.mem.read(addr, size), "little",
                              signed=signed)

    def store_slow(self, addr: int, value: int, size: int) -> None:
        """The store counterpart of :meth:`load_slow`."""
        self.flush()
        self.mem.write(addr, value.to_bytes(size, "little"))

    # --------------------------------------------------------------- plumbing

    def _init_globals(self) -> None:
        for spec in self._compiled.globals_spec:
            self.flush()    # the last initialiser's store may have hit
            addr = self.mem.malloc(spec.alloc_size)
            self.globals[spec.index] = addr
            if self.var_hooks is not None:
                self.var_hooks.on_decl(spec.name, addr, spec.ctype,
                                       f"{self.filename}:{spec.line}")
            if spec.init is not None:
                value = spec.init(self, ()) & spec.store_mask
                if self.ops_executed + self.pending > self._ops_cap:
                    self.flush()
                if not self.store(addr, value, spec.store_size):
                    self.store_slow(addr, value, spec.store_size)
            else:
                self.mem.write(addr, b"\0" * spec.alloc_size)
        self.flush()

    def _refresh(self) -> CompiledProgram:
        """The program was rewritten under us (generation bumped):
        recompile (or fetch fresh code from the cache) before running."""
        cache = self._cache
        compiled = (cache.lookup(self.program) if cache is not None
                    else compile_program(self.program))
        if len(compiled.globals_spec) != len(self.globals):
            raise CMinusError(
                "program globals changed under a live engine")
        self._compiled = compiled
        return compiled

    # ------------------------------------------------------------------- call

    def call(self, name: str, *args: int) -> int:
        """Call a program function (or extern) with integer arguments."""
        compiled = self._compiled
        if compiled.generation != generation_of(self.program):
            compiled = self._refresh()
        cf = compiled.funcs.get(name)
        if cf is None:
            ext = self.externs.get(name)
            if ext is None:
                raise CMinusError(f"undefined function '{name}'", 0)
            result = ext(*args)
            return int(result) if result is not None else 0
        tracer = self._tracer
        if tracer is not None and tracer.enabled:
            tracer.begin(f"cminus:{name}", "cminus", file=self.filename)
            try:
                return _invoke(self, cf, list(args))
            finally:
                tracer.end(ops=self.ops_executed)
        return _invoke(self, cf, list(args))

    def __repr__(self) -> str:  # pragma: no cover
        return (f"CompiledEngine(gen={self._compiled.generation}, "
                f"ops={self.ops_executed})")
