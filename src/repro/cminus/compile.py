"""Source generator for the C subset: lower an AST once, execute many.

The tree-walking :class:`~repro.cminus.interp.Interpreter` re-dispatches on
node types and fires a Python ``on_op_batch(1)`` callback for every
simulated operation.  That is faithful but slow, and every hot path in the
reproduction (CoSy compounds, KGCC-instrumented modules) bottoms out in
it.  This module performs the move real kernel-embedded runtimes make —
eBPF JIT-compiles verified bytecode at load time — scaled to this
simulator:

* :func:`compile_program` generates one Python function per C function
  and ``exec``s it once.  C control flow becomes Python control flow,
  and names are bound by :func:`~repro.cminus.resolve.resolve`: a
  *register* (an integer or pointer local or parameter whose address is
  never taken) is a Python local holding its value, and every other
  variable keeps its simulated stack slot, its address a Python local.
  Type sizes and truncation masks are literals, and KGCC
  :class:`ast.Check` nodes become inline calls into the check runtime on
  values the code has just computed: an arith check's base is the
  pointer operand of the ``+``/``-`` it wraps, evaluated once.
  ``CompiledFunction.source`` keeps the text; the code object's filename
  names the C function (``<cminus:file:func>``).
* :class:`CompiledEngine` executes compiled code behind the same ``call``
  API as the interpreter, with **batched cost accounting**.  A generated
  function keeps its pending-op count in the local ``p`` and sums at
  generation time the ticks between two points that read it.  It charges
  ``costs.cminus_op × N`` only at *flush points* — before every memory
  access that leaves the backend's scalar fast path, allocation, runtime
  check, variable hook, call, ``step_hook`` and raised error — so any
  mid-run observer (preemption watchdog, fault injection, Kefence traps,
  segment-limit faults, TLB-miss and fault spans) reads a clock identical
  to the tree-walker's.  A scalar load or store that hits the TLB
  (``MemoryAccess.try_read_int``/``try_write_int``) neither reads nor
  charges the clock, so only the ``ExecLimits`` test runs before it; a
  register access is plain Python and needs not even that.
  ``step_hook`` may return a budget ``n``: the engine then skips it at
  statement boundaries until ``n`` ops have run since the last flush.
  Every flush zeroes the budget, so after anything but an op tick
  charges or reads the clock the next statement calls the hook again.
* :class:`CodeCache` caches compiled programs keyed by (program
  fingerprint, instrumentation generation).  KGCC ``instrument`` /
  ``optimize`` / ``hotpatch`` / ``deinstrument`` and CoSy re-registration
  bump the generation via :func:`bump_generation`, so stale compiled code
  can never run: the engine re-checks the generation on every ``call``.
  Hooks are read from the engine when a function runs, so one cached
  program serves engines with any mix of hooks.

Semantics parity contract (verified by ``tests/property/test_prop_compile``):
return values, memory state, fault sites and messages, check verdicts,
``ops_executed`` and charged cycle totals all match the tree-walker.
"""

from __future__ import annotations

import dataclasses
import hashlib
import weakref
from typing import Any, Callable, Sequence

from repro.cminus import ast_nodes as ast
from repro.cminus.ctypes import (ArrayType, CHAR, CType, INT, IntType,
                                 PointerType, StructType)
from repro.cminus.interp import (CheckRuntime, ExecLimits, VarHooks,
                                 _WORD_MASK, _step_by, _truncate, c_div,
                                 c_mod)
from repro.cminus.memaccess import MemoryAccess
from repro.cminus.resolve import (Binding, bump_generation, generation_of,
                                  register_of, resolve, static_type)
from repro.errors import CMinusError

_FP_ATTR = "_cminus_fingerprint"


def program_fingerprint(program: ast.Program) -> str:
    """Structural hash of the AST: the nodes' own fields, not the side
    state resolution and generation bumps attach (cached per
    generation)."""
    gen = generation_of(program)
    cached = getattr(program, _FP_ATTR, None)
    if cached is not None and cached[0] == gen:
        return cached[1]
    h = hashlib.sha256()
    for node in ast.walk(program):
        h.update(type(node).__name__.encode())
        for f in dataclasses.fields(node):
            if not f.compare:
                continue            # a side field the resolver sets
            value = getattr(node, f.name)
            if isinstance(value, (bool, int, str)):
                h.update(f"{f.name}={value};".encode())
            elif isinstance(value, CType):
                h.update(f"{f.name}={value!r};".encode())
    fp = h.hexdigest()[:16]
    setattr(program, _FP_ATTR, (gen, fp))
    return fp


# ----------------------------------------------------------- control signals

class _Break(Exception):
    """``break`` outside any loop of its function."""


class _Continue(Exception):
    """``continue`` outside any loop of its function."""


#: what an outlined statement returns when a ``break``/``continue`` in it
#: leaves it for a loop of the function it was cut from
_BRK = object()
_CONT = object()

#: Python nesting a generated function may reach before the generator
#: moves the next statement or expression into a helper function.
#: CPython rejects more than 20 nested loop/try blocks and 100 levels of
#: indentation per code object; one C node adds at most 1 and 3.
_MAX_BLOCKS = 16
_MAX_INDENT = 80


# ------------------------------------------------------------------ helpers

def _is_signed(ctype: CType) -> bool:
    return isinstance(ctype, IntType) and ctype.signed


def _mask(ctype: CType) -> int:
    return (1 << (ctype.size * 8)) - 1


def _trunc(ctype: CType, v: str) -> str:
    """Python expression truncating ``v`` like ``interp._truncate``."""
    if isinstance(ctype, PointerType):
        return f"(({v}) & {_WORD_MASK})"
    bits = ctype.size * 8
    if isinstance(ctype, IntType) and ctype.signed and bits > 0:
        half = 1 << (bits - 1)
        return f"((({v}) + {half} & {(1 << bits) - 1}) - {half})"
    return f"(({v}) & {(1 << bits) - 1})"


def _fit(ctype: CType, value: str) -> str:
    """``value`` converted to ``ctype``: a literal folded, a value
    already truncated to ``int`` kept as it is."""
    digits = value[2:-1] if value.startswith("(-") else value
    if digits.isdigit():
        return str(_truncate(int(value.strip("()")), ctype))
    if (ctype.size == 8 and _is_signed(ctype) and value.startswith("(((")
            and value.endswith(f" - {1 << 63})")):
        return value
    return _trunc(ctype, value)


def _declares(stmts) -> bool:
    """Whether running ``stmts`` puts a variable in memory in the scope
    around them: a VarDecl of a non-register not inside a further Block
    or For."""
    for s in stmts:
        if isinstance(s, ast.VarDecl) and not s.binding.register:
            return True
        if isinstance(s, ast.If) and _declares((s.then, s.orelse)):
            return True
        if isinstance(s, ast.While) and _declares((s.body,)):
            return True
    return False


def _written(node: ast.Node) -> ast.Expr | None:
    """The lvalue an assignment, ``++`` or ``--`` node writes."""
    if isinstance(node, (ast.Assign, ast.PostIncDec)):
        return node.target
    if isinstance(node, ast.UnOp) and node.op in ("++", "--"):
        return node.operand
    return None


_COMPARE = ("==", "!=", "<", ">", "<=", ">=")
_BITWISE = ("&", "|", "^")

#: prologue bindings a generated function makes, in this order, for the
#: names its body uses: the hooks are read when the function runs
_BINDINGS = (("sh", "rt.step_hook"), ("cr", "rt.check_runtime"),
             ("vh", "rt.var_hooks"), ("cap", "rt._ops_cap"),
             ("ld", "rt.load"), ("st", "rt.store"), ("G", "rt.globals"),
             ("mem", "rt.mem"))


class _GlobalSpec:
    """Everything the engine needs to materialize one global variable."""

    __slots__ = ("binding", "alloc_size", "store_size", "store_mask",
                 "init")

    def __init__(self, binding: Binding, init: Callable | None):
        self.binding = binding
        self.alloc_size = max(binding.ctype.size, 1)
        self.store_size = binding.ctype.size
        self.store_mask = _mask(binding.ctype)
        #: (engine, scopes, pending) -> (pending, value)
        self.init = init


class _ParamSpec:
    __slots__ = ("binding", "alloc_size", "store_size", "store_mask",
                 "half")

    def __init__(self, binding: Binding):
        ctype = binding.ctype
        self.binding = binding
        self.alloc_size = max(ctype.size, 1)
        self.store_size = ctype.size
        self.store_mask = _mask(ctype)
        #: a register's sign bit (0 when unsigned), which truncates the
        #: argument; None for a parameter in memory
        self.half = (None if not binding.register
                     else 1 << (ctype.size * 8 - 1) if _is_signed(ctype)
                     else 0)


class CompiledFunction:
    """One generated function: parameter specs, the Python function
    (engine, *params) -> result, where a parameter is a register's value
    or a variable's address, and its source text."""

    __slots__ = ("name", "line", "params", "fn", "source")

    #: set once generated
    fn: Callable[..., int]

    def __init__(self, name: str, line: int):
        self.name = name
        self.line = line
        self.params: list[_ParamSpec] = []
        self.source = ""


class CompiledProgram:
    """The generated form of one :class:`ast.Program` generation."""

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
    values: list[int] = []
    frame: list[tuple[int, int]] = []
    for spec, arg in zip(cf.params, args):
        half = spec.half
        if half is not None:
            values.append(((arg + half) & spec.store_mask) - half)
            continue
        addr = mem.alloc_stack(spec.alloc_size)
        frame.append((addr, spec.alloc_size))
        values.append(addr)
        value = arg & spec.store_mask
        if not rt.store(addr, value, spec.store_size):
            rt.store_slow(addr, value, spec.store_size)
        if vh is not None:
            vh.on_decl(spec.binding, addr,
                       f"{rt.filename}:{spec.binding.line}")
    try:
        return cf.fn(rt, *values)
    finally:
        rt.exit_scope(frame)


# ---------------------------------------------------------------- generation

class _Fn:
    """Emits one Python function: a C function, a global's initializer,
    or a statement or expression cut out of a deeply nested one (a
    *helper*, which takes and returns the pending count, and hands back
    the registers it writes).

    ``k`` is the generation-time tick count: ticks counted since ``p``
    was last brought up to date.  The true pending count is always
    ``p + k``; code that reads it (the op-limit test, a charge) reads
    that sum, so consecutive ticks cost nothing at run time.
    """

    def __init__(self, gen: "_Gen", *, helper: bool,
                 back: Sequence[str] = ()):
        self.gen = gen
        self.helper = helper
        #: the registers a helper hands back, after ``p`` and its result
        self.back = "".join(f", {r}" for r in back)
        self.lines: list[str] = []
        self.ind = 1 if helper else 2     # the body of a C function is
        self.blocks = 0 if helper else 1  # inside its scope-exit try
        self.k = 0
        #: ("scope",) | ("loop", step expr) | ("outline",), innermost last
        self.ctx: list[tuple] = [("outline",)] if helper else []
        self.uses: set[str] = set()
        #: how control left a helper: "break", "continue", "return"
        self.escapes: set[str] = set()

    # ---------------------------------------------------------- emission

    def emit(self, line: str) -> None:
        self.lines.append("    " * self.ind + line)

    def tmp(self) -> str:
        self.gen.n += 1
        return f"t{self.gen.n}"

    def name(self, expr: str) -> str:
        """``expr`` as a name or literal, so it can be used twice."""
        if expr.isidentifier() or expr.isdigit():
            return expr
        t = self.tmp()
        self.emit(f"{t} = {expr}")
        return t

    def pin(self, value: str) -> str:
        """``value`` in a temporary, unless it is one or a literal, so
        that a register write evaluated after it cannot change it."""
        if value.isdigit() or (value[0] == "t" and value[1:].isdigit()):
            return value
        t = self.tmp()
        self.emit(f"{t} = {value}")
        return t

    def give(self, value: str) -> None:
        """A helper's return: the pending count, ``value``, and the
        registers it hands back."""
        self.emit(f"return p, {value}{self.back}")

    # ---------------------------------------------------- pending ops

    def pend(self) -> str:
        return f"p + {self.k}" if self.k else "p"

    def charge(self) -> str:
        """Statement prefix handing the pending ops to ``rt.pending``.
        ``p`` is zeroed before anything that can raise, so an error never
        leaves ops to be charged twice."""
        return f"rt.pending = {self.pend()}; p = 0; "

    def restore(self) -> str:
        """Suffix after a conditional charge: ``k`` stays counted, so
        ``p`` must cancel it."""
        return f"; p = {-self.k}" if self.k else ""

    def sync(self, target: int = 0) -> None:
        """Add counted ticks to ``p`` until ``target`` remain counted."""
        d = self.k - target
        if d > 0:
            self.emit(f"p += {d}")
        elif d < 0:
            self.emit(f"p -= {-d}")
        self.k = target

    def flush(self, then: str) -> None:
        """A flush point: charge everything, then run ``then``."""
        self.emit(f"{self.charge()}{then}")
        self.k = 0

    def fail(self, msg: str, line: int) -> str:
        """Raise ``msg`` here (statically wrong code errors only when
        reached); the value of the unreachable rest is 0."""
        self.flush(f"raise CMinusError({msg!r}, {line})")
        return "0"

    def limit(self) -> None:
        """The ``ExecLimits`` test before a fast access: an over-limit
        flush raises, at the exact op."""
        self.uses.add("cap")
        head = "    " * self.ind + "if rt.ops_executed + "
        if self.lines and self.lines[-1].startswith(head):
            # nothing but ticks since the last test: this one covers it
            self.lines.pop()
        self.emit(f"if rt.ops_executed + {self.pend()} > cap: "
                  f"{self.charge()}rt.flush()")

    @staticmethod
    def test(value: str) -> str:
        """``value`` as a condition: a comparison needs no 0/1."""
        if value.endswith(" else 0)") and value.startswith("(1 if "):
            return value[6:-8]
        if value.endswith(" else 1)") and value.startswith("(0 if "):
            return f"not {value[6:-8]}"
        return value

    def too_deep(self) -> bool:
        return self.blocks >= _MAX_BLOCKS or self.ind >= _MAX_INDENT

    # ---------------------------------------------------- memory access

    def load(self, addr: str, ctype: CType, *, test: bool = True) -> str:
        size, signed = ctype.size, _is_signed(ctype)
        addr = self.name(addr)
        if test:
            self.limit()
        self.uses.add("ld")
        t = self.tmp()
        self.emit(f"{t} = ld({addr}, {size}, {signed})")
        self.emit(f"if {t} is None: {self.charge()}"
                  f"{t} = rt.load_slow({addr}, {size}, {signed})"
                  f"{self.restore()}")
        return t

    def store(self, addr: str, value: str, size: int) -> None:
        """Store the already-masked ``value`` (the limit test is the
        caller's)."""
        self.uses.add("st")
        self.emit(f"if not st({addr}, {value}, {size}): {self.charge()}"
                  f"rt.store_slow({addr}, {value}, {size}){self.restore()}")

    def via(self, addr: str, ctype: CType) -> tuple[str, CType]:
        """The value of the object at ``addr``: arrays decay."""
        if isinstance(ctype, ArrayType):
            return addr, ctype.decay()
        return self.load(addr, ctype), ctype

    # ------------------------------------------------------------- names

    def var(self, e: ast.Ident) -> tuple[str, CType] | None:
        """The Python name of ``e``'s variable, and its type: a register
        names its value, any other variable its address."""
        b = e.binding
        if b is None:
            return None
        if b.kind == "global":
            self.uses.add("G")
            return f"G[{b.index}]", b.ctype
        found = self.gen.local.get(b)
        return None if found is None else (found, b.ctype)

    def reg(self, e: ast.Expr) -> tuple[str, CType] | None:
        """The Python local and type of the register ``e`` names."""
        b = register_of(e)
        if b is None or b not in self.gen.local:
            return None
        return self.gen.local[b], b.ctype

    def set_reg(self, r: str, ctype: CType, value: str) -> None:
        """Assign the register ``r``, truncating like a store."""
        self.emit(f"{r} = {_fit(ctype, value)}")

    # ------------------------------------------------------- expressions

    def ev(self, e: ast.Expr) -> tuple[str, CType]:
        """Emit ``e``'s evaluation; returns its value as a Python name,
        literal or side-effect-free expression, and its static type."""
        if self.too_deep():
            return self.outline_expr(e)
        self.k += 1           # the tree-walker's tick at eval() entry
        method = getattr(self, f"ev_{type(e).__name__}", None)
        if method is None:
            return self.fail(f"cannot evaluate {type(e).__name__}",
                             e.line), INT
        return method(e)

    def ev_then(self, e: ast.Expr, *later: ast.Expr) -> tuple[str, CType]:
        """``ev(e)``, pinned when an operand evaluated after it writes a
        register its value may read."""
        value, ctype = self.ev(e)
        if any(self.gen.writes_register(x) for x in later):
            value = self.pin(value)
        return value, ctype

    def ev_IntLit(self, e: ast.IntLit) -> tuple[str, CType]:
        return (str(e.value) if e.value >= 0 else f"({e.value})"), INT

    def ev_StrLit(self, e: ast.StrLit) -> tuple[str, CType]:
        t = self.tmp()
        raw = e.value.encode() + b"\0"
        self.emit(f"{t} = rt.strings.get({id(e)})")
        self.emit(f"if {t} is None: {self.charge()}rt.flush(); "
                  f"{t} = rt.intern_string({id(e)}, {raw!r})"
                  f"{self.restore()}")
        return t, PointerType(CHAR)

    def ev_Ident(self, e: ast.Ident) -> tuple[str, CType]:
        found = self.var(e)
        if found is None:
            return self.fail(f"undefined variable '{e.name}'", e.line), INT
        if register_of(e) is not None:
            return found
        return self.via(*found)

    def ev_BinOp(self, e: ast.BinOp) -> tuple[str, CType]:
        if e.op in ("&&", "||"):
            left, _ = self.ev(e.left)
            t = self.tmp()
            left = self.test(left)
            self.emit(f"if {left}:" if e.op == "&&" else f"if not ({left}):")
            k0 = self.k
            self.ind += 1
            right, _ = self.ev(e.right)
            self.emit(f"{t} = 1 if {self.test(right)} else 0")
            self.sync(k0)
            self.ind -= 1
            self.emit(f"else: {t} = {0 if e.op == '&&' else 1}")
            return t, INT
        left, lt = self.ev_then(e.left, e.right)
        right, rtt = self.ev(e.right)
        return self.combine(e.op, left, lt, right, rtt, e.line)

    def combine(self, op: str, lv: str, lt: CType, rv: str, rtt: CType,
                line: int) -> tuple[str, CType]:
        """Mirror of ``Interpreter._binop`` for static operand types."""
        lv, rv = self.name(lv), self.name(rv)
        # pointee sizes, None for a non-pointer operand
        ls = lt.pointee.size if isinstance(lt, PointerType) else None
        rs = rtt.pointee.size if isinstance(rtt, PointerType) else None
        if op == "+":
            if ls is not None and rs is not None:
                return self.fail("cannot add two pointers", line), INT
            if ls is not None:
                return f"({lv} + {rv} * {ls} & {_WORD_MASK})", lt
            if rs is not None:
                return f"({rv} + {lv} * {rs} & {_WORD_MASK})", rtt
            return _trunc(INT, f"{lv} + {rv}"), INT
        if op == "-":
            if ls is not None and rs is not None:
                if ls != rs:
                    return self.fail("pointer subtraction type mismatch",
                                     line), INT
                return f"(({lv} - {rv}) // {max(ls, 1)})", INT
            if ls is not None:
                return f"({lv} - {rv} * {ls} & {_WORD_MASK})", lt
            return _trunc(INT, f"{lv} - {rv}"), INT
        if op in _COMPARE:
            return f"(1 if {lv} {op} {rv} else 0)", INT
        if ls is not None or rs is not None:
            return self.fail(f"invalid pointer operand to '{op}'", line), INT
        if op == "*" or op in _BITWISE:
            return _trunc(INT, f"{lv} {op} {rv}"), INT
        if op in ("/", "%"):
            if not rv.isdigit() or rv == "0":
                what = "division" if op == "/" else "modulo"
                self.emit(f"if {rv} == 0: {self.charge()}"
                          f"raise CMinusError('{what} by zero', {line})")
            fn = "c_div" if op == "/" else "c_mod"
            return _trunc(INT, f"{fn}({lv}, {rv})"), INT
        if op in ("<<", ">>"):
            return _trunc(INT, f"{lv} {op} ({rv} & 63)"), INT
        return self.fail(f"unknown operator '{op}'", line), INT

    def ev_UnOp(self, e: ast.UnOp) -> tuple[str, CType]:
        if e.op in ("++", "--"):
            found = self.reg(e.operand)
            if found is not None:
                r, ctype = found
                self.set_reg(r, ctype, f"{r} + {_step_by(ctype, e.op)}")
                return r, ctype
            addr, ctype = self.lv(e.operand)
            new = self.step(addr, ctype, e.op)[1]
            return _trunc(ctype, new), ctype
        v, _ = self.ev(e.operand)
        if e.op == "-":
            return _trunc(INT, f"-{v}"), INT
        if e.op == "!":
            return f"(0 if {v} else 1)", INT
        if e.op == "~":
            return _trunc(INT, f"~{v}"), INT
        return self.fail(f"unknown unary operator '{e.op}'", e.line), INT

    def step(self, addr: str, ctype: CType, op: str) -> tuple[str, str]:
        """``++``/``--`` on the object at ``addr``: (old, new) names."""
        old = self.load(addr, ctype)
        new = self.tmp()
        self.emit(f"{new} = {old} + {_step_by(ctype, op)} & {_mask(ctype)}")
        self.store(self.name(addr), new, ctype.size)
        return old, new

    def ev_PostIncDec(self, e: ast.PostIncDec) -> tuple[str, CType]:
        found = self.reg(e.target)
        if found is not None:
            r, ctype = found
            old = self.tmp()
            self.emit(f"{old} = {r}")
            self.set_reg(r, ctype, f"{old} + {_step_by(ctype, e.op)}")
            return old, ctype
        addr, ctype = self.lv(e.target)
        return self.step(addr, ctype, e.op)[0], ctype

    def ev_Deref(self, e: ast.Expr) -> tuple[str, CType]:
        return self.via(*self.lv(e))

    ev_Index = ev_Deref

    def ev_Member(self, e: ast.Member) -> tuple[str, CType]:
        addr, ctype = self.member_lv(e)
        if isinstance(ctype, StructType):
            return addr, PointerType(ctype)   # nested structs decay
        return self.via(addr, ctype)

    def ev_AddrOf(self, e: ast.AddrOf) -> tuple[str, CType]:
        addr, ctype = self.lv(e.target)
        if isinstance(ctype, ArrayType):
            return addr, PointerType(ctype.elem)
        return addr, PointerType(ctype)

    def ev_Assign(self, e: ast.Assign) -> tuple[str, CType]:
        found = self.reg(e.target)
        if found is not None:
            r, ctype = found
            value, vtype = self.ev(e.value)
            if e.op:
                value = self.combine(e.op, r, ctype, value, vtype, e.line)[0]
            self.set_reg(r, ctype, value)
            return r, ctype
        addr, ctype = self.lv(e.target)
        if isinstance(ctype, ArrayType):
            return self.fail("cannot assign to an array", e.line), ctype
        addr = self.name(addr)
        value, vtype = self.ev(e.value)
        mask = _mask(ctype)
        if e.op:
            old = self.load(addr, ctype)
            value = self.combine(e.op, old, ctype, value, vtype, e.line)[0]
            value = self.name(f"{value} & {mask}")
        else:
            value = self.name(f"{value} & {mask}")
            self.limit()
        self.store(addr, value, ctype.size)
        return _trunc(ctype, value), ctype

    def ev_Call(self, e: ast.Call) -> tuple[str, CType]:
        args = ", ".join(self.ev_then(a, *e.args[i + 1:])[0]
                         for i, a in enumerate(e.args))
        t = self.tmp()
        cf = self.gen.compiled.funcs.get(e.func)
        if cf is not None:
            self.flush(f"{t} = _invoke(rt, {self.gen.const(cf)}, [{args}])")
        else:
            self.flush(f"rt.flush(); {t} = rt.call_extern({e.func!r}"
                       f"{', ' if args else ''}{args})")
        return t, e.value_type

    def ev_SizeOf(self, e: ast.SizeOf) -> tuple[str, CType]:
        try:
            if e.ctype is not None:
                return str(e.ctype.size), INT
            assert e.expr is not None
            return str(static_type(e.expr).size), INT
        except CMinusError as exc:
            msg = exc.args[0]
            if exc.line:
                msg = msg.rsplit(" at line", 1)[0]
            return self.fail(msg, exc.line), INT

    # ----------------------------------------------------------- lvalues

    def lv(self, e: ast.Expr) -> tuple[str, CType]:
        """Emit ``e``'s address.  Mirrors ``Interpreter.lvalue``, which
        does not tick."""
        if isinstance(e, ast.Ident):
            found = self.var(e)
            if found is None:
                return self.fail(f"undefined variable '{e.name}'",
                                 e.line), INT
            if register_of(e) is not None:
                # no address: only ``.`` asks, and its type check fails
                return "0", found[1]
            return found
        if isinstance(e, ast.Deref):
            ptr, ptype = self.ev(e.ptr)
            if not isinstance(ptype, PointerType):
                return self.fail("dereference of non-pointer", e.line), INT
            return ptr, ptype.pointee
        if isinstance(e, ast.Index):
            base, btype = self.ev_then(e.base, e.index)
            idx, _ = self.ev(e.index)
            if not isinstance(btype, PointerType):
                return self.fail("indexing a non-pointer", e.line), INT
            return (f"({self.name(base)} + {self.name(idx)} * "
                    f"{btype.pointee.size})"), btype.pointee
        if isinstance(e, ast.Member):
            return self.member_lv(e)
        if isinstance(e, ast.Check):
            if isinstance(e.inner, ast.Index):
                return self.checked_index(e)
            addr, ctype = self.lv(e.inner)
            addr = self.name(addr)
            self.check_deref(e, addr)
            return addr, ctype
        return self.fail(f"{type(e).__name__} is not an lvalue", e.line), INT

    def member_lv(self, e: ast.Member) -> tuple[str, CType]:
        if e.arrow:
            base, btype = self.ev(e.base)
            if not (isinstance(btype, PointerType)
                    and isinstance(btype.pointee, StructType)):
                return self.fail("-> on a non-struct-pointer", e.line), INT
            struct = btype.pointee
        else:
            base, bt = self.lv(e.base)
            if not isinstance(bt, StructType):
                return self.fail(". on a non-struct value", e.line), INT
            struct = bt
        try:
            offset, ftype = struct.field(e.field_name)
        except KeyError as exc:
            return self.fail(str(exc), e.line), INT
        return (f"({self.name(base)} + {offset})" if offset else base), ftype

    # ------------------------------------------------------------ checks

    def check_call(self, node: ast.Check, call: str) -> None:
        """A check's runtime call: ``enabled`` is read live from the node,
        so dynamic deinstrumentation applies before the recompile."""
        self.uses.add("cr")
        self.emit(f"if {self.gen.const(node)}.enabled and cr is not None: "
                  f"{self.charge()}rt.flush(); {call}{self.restore()}")

    def check_deref(self, node: ast.Check, addr: str) -> None:
        self.check_call(node, f"cr.check_deref({addr}, {node.access_size}, "
                              f"{node.site!r})")

    def checked_index(self, node: ast.Check) -> tuple[str, CType]:
        """Mirror of ``Interpreter._checked_index_lvalue``: base and index
        are evaluated once, then checked with intended-referent
        semantics."""
        inner = node.inner
        base, btype = self.ev_then(inner.base, inner.index)
        idx, _ = self.ev(inner.index)
        if not isinstance(btype, PointerType):
            return self.fail("indexing a non-pointer", inner.line), INT
        base = self.name(base)
        addr = self.name(f"{base} + {self.name(idx)} * {btype.pointee.size}")
        self.check_call(node, f"cr.check_index({base}, {addr}, "
                              f"{node.access_size}, {node.site!r})")
        return addr, btype.pointee

    def ev_Check(self, e: ast.Check) -> tuple[str, CType]:
        if e.kind == "arith":
            return self.arith_check(e)
        if isinstance(e.inner, ast.Index):
            return self.via(*self.checked_index(e))
        addr, ctype = self.lv(e.inner)
        addr = self.name(addr)
        self.check_deref(e, addr)
        return self.via(addr, ctype)

    def arith_check(self, e: ast.Check) -> tuple[str, CType]:
        """Mirror of the tree-walker's arith check: the ``BinOp`` ticks
        and is evaluated once, and its pointer operand is the base."""
        inner = e.inner
        self.k += 1
        left, lt = self.ev_then(inner.left, inner.right)
        right, rtt = self.ev(inner.right)
        left, right = self.name(left), self.name(right)
        value, ctype = self.combine(inner.op, left, lt, right, rtt,
                                    inner.line)
        t = self.tmp()
        self.emit(f"{t} = {value}")
        base = left if isinstance(lt, PointerType) else right
        self.check_call(e, f"{t} = cr.check_arith({base}, {t}, {e.site!r})")
        return t, ctype

    # -------------------------------------------------------- statements

    def stmt(self, s: ast.Stmt) -> None:
        if self.too_deep() and isinstance(s, (ast.Block, ast.If, ast.While,
                                              ast.For)):
            self.outline_stmt(s)
            return
        self.stmt_tick()
        method = getattr(self, f"st_{type(s).__name__}", None)
        if method is None:
            self.fail(f"cannot execute {type(s).__name__}", s.line)
        else:
            method(s)

    def stmt_tick(self) -> None:
        """Every statement's tick, then ``step_hook`` on a charged clock
        once the ops pending since the last flush reach its budget."""
        self.k += 1
        self.uses.add("sh")
        self.emit(f"if sh is not None and {self.pend()} >= rt.budget: "
                  f"{self.charge()}rt.flush(); rt.budget = sh() or 0"
                  f"{self.restore()}")

    def open_scope(self) -> None:
        self.emit("S.append([])")
        self.ctx.append(("scope",))

    def close_scope(self) -> None:
        self.ctx.pop()
        self.exit_scopes(1)

    def exit_scopes(self, n: int) -> None:
        for _ in range(n):
            self.flush("rt.exit_scope(S.pop())")

    def st_Block(self, b: ast.Block) -> None:
        declaring = _declares(b.stmts)
        if declaring:
            self.open_scope()
        for s in b.stmts:
            self.stmt(s)
        if declaring:
            self.close_scope()

    def st_VarDecl(self, d: ast.VarDecl) -> None:
        ctype, b = d.ctype, d.binding
        self.gen.n += 1
        if b.register:
            r = self.gen.local[b] = f"r{self.gen.n}"
            if d.init is None or any(getattr(n, "binding", None) is b
                                     for n in ast.walk(d.init)):
                self.emit(f"{r} = 0")         # what ``int x = x;`` reads
            if d.init is not None:
                self.set_reg(r, ctype, self.ev(d.init)[0])
            return
        a = self.gen.local[b] = f"v{self.gen.n}"
        size = max(ctype.size, 1)
        self.uses.update(("vh", "mem"))
        self.flush(f"rt.flush(); {a} = mem.alloc_stack({size}); "
                   f"S[-1].append(({a}, {size}))")
        self.emit(f"if vh is not None: vh.on_decl({self.gen.const(b)}, {a}, "
                  f"rt.filename + ':{d.line}')")
        if d.init is None:
            self.emit(f"mem.write({a}, {bytes(size)!r})")
        elif isinstance(ctype, (ArrayType, StructType)):
            self.fail("array/struct initializers are not supported", d.line)
        else:
            value, _ = self.ev(d.init)
            value = self.name(f"{value} & {_mask(ctype)}")
            self.limit()
            self.store(a, value, ctype.size)

    def st_ExprStmt(self, s: ast.ExprStmt) -> None:
        self.ev(s.expr)

    def st_If(self, s: ast.If) -> None:
        cond, _ = self.ev(s.cond)
        k0 = self.k
        self.emit(f"if {self.test(cond)}:")
        self.ind += 1
        self.stmt(s.then)
        self.sync(k0)
        self.ind -= 1
        if s.orelse is not None:
            self.emit("else:")
            self.ind += 1
            self.stmt(s.orelse)
            self.sync(k0)
            self.ind -= 1

    def loop(self, cond: ast.Expr | None, body: ast.Stmt,
             step: ast.Expr | None) -> None:
        """``while True`` with the op-limit test at its head, so a loop
        without memory accesses still stops at the exact op."""
        self.sync()
        self.emit("while True:")
        self.ind += 1
        self.blocks += 1
        self.ctx.append(("loop", step))
        self.limit()
        if cond is not None:
            c, _ = self.ev(cond)
            self.emit(f"if not ({self.test(c)}): "
                      f"{f'p += {self.k}; ' if self.k else ''}break")
        self.stmt(body)
        if step is not None:
            self.ev(step)
        self.sync()
        self.ctx.pop()
        self.ind -= 1
        self.blocks -= 1

    def st_While(self, s: ast.While) -> None:
        self.loop(s.cond, s.body, None)

    def st_For(self, s: ast.For) -> None:
        declaring = _declares((s.init, s.body))
        if declaring:
            self.open_scope()
        if s.init is not None:
            self.stmt(s.init)
        self.loop(s.cond, s.body, s.step)
        if declaring:
            self.close_scope()

    def st_Return(self, s: ast.Return) -> None:
        value = self.ev(s.value)[0] if s.value is not None else "0"
        self.ret(value)

    def ret(self, value: str) -> None:
        """Return; the function's ``finally`` exits the open scopes.  A
        helper hands the value back as it is, and the C function converts
        it to its return type."""
        self.sync()
        if self.helper:
            self.escapes.add("return")
            self.give(value)
            return
        ret_type = self.gen.ret_type
        if isinstance(ret_type, (IntType, PointerType)):
            value = _fit(ret_type, value)
        self.emit(f"return {value}")

    def st_Break(self, s: ast.Break) -> None:
        self.jump("break")

    def st_Continue(self, s: ast.Continue) -> None:
        self.jump("continue")

    def jump(self, kind: str) -> None:
        """Exit the scopes inside the target loop, then jump; ``continue``
        in a ``for`` runs the step first."""
        exits = 0
        for entry in reversed(self.ctx):
            if entry[0] == "scope":
                exits += 1
                continue
            self.exit_scopes(exits)
            if entry[0] == "loop":
                if kind == "continue" and entry[1] is not None:
                    self.ev(entry[1])
                self.sync()
                self.emit(kind)
            else:
                self.sync()
                self.escapes.add(kind)
                self.give("_BRK" if kind == "break" else "_CONT")
            return
        self.flush(f"raise {'_Break' if kind == 'break' else '_Continue'}()")

    # ---------------------------------------------------------- outlining

    def helper_call(self, node: ast.Node, build: Callable[["_Fn"], None]
                    ) -> tuple[str, "_Fn"]:
        """Move ``node``'s code into a helper function ``(rt, S, p,
        *locals) -> (p, result, *registers)``; returns the result's name.
        The helper takes the Python locals of the C variables ``node``
        uses and hands back the registers it writes.  Keeps deep C
        nesting inside CPython's per-function limits."""
        used, written = self.gen.free_vars(node)
        fn = _Fn(self.gen, helper=True, back=written)
        build(fn)
        name = self.gen.helper(fn, used)
        t = self.tmp()
        args = "".join(f", {a}" for a in used)
        # the helper takes over the pending count; zeroed here first, so
        # an error in it is never charged twice
        self.emit(f"q = {self.pend()}; p = 0; "
                  f"p, {t}{fn.back} = {name}(rt, S, q{args})")
        self.k = 0
        return t, fn

    def outline_expr(self, e: ast.Expr) -> tuple[str, CType]:
        typed: list[CType] = []

        def build(fn: _Fn) -> None:
            value, ctype = fn.ev(e)
            typed.append(ctype)
            fn.sync()
            fn.give(value)

        t, _ = self.helper_call(e, build)
        return t, typed[0]

    def outline_stmt(self, s: ast.Stmt) -> None:
        def build(fn: _Fn) -> None:
            fn.stmt(s)
            fn.sync()
            fn.give("None")

        t, fn = self.helper_call(s, build)
        if not fn.escapes:
            return
        self.emit(f"if {t} is not None:")
        self.ind += 1
        for kind, marker in (("break", "_BRK"), ("continue", "_CONT")):
            if kind in fn.escapes:
                self.emit(f"if {t} is {marker}:")
                self.ind += 1
                self.jump(kind)
                self.ind -= 1
        if "return" in fn.escapes:
            self.ret(t)
        self.ind -= 1
        self.k = 0


class _Gen:
    """Generates and ``exec``s the Python source of one program."""

    def __init__(self, compiled: CompiledProgram, filename: str):
        self.compiled = compiled
        self.label = (f"cminus:{filename}" if filename != "<cminus>"
                      else "cminus")
        #: the generated code's globals, shared by all its functions
        self.ns: dict[str, Any] = {
            "CMinusError": CMinusError, "_invoke": _invoke,
            "_Break": _Break, "_Continue": _Continue,
            "_BRK": _BRK, "_CONT": _CONT, "c_div": c_div, "c_mod": c_mod}
        self._consts: dict[int, str] = {}
        #: a local or parameter -> its Python local: ``r<n>`` holds a
        #: register's value, ``v<n>`` a memory variable's address
        self.local: dict[Binding, str] = {}
        #: the return type of the C function being generated
        self.ret_type: CType = INT
        self.n = 0                  # name counter: t<n>, r<n>, v<n>, _h<n>
        self._helpers: list[str] = []
        self._writes: dict[int, bool] = {}

    def const(self, obj: Any) -> str:
        """A name for ``obj`` in the generated code's globals."""
        name = self._consts.get(id(obj))
        if name is None:
            name = f"K{len(self._consts)}"
            self._consts[id(obj)] = name
            self.ns[name] = obj
        return name

    def writes_register(self, e: ast.Expr) -> bool:
        """Whether evaluating ``e`` may assign a register."""
        found = self._writes.get(id(e))
        if found is None:
            found = self._writes[id(e)] = any(
                register_of(_written(n)) is not None for n in ast.walk(e))
        return found

    def free_vars(self, node: ast.Node) -> tuple[list[str], list[str]]:
        """The Python locals of the C variables declared outside ``node``
        that it uses, and of those the registers it writes."""
        used: dict[str, None] = {}
        written: set[str] = set()
        for n in ast.walk(node):
            b = n.binding if isinstance(n, ast.Ident) else None
            if b is not None and b in self.local:
                used[self.local[b]] = None
            b = register_of(_written(n))
            if b is not None and b in self.local:
                written.add(self.local[b])
        return list(used), [a for a in used if a in written]

    @staticmethod
    def _text(name: str, params: list[str], fn: _Fn, body: list[str]
              ) -> str:
        lines = [f"def {name}({', '.join(params)}):"]
        lines += [f"    {n} = {expr}" for n, expr in _BINDINGS
                  if n in fn.uses]
        return "\n".join(lines + body) + "\n"

    def helper(self, fn: _Fn, params: list[str]) -> str:
        self.n += 1
        name = f"_h{self.n}"
        self._helpers.append(self._text(name, ["rt", "S", "p"] + params,
                                        fn, fn.lines))
        return name

    def _exec(self, source: str, what: str, name: str) -> Callable:
        exec(compile(source, f"<{self.label}:{what}>", "exec"), self.ns)
        return self.ns[name]

    def function(self, cf: CompiledFunction, fdef: ast.FuncDef) -> None:
        args = []
        for param in fdef.params:
            b = param.binding
            self.n += 1
            args.append(f"{'r' if b.register else 'v'}{self.n}")
            self.local[b] = args[-1]
            cf.params.append(_ParamSpec(b))
        self.ret_type = fdef.ret_type
        fn = _Fn(self, helper=False)
        fn.stmt_tick()
        fn.st_Block(fdef.body)
        fn.sync()
        fn.emit("return 0")
        name = f"_c_{cf.name}"
        body = (["    p = 0", "    S = []", "    try:"] + fn.lines
                + ["    finally:", "        rt.pending += p",
                   "        while S:", "            rt.exit_scope(S.pop())"])
        cf.source = "".join(self._helpers) + self._text(
            name, ["rt"] + args, fn, body)
        self._helpers = []
        cf.fn = self._exec(cf.source, cf.name, name)

    def global_init(self, init: ast.Expr, what: str, index: int
                    ) -> Callable:
        fn = _Fn(self, helper=True)
        value, _ = fn.ev(init)
        fn.sync()
        fn.give(value)
        name = f"_g{index}"
        source = "".join(self._helpers) + self._text(
            name, ["rt", "S", "p"], fn, fn.lines)
        self._helpers = []
        return self._exec(source, what, name)


def compile_program(program: ast.Program,
                    filename: str = "<cminus>") -> CompiledProgram:
    """Generate ``program`` (at its current generation) as Python."""
    resolve(program)
    compiled = CompiledProgram(program)
    gen = _Gen(compiled, filename)
    # function shells first, so calls can name them before they exist
    for name, fdef in program.funcs.items():
        compiled.funcs[name] = CompiledFunction(name, fdef.line)
    for decl in program.globals:
        init = (gen.global_init(decl.init, decl.name, decl.binding.index)
                if decl.init is not None else None)
        compiled.globals_spec.append(_GlobalSpec(decl.binding, init))
    for name, fdef in program.funcs.items():
        gen.function(compiled.funcs[name], fdef)
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

    def lookup(self, program: ast.Program,
               filename: str = "<cminus>") -> CompiledProgram:
        """The compiled code of ``program``'s current generation.  On a
        miss ``filename`` labels the generated code objects; it is not
        part of the key."""
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
        compiled = compile_program(program, filename)
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
    """Drop-in replacement for :class:`Interpreter` over generated code.

    Same constructor surface, with these differences:

    * ``on_op_batch(n)`` is called once per flush with the batched op
      count, where the tree-walker calls it with 1 per op;
    * ``step_hook()`` may return a budget, kept in ``budget``: the hook
      is next called at the first statement by which that many ops have
      run since the flush before it, or at the first statement after
      any other flush.  A hook that returns ``n`` must have nothing to
      do while fewer than ``n`` op ticks, and nothing else, have moved
      the clock since it returned; ``None``, ``False`` or 0 keeps it at
      every statement;
    * ``cache`` — a :class:`CodeCache`; compilation is skipped on a hit
      and the generation is re-validated on every :meth:`call`, so code
      invalidated by KGCC rewrites is recompiled before it can run.
    """

    def __init__(self, program: ast.Program, mem: MemoryAccess, *,
                 externs: dict[str, Callable] | None = None,
                 on_op_batch: Callable[[int], None] | None = None,
                 step_hook: Callable[[], int | None] | None = None,
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
        self.step_hook = step_hook
        self.check_runtime = check_runtime
        self.var_hooks = var_hooks
        self.limits = limits or ExecLimits()
        self.max_ops = self.limits.max_ops
        # generated code compares against a numeric cap, so the unlimited
        # case costs one comparison, not an extra None test
        self._ops_cap = (self.max_ops if self.max_ops is not None
                         else float("inf"))
        self.filename = filename
        self.pending = 0
        self.ops_executed = 0
        #: ops that may run past the last flush before ``step_hook``
        #: must be called again; every flush zeroes it
        self.budget = 0
        # the backend's scalar fast path, bound once (see MemoryAccess)
        self.load = mem.try_read_int
        self.store = mem.try_write_int
        self.strings: dict[int, int] = {}
        self._cache = cache
        self._tracer = tracer
        self._on_op_batch = on_op_batch
        if compiled is None:
            compiled = (cache.lookup(program, filename) if cache is not None
                        else compile_program(program, filename))
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

        Every call zeroes the ``step_hook`` budget, even with nothing
        pending: a flush precedes everything but an op tick that can
        charge or read the clock, so the next statement calls the hook.
        """
        self.budget = 0
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

    def exit_scope(self, allocs: list[tuple[int, int]]) -> None:
        """Leave a C block: charge the pending ops, then run the var hooks
        and pop its stack slots, innermost first.  The hooks and pops run
        even when the charge trips the op limit, as in the tree-walker,
        where the limit raises inside the block."""
        try:
            self.flush()
        finally:
            if allocs:
                vh = self.var_hooks
                if vh is not None:
                    vh.on_scope_exit([a for a, _ in allocs])
                free = self.mem.free_stack
                for addr, size in reversed(allocs):
                    free(addr, size)

    def intern_string(self, key: int, raw: bytes) -> int:
        """Place a string literal in memory on its first evaluation."""
        addr = self.mem.malloc(len(raw))
        self.mem.write(addr, raw)
        self.strings[key] = addr
        return addr

    def call_extern(self, name: str, *args: int) -> int:
        ext = self.externs.get(name)
        if ext is None:
            raise CMinusError(f"undefined function '{name}'", 0)
        result = ext(*args)
        return int(result) if result is not None else 0

    # --------------------------------------------------------------- plumbing

    def _init_globals(self) -> None:
        for spec in self._compiled.globals_spec:
            self.flush()    # the last initialiser's store may have hit
            addr = self.mem.malloc(spec.alloc_size)
            self.globals[spec.binding.index] = addr
            if self.var_hooks is not None:
                self.var_hooks.on_decl(spec.binding, addr,
                                       f"{self.filename}:{spec.binding.line}")
            if spec.init is not None:
                self.pending, value = spec.init(self, [], 0)
                value &= spec.store_mask
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
        compiled = (cache.lookup(self.program, self.filename)
                    if cache is not None
                    else compile_program(self.program, self.filename))
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
            return self.call_extern(name, *args)
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
