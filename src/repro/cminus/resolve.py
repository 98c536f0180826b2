"""Scope resolution: bind every identifier to its declaration, once.

C scoping is lexical, so which declaration an identifier names is a
static fact.  :func:`resolve` walks a program once per instrumentation
generation and gives every global, parameter and ``VarDecl`` one
:class:`Binding`; every ``Ident``, ``Param`` and ``VarDecl`` node carries
its binding in the side field ``binding``, which node equality and
``program_fingerprint`` ignore.  Scopes follow C: a block, a ``for``
statement and the body of an ``if``, ``else``, ``while`` or ``for`` each
open one; a function's parameters and its body share one; a declaration
is visible from its own initializer on (``int x = x;`` reads the new
``x``); a global initializer sees the globals declared before it and
itself, and functions see every global.

Each binding's facts are computed once, for every consumer:

* ``addr_taken`` -- the variable is the storage root of an ``&``
  operand (looking through the ``Index`` of an array, a ``.`` member and
  a KGCC ``Check``), or it has a member array or nested struct that
  decays to its address;
* ``passed`` -- the bare identifier is a call argument;
* ``register`` -- an integer or pointer local or parameter whose
  address is never taken.  Its value can only change by assignment to
  its own name, so both engines keep it out of simulated memory, as gcc
  keeps such a variable in a machine register, and KGCC registers no
  object for it (§3.4: "KGCC does not check stack objects whose
  addresses are not taken").  A pointer register's value is still
  checked wherever it is dereferenced.

Each binding also records its ``scope`` path, so a consumer can tell
whether one declaration's lifetime encloses another's.  :func:`type_of`
types an expression from its bindings, the one way ``sizeof``, KGCC and
the load-time verifier all type expressions.

Both engines read the bindings, so both are lexically scoped.  KGCC
reads them to decide which objects it registers, how wide each check is
and which checks it may remove; the load-time verifier keys its
abstract state, its init facts and its loop proofs by binding.
"""

from __future__ import annotations

from repro.cminus import ast_nodes as ast
from repro.cminus.ctypes import (ArrayType, CHAR, CType, INT, IntType,
                                 PointerType, StructType)
from repro.errors import CMinusError

_GEN_ATTR = "_cminus_generation"
_RES_ATTR = "_cminus_resolution"


def generation_of(program: ast.Program) -> int:
    """The program's instrumentation generation (0 for a fresh parse)."""
    return getattr(program, _GEN_ATTR, 0)


def bump_generation(program: ast.Program) -> int:
    """Record that ``program``'s AST was mutated (instrumentation added or
    removed, a function hot-patched, checks toggled).  Its resolution and
    any compiled code for earlier generations become stale and are
    rebuilt on their next use."""
    gen = generation_of(program) + 1
    setattr(program, _GEN_ATTR, gen)
    return gen


class Binding:
    """One declaration: a global, a parameter or a local ``VarDecl``."""

    __slots__ = ("name", "ctype", "kind", "line", "index", "scope",
                 "addr_taken", "passed", "register")

    def __init__(self, name: str, ctype: CType, line: int):
        self.name = name
        self.ctype = ctype
        self.line = line
        #: "global", "param" or "local"
        self.kind = "local"
        #: a global's position in ``Program.globals``
        self.index = -1
        #: the ordinals of the scopes enclosing the declaration, from its
        #: function's top scope (``()``: a parameter, the top-level body
        #: or a global); one scope lies inside another when its path
        #: starts with the other's
        self.scope: tuple[int, ...] = ()
        self.addr_taken = False
        self.passed = False
        #: an ``int``, ``char``, ``long`` or pointer local or parameter
        #: whose address is never taken: it lives outside simulated
        #: memory, and KGCC registers no object for it
        self.register = False

    def __repr__(self) -> str:
        return f"Binding({self.kind} {self.ctype!r} {self.name}@{self.line})"


def resolve(program: ast.Program) -> dict[str, list[Binding]]:
    """Bind ``program``'s identifiers (cached per generation).  Returns
    each function's bindings: its parameters, then its locals, in
    declaration order; a global's binding is on its ``VarDecl``."""
    gen = generation_of(program)
    cached = getattr(program, _RES_ATTR, None)
    if cached is not None and cached[0] == gen:
        return cached[1]
    funcs = _Resolver().run(program)
    setattr(program, _RES_ATTR, (gen, funcs))
    return funcs


def type_of(expr: ast.Expr) -> CType | None:
    """``expr``'s static type, without evaluating it (None when it has
    none), looking through KGCC checks.  Arrays decay only in pointer
    arithmetic, which has the pointer's type; ``=``, ``op=``, ``++`` and
    ``--`` have their target's type; a call has its ``value_type``; every
    other operator is ``int``."""
    expr = strip_checks(expr)
    if isinstance(expr, ast.StrLit):
        return PointerType(CHAR)
    if isinstance(expr, ast.Ident):
        return expr.binding.ctype if expr.binding is not None else None
    if isinstance(expr, (ast.Deref, ast.Index)):
        inner = type_of(expr.ptr if isinstance(expr, ast.Deref)
                        else expr.base)
        if isinstance(inner, PointerType):
            return inner.pointee
        return inner.elem if isinstance(inner, ArrayType) else None
    if isinstance(expr, ast.AddrOf):
        inner = type_of(expr.target)
        return PointerType(inner) if inner is not None else None
    if isinstance(expr, ast.Member):
        base = type_of(expr.base)
        struct = base.pointee if isinstance(base, PointerType) else base
        if isinstance(struct, StructType):
            try:
                return struct.field(expr.field_name)[1]
            except KeyError:
                return None
        return None
    if isinstance(expr, ast.BinOp) and expr.op in ("+", "-"):
        left, right = (_decay(type_of(expr.left)),
                       _decay(type_of(expr.right)))
        if isinstance(left, PointerType) and not isinstance(
                right, PointerType):
            return left                  # p + n, p - n
        if expr.op == "+" and isinstance(right, PointerType) \
                and not isinstance(left, PointerType):
            return right                 # n + p
        return INT                       # p - q and integers
    if isinstance(expr, (ast.Assign, ast.PostIncDec)):
        return type_of(expr.target)
    if isinstance(expr, ast.UnOp) and expr.op in ("++", "--"):
        return type_of(expr.operand)
    if isinstance(expr, ast.Call):
        return expr.value_type
    return INT


def _decay(ctype: CType | None) -> CType | None:
    return ctype.decay() if isinstance(ctype, ArrayType) else ctype


def static_type(expr: ast.Expr) -> CType:
    """The type ``sizeof`` sees for ``expr``: :func:`type_of`, raising
    :class:`CMinusError` for an expression with no type."""
    t = type_of(expr)
    if t is None:
        for node in ast.walk(expr):
            if isinstance(node, ast.Ident) and node.binding is None:
                raise CMinusError(f"undefined variable '{node.name}'",
                                  node.line)
        raise CMinusError("sizeof: expression has no type", expr.line)
    return t


def register_of(expr: ast.Expr | None) -> Binding | None:
    """``expr``'s binding when ``expr`` names a register."""
    b = getattr(expr, "binding", None)
    return b if b is not None and b.register else None


def strip_checks(expr: ast.Expr) -> ast.Expr:
    """``expr`` without the KGCC checks wrapped around it."""
    while isinstance(expr, ast.Check):
        expr = expr.inner
    return expr


def storage_root(expr: ast.Expr) -> Binding | None:
    """The variable whose storage the lvalue ``expr`` lies in, if any:
    ``x``, ``x.f``, ``a[i]`` of an array ``a``, through KGCC checks."""
    while True:
        expr = strip_checks(expr)
        if isinstance(expr, ast.Member) and not expr.arrow:
            expr = expr.base
        elif (isinstance(expr, ast.Index) and isinstance(
                type_of(strip_checks(expr.base)), ArrayType)):
            expr = expr.base
        elif isinstance(expr, ast.Ident):
            return expr.binding
        else:
            return None


class _Resolver:
    def __init__(self) -> None:
        self.scopes: list[dict[str, Binding]] = []
        self.bindings: list[Binding] = []
        #: the open scopes' ordinals, and the last ordinal handed out, in
        #: the current function
        self.path: list[int] = []
        self.ordinals = 0
        #: off inside ``sizeof``, which evaluates nothing
        self.facts = True
        #: the program's functions, which type the calls
        self.funcs: dict[str, ast.FuncDef] = {}

    def run(self, program: ast.Program) -> dict[str, list[Binding]]:
        funcs: dict[str, list[Binding]] = {}
        self.funcs = program.funcs
        glob: dict[str, Binding] = {}
        self.scopes = [glob]
        for i, decl in enumerate(program.globals):
            self.declare(decl, "global", i)
            self.expr(decl.init)
        for name, fdef in program.funcs.items():
            self.bindings = []
            self.scopes = [glob, {}]
            self.path, self.ordinals = [], 0
            for param in fdef.params:
                self.declare(param, "param")
            for s in fdef.body.stmts:
                self.stmt(s)
            funcs[name] = self.bindings
        for bindings in funcs.values():
            for b in bindings:
                b.register = (isinstance(b.ctype, (IntType, PointerType))
                              and not b.addr_taken)
        return funcs

    def declare(self, decl, kind: str, index: int = -1) -> Binding:
        """The declaration's binding, kept across generations so frames
        keyed by it survive a re-resolution; its facts start afresh."""
        b = decl.binding
        if b is None:
            b = decl.binding = Binding(decl.name, decl.ctype, decl.line)
        b.kind, b.index, b.scope = kind, index, tuple(self.path)
        b.addr_taken = b.passed = False
        self.scopes[-1][decl.name] = b
        if kind != "global":
            self.bindings.append(b)
        return b

    def lookup(self, name: str) -> Binding | None:
        for scope in reversed(self.scopes):
            b = scope.get(name)
            if b is not None:
                return b
        return None

    # ---------------------------------------------------------- statements

    def stmt(self, s: ast.Stmt | None) -> None:
        if isinstance(s, ast.Block):
            self.scoped(*s.stmts)
        elif isinstance(s, ast.VarDecl):
            self.declare(s, "local")
            self.expr(s.init)
        elif isinstance(s, ast.ExprStmt):
            self.expr(s.expr)
        elif isinstance(s, ast.If):
            self.expr(s.cond)
            self.scoped(s.then)
            self.scoped(s.orelse)
        elif isinstance(s, ast.While):
            self.expr(s.cond)
            self.scoped(s.body)
        elif isinstance(s, ast.For):
            self.open()
            self.stmt(s.init)
            self.expr(s.cond)
            self.expr(s.step)
            self.scoped(s.body)
            self.close()
        elif isinstance(s, ast.Return):
            self.expr(s.value)

    def scoped(self, *stmts: ast.Stmt | None) -> None:
        """``stmts`` in a new scope: a block's, or a sub-statement's."""
        self.open()
        for s in stmts:
            self.stmt(s)
        self.close()

    def open(self) -> None:
        self.scopes.append({})
        self.ordinals += 1
        self.path.append(self.ordinals)

    def close(self) -> None:
        self.scopes.pop()
        self.path.pop()

    # --------------------------------------------------------- expressions

    def expr(self, e: ast.Expr | None) -> None:
        if e is None:
            return
        if isinstance(e, ast.Ident):
            e.binding = self.lookup(e.name)
            return
        if isinstance(e, ast.SizeOf):
            facts, self.facts = self.facts, False
            self.expr(e.expr)
            self.facts = facts
            return
        if isinstance(e, ast.Call):
            fdef = self.funcs.get(e.func)
            ret = fdef.ret_type if fdef is not None else INT
            e.value_type = (ret if isinstance(ret, (IntType, PointerType))
                            else INT)
        for value in vars(e).values():
            if isinstance(value, ast.Expr):
                self.expr(value)
            elif isinstance(value, list):
                for item in value:
                    self.expr(item)
        if not self.facts:
            return
        if isinstance(e, ast.AddrOf):
            self.take(e.target)
        elif isinstance(e, ast.Member):
            # a member array or nested struct decays to its address
            if not e.arrow and isinstance(type_of(e),
                                          (ArrayType, StructType)):
                self.take(e)
        elif isinstance(e, ast.Call):
            for arg in e.args:
                arg = strip_checks(arg)
                if isinstance(arg, ast.Ident) and arg.binding is not None:
                    arg.binding.passed = True

    @staticmethod
    def take(lvalue: ast.Expr) -> None:
        b = storage_root(lvalue)
        if b is not None:
            b.addr_taken = True
