"""AST node definitions.

Nodes carry their source position (``line``) so KGCC diagnostics and check
sites can report ``file:line`` like the paper's tools.  ``Check`` nodes are
not produced by the parser — the KGCC instrumentation pass (§3.4) wraps
pointer operations in them, and its optimization passes remove them again;
each carries a stable ``site`` id used for check counting and dynamic
deinstrumentation.

Side fields are set by :func:`repro.cminus.resolve.resolve` and ignored
by node equality and the program fingerprint.  ``Ident``, ``VarDecl``
and ``Param`` carry ``binding``: the declaration the name denotes (None
for an ``Ident`` that names no declaration).  ``Call`` carries
``value_type``: its callee's return type when that is an integer or a
pointer, else ``int`` (a ``void`` or struct return, an extern).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional

from repro.cminus.ctypes import INT, CType

if TYPE_CHECKING:  # pragma: no cover
    from repro.cminus.resolve import Binding


def _side(default: Any = None) -> Any:
    """A side field: set by the resolver, not compared."""
    return field(default=default, compare=False, repr=False)


@dataclass
class Node:
    line: int = 0


# ----------------------------------------------------------------- expressions

@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int = 0


@dataclass
class StrLit(Expr):
    value: str = ""


@dataclass
class Ident(Expr):
    name: str = ""
    binding: Optional[Binding] = _side()


@dataclass
class BinOp(Expr):
    op: str = "+"
    left: Expr = None
    right: Expr = None


@dataclass
class UnOp(Expr):
    op: str = "-"          # one of - ! ~ ++ -- (prefix)
    operand: Expr = None


@dataclass
class Deref(Expr):
    """``*ptr``"""
    ptr: Expr = None


@dataclass
class AddrOf(Expr):
    """``&lvalue``"""
    target: Expr = None


@dataclass
class Index(Expr):
    """``base[index]``"""
    base: Expr = None
    index: Expr = None


@dataclass
class Member(Expr):
    """``base.field`` (arrow=False) or ``base->field`` (arrow=True)."""
    base: Expr = None
    field_name: str = ""
    arrow: bool = False


@dataclass
class Call(Expr):
    func: str = ""
    args: list[Expr] = field(default_factory=list)
    value_type: CType = _side(INT)


@dataclass
class Assign(Expr):
    """``target op= value`` where op may be empty (plain assignment)."""
    target: Expr = None
    value: Expr = None
    op: str = ""            # "", "+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>"


@dataclass
class PostIncDec(Expr):
    target: Expr = None
    op: str = "++"


@dataclass
class SizeOf(Expr):
    ctype: Optional[CType] = None
    expr: Optional[Expr] = None


@dataclass
class Check(Expr):
    """KGCC-inserted runtime check wrapping ``inner`` (§3.4).

    kind is ``'deref'`` (validate an about-to-be-accessed address) or
    ``'arith'`` (validate the result of pointer arithmetic, possibly
    creating an out-of-bounds *peer* object).
    """
    kind: str = "deref"
    inner: Expr = None
    access_size: int = 1
    site: str = "?"
    enabled: bool = True


# ------------------------------------------------------------------ statements

@dataclass
class Stmt(Node):
    pass


@dataclass
class VarDecl(Stmt):
    name: str = ""
    ctype: CType = None
    init: Optional[Expr] = None
    binding: Binding = _side()


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class ExprStmt(Stmt):
    expr: Expr = None


@dataclass
class If(Stmt):
    cond: Expr = None
    then: Stmt = None
    orelse: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Expr = None
    body: Stmt = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Expr] = None
    body: Stmt = None


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ------------------------------------------------------------------ top level

@dataclass
class Param(Node):
    name: str = ""
    ctype: CType = None
    binding: Binding = _side()


@dataclass
class FuncDef(Node):
    name: str = ""
    ret_type: CType = None
    params: list[Param] = field(default_factory=list)
    body: Block = None


@dataclass
class Program(Node):
    funcs: dict[str, FuncDef] = field(default_factory=dict)
    globals: list[VarDecl] = field(default_factory=list)
    structs: dict[str, CType] = field(default_factory=dict)  # tag -> StructType


def walk(node):
    """Yield ``node`` and all AST descendants (generic traversal)."""
    if node is None:
        return
    yield node
    for f in vars(node).values():
        if isinstance(f, Node):
            yield from walk(f)
        elif isinstance(f, list):
            for item in f:
                if isinstance(item, Node):
                    yield from walk(item)
        elif isinstance(f, dict):
            for item in f.values():
                if isinstance(item, Node):
                    yield from walk(item)
