"""Definite-initialization dataflow pass.

Forward must-analysis over the CFG: a variable is *definitely initialized*
at a point if every path from the entry assigns it first.  The verifier
uses the result two ways:

* dereferencing a pointer that is **definitely uninitialized** is a
  load-time ``REJECT`` (the access can never be valid);
* dereferencing a **maybe-uninitialized** pointer is unprovable, so its
  runtime check must stay.

Variables are the scope resolver's bindings (:mod:`repro.cminus.resolve`;
the program must be resolved), so a declaration in an inner block never
stands in for the one it shadows.  Parameters and globals count as
initialized (the caller/loader supplies them).  Arrays and structs are
storage, not scalars — indexing an uninitialized array is fine (the
*elements* are garbage ints, which the interval domain already treats as
TOP), so only scalar ``int``/pointer locals participate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.cminus import ast_nodes as ast
from repro.cminus.ctypes import ArrayType, StructType
from repro.cminus.resolve import Binding, storage_root, strip_checks
from repro.safety.verifier.cfg import CFG, CondJump, Ret


class InitState(enum.Enum):
    UNINIT = "uninitialized"       # declared, never assigned on any path
    MAYBE = "maybe-uninitialized"  # assigned on some paths only
    INIT = "initialized"           # assigned on every path

    def join(self, other: "InitState") -> "InitState":
        if self is other:
            return self
        return InitState.MAYBE


@dataclass
class InitFacts:
    """Per-function result: the init state of every scalar local at every
    block entry."""

    entry_states: dict[int, dict[Binding, InitState]] = field(
        default_factory=dict)

    def state_at(self, bid: int, binding: Binding) -> InitState:
        return self.entry_states.get(bid, {}).get(binding, InitState.INIT)


def _scalar_local(b: Binding) -> bool:
    return b.kind == "local" and not isinstance(b.ctype,
                                                (ArrayType, StructType))


def _assigned(expr: ast.Expr | None) -> set[Binding]:
    """Scalar locals directly assigned anywhere inside ``expr``.

    ``&x`` counts as an assignment of ``x``: the verifier's REJECT needs
    "definitely uninitialized on every path", and once ``&x`` escapes
    some alias may have initialized ``x``, so for that query marking it
    assigned is the conservative direction.  The NEEDS_CHECKS direction
    (maybe-uninitialized) errs toward keeping runtime checks, which is
    also sound.
    """
    out: set[Binding] = set()
    if expr is None:
        return out
    for node in ast.walk(expr):
        b: Binding | None = None
        if isinstance(node, (ast.Assign, ast.PostIncDec)):
            b = getattr(strip_checks(node.target), "binding", None)
        elif isinstance(node, ast.UnOp) and node.op in ("++", "--"):
            b = getattr(strip_checks(node.operand), "binding", None)
        elif isinstance(node, ast.AddrOf):
            b = storage_root(node.target)
        if b is not None and _scalar_local(b):
            out.add(b)
    return out


def advance_expr(state: dict[Binding, InitState],
                 expr: ast.Expr | None) -> None:
    """Update ``state`` in place for one evaluated expression."""
    for b in _assigned(expr):
        state[b] = InitState.INIT


def advance(state: dict[Binding, InitState], stmt: ast.Stmt) -> None:
    """Update ``state`` in place for one straight-line statement.

    This is the single-statement transfer of the dataflow below; the
    verifier's collect pass replays it to know the init state at each
    check site *within* a block (block-entry facts alone are too coarse).
    """
    if isinstance(stmt, ast.VarDecl):
        if _scalar_local(stmt.binding):
            state[stmt.binding] = (InitState.INIT if stmt.init is not None
                                   else InitState.UNINIT)
        advance_expr(state, stmt.init)
    elif isinstance(stmt, ast.ExprStmt):
        advance_expr(state, stmt.expr)
    elif isinstance(stmt, ast.Return):
        advance_expr(state, stmt.value)


def definite_init(cfg: CFG, bindings: list[Binding]) -> InitFacts:
    """Run the must-initialized dataflow to fixpoint over ``cfg``, the
    graph of a function whose bindings are ``bindings``."""
    scalars = [b for b in bindings if _scalar_local(b)]
    facts = InitFacts()
    facts.entry_states[cfg.entry] = {b: InitState.UNINIT for b in scalars}

    def transfer(bid: int, state: dict[Binding, InitState]
                 ) -> dict[Binding, InitState]:
        out = dict(state)
        block = cfg.blocks[bid]
        for stmt in block.stmts:
            advance(out, stmt)
        term = block.term
        cond = term.cond if isinstance(term, CondJump) else (
            term.value if isinstance(term, Ret) else None)
        advance_expr(out, cond)
        return out

    worklist = [cfg.entry]
    while worklist:
        bid = worklist.pop()
        in_state = facts.entry_states.get(bid)
        if in_state is None:
            continue
        out_state = transfer(bid, in_state)
        for succ in cfg.blocks[bid].succs:
            prev = facts.entry_states.get(succ)
            if prev is None:
                facts.entry_states[succ] = dict(out_state)
                worklist.append(succ)
            else:
                changed = False
                for b in scalars:
                    joined = prev.get(b, InitState.UNINIT).join(
                        out_state.get(b, InitState.UNINIT))
                    if joined is not prev.get(b):
                        prev[b] = joined
                        changed = True
                if changed:
                    worklist.append(succ)
    return facts
