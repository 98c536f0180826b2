"""Bounded-loop (termination) check for Cosy regions.

The Cosy watchdog (§2.3) kills a compound *after* it has burned its
kernel-time budget; an eBPF-style verifier instead refuses to load code it
cannot prove terminating.  This pass proves the common shape — a counted
loop — and reports everything else as unbounded:

* the condition compares an **induction variable** against a
  **loop-invariant bound** (``i < n``, ``n > i``, ``i >= 0``, ...);
* the induction variable is updated by a nonzero integer constant, in the
  direction that approaches the bound, by a top-level statement of the
  loop body (or the ``for`` step) that executes on every iteration, and
  nothing else in the loop (condition, body and step) assigns it or any
  variable the bound reads.

Three conditions make sure no update hides from that count:

1. variables are the scope resolver's bindings (:mod:`repro.cminus.
   resolve`; the code must be resolved), so a step or assignment counts
   only for the declaration it names: a shadowing ``int i`` in the body
   neither steps nor protects the loop's ``i``;
2. the induction variable and every variable the bound reads are locals
   or parameters whose address is never taken, or globals of a loop that
   makes no call;
3. a bound that reads memory (``a[0]``, ``*p``, ``p->len``) or calls
   belongs to a loop that makes no call and no store through memory (or
   to an address-taken variable).

A loop that contains an unconditional top-level ``break`` or ``return``
is bounded regardless of its condition (each iteration before it runs at
most once).  A body-statement step must not be skipped by a ``continue``.
Nested loops must all be bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cminus import ast_nodes as ast
from repro.cminus.resolve import Binding, strip_checks

_FLIP = {"<": ">", ">": "<", "<=": ">=", ">=": "<="}


@dataclass
class LoopBound:
    """Verdict for one loop."""

    line: int
    bounded: bool
    reason: str
    induction_var: str | None = None


def _target(expr: ast.Expr | None) -> ast.Expr | None:
    """The lvalue an assignment, ``++`` or ``--`` writes."""
    if isinstance(expr, (ast.Assign, ast.PostIncDec)):
        return strip_checks(expr.target)
    if isinstance(expr, ast.UnOp) and expr.op in ("++", "--"):
        return strip_checks(expr.operand)
    return None


def _is(expr: ast.Expr, b: Binding) -> bool:
    return isinstance(expr, ast.Ident) and expr.binding is b


def _step_of(expr: ast.Expr | None) -> tuple[Binding, int] | None:
    """If ``expr`` updates a single variable by a nonzero constant, return
    ``(binding, delta)``; otherwise None."""
    expr = strip_checks(expr) if expr is not None else None
    target = _target(expr)
    b = getattr(target, "binding", None)
    if b is None:
        return None
    if isinstance(expr, (ast.PostIncDec, ast.UnOp)):
        return b, (1 if expr.op == "++" else -1)
    if not isinstance(expr, ast.Assign):
        return None
    value = strip_checks(expr.value)
    if expr.op in ("+", "-") and isinstance(value, ast.IntLit) \
            and value.value != 0:
        return b, (value.value if expr.op == "+" else -value.value)
    if expr.op == "" and isinstance(value, ast.BinOp) \
            and value.op in ("+", "-"):
        # i = i + c  /  i = i - c  /  i = c + i
        left, right = strip_checks(value.left), strip_checks(value.right)
        if _is(left, b) and isinstance(right, ast.IntLit) \
                and right.value != 0:
            return b, (right.value if value.op == "+" else -right.value)
        if value.op == "+" and _is(right, b) \
                and isinstance(left, ast.IntLit) and left.value != 0:
            return b, left.value
    return None


def _has_unconditional_exit(body: ast.Stmt) -> bool:
    """True if a top-level statement of ``body`` always leaves the loop."""
    stmts = body.stmts if isinstance(body, ast.Block) else [body]
    return any(isinstance(s, (ast.Break, ast.Return)) for s in stmts)


def _continues(stmt: ast.Stmt | None) -> bool:
    """Whether ``stmt`` holds a ``continue`` of the loop it lies in."""
    if isinstance(stmt, ast.Continue):
        return True
    if isinstance(stmt, ast.Block):
        return any(_continues(s) for s in stmt.stmts)
    if isinstance(stmt, ast.If):
        return _continues(stmt.then) or _continues(stmt.orelse)
    return False          # a nested loop's continue is its own


def _split_cond(cond: ast.Expr) -> tuple[str, ast.Ident, ast.Expr] | None:
    """Normalize ``cond`` to (op, Ident side, bound side) with the
    identifier on the left; returns None for unsupported shapes."""
    cond = strip_checks(cond)
    if not isinstance(cond, ast.BinOp) or cond.op not in _FLIP:
        return None
    left, right = strip_checks(cond.left), strip_checks(cond.right)
    if isinstance(left, ast.Ident):
        return cond.op, left, right
    if isinstance(right, ast.Ident):
        return _FLIP[cond.op], right, left
    return None


def _effects(*parts: ast.Node | None
             ) -> tuple[dict[Binding, int], bool, bool]:
    """What running ``parts`` may change: (writes per variable, whether
    it stores through memory or to an address-taken variable, whether it
    calls)."""
    writes: dict[Binding, int] = {}
    memory = calls = False
    for part in parts:
        for n in ast.walk(part):
            calls = calls or isinstance(n, ast.Call)
            target = _target(n)
            if target is None:
                continue
            b = getattr(target, "binding", None)
            if b is not None:
                writes[b] = writes.get(b, 0) + 1
            if b is None or b.addr_taken:
                memory = True
    return writes, memory, calls


def _check_one_loop(loop: ast.While | ast.For, body: ast.Stmt,
                    cond: ast.Expr | None,
                    step_expr: ast.Expr | None) -> LoopBound:
    if _has_unconditional_exit(body):
        return LoopBound(loop.line, True, "unconditional break/return")
    if cond is None:
        return LoopBound(loop.line, False, "no loop condition")
    split = _split_cond(cond)
    if split is None:
        return LoopBound(
            loop.line, False,
            "condition is not a comparison against a bound")
    op, var_node, bound = split
    name, var = var_node.name, var_node.binding
    if var is None:
        return LoopBound(loop.line, False, f"'{name}' is not declared", name)

    # find the constant-step update of the induction variable: in the
    # `for` step, or as a top-level statement of the body
    stmts = body.stmts if isinstance(body, ast.Block) else [body]
    candidates = [step_expr] + [s.expr for s in stmts
                                if isinstance(s, ast.ExprStmt)]
    steps = [(cand, step[1]) for cand in candidates
             if (step := _step_of(cand)) is not None and step[0] is var]
    if not steps:
        return LoopBound(loop.line, False,
                         f"no constant-step update of '{name}' on every "
                         f"iteration", name)
    cand, delta = steps[0]
    if cand is not step_expr and _continues(body):
        return LoopBound(loop.line, False,
                         f"a continue may skip the update of '{name}'", name)

    # the step must approach the bound
    approaching = (delta > 0) if op in ("<", "<=") else (delta < 0)
    if not approaching:
        return LoopBound(loop.line, False,
                         f"'{name}' steps by {delta:+d}, away from the "
                         f"'{op}' bound", name)

    # neither the induction variable nor the bound may change elsewhere
    writes, stores_memory, calls = _effects(cond, body, step_expr)
    bound_nodes = list(ast.walk(bound))
    reads: dict[Binding, None] = {}     # in source order
    for n in bound_nodes:
        if isinstance(n, ast.Ident):
            if n.binding is None:
                return LoopBound(loop.line, False,
                                 f"'{n.name}' is not declared", name)
            reads[n.binding] = None
    if any(writes.get(b) for b in reads if b is not var):
        return LoopBound(loop.line, False,
                         "loop body modifies the bound", name)
    if writes.get(var, 0) > 1:
        return LoopBound(loop.line, False,
                         f"'{name}' is assigned more than once per "
                         f"iteration", name)
    for b in [var, *reads]:
        if b.addr_taken:
            return LoopBound(loop.line, False,
                             "induction/bound variable has its address "
                             "taken", name)
        if b.kind == "global" and calls:
            return LoopBound(loop.line, False,
                             f"the loop makes a call, which may change "
                             f"global '{b.name}'", name)
    if (stores_memory or calls) and any(
            isinstance(n, (ast.Index, ast.Deref, ast.Member, ast.Call))
            for n in bound_nodes):
        return LoopBound(loop.line, False,
                         "the bound reads memory the loop may change", name)
    return LoopBound(loop.line, True,
                     f"counted loop on '{name}' (step {delta:+d})", name)


def check_termination(body: ast.Stmt) -> list[LoopBound]:
    """Classify every loop under ``body`` (a function body or a Cosy
    region wrapped in a Block, of a resolved program).  Returns one
    :class:`LoopBound` per loop; the code is bounded iff every entry has
    ``bounded=True``."""
    results: list[LoopBound] = []
    for node in ast.walk(body):
        if isinstance(node, ast.While):
            results.append(_check_one_loop(node, node.body, node.cond, None))
        elif isinstance(node, ast.For):
            results.append(_check_one_loop(node, node.body, node.cond,
                                           node.step))
    return results
