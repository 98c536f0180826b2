"""Check-elimination optimizations (§3.4).

"During compilation, KGCC employs heuristics to eliminate unnecessary
checks. ... Another technique, common subexpression elimination, allowed
us to reduce the number of checks inserted by more than half for typical
kernel code."

Three passes over an instrumented AST:

* :func:`eliminate_safe_static_checks` — remove deref checks that are
  provably safe at compile time: a constant (literal, ``sizeof``-derived,
  or constant-folded), in-bounds index into a local array whose address
  never escapes, as the index base's binding declares it.
* :func:`eliminate_verified_checks` — remove every check whose site the
  load-time verifier (:mod:`repro.safety.verifier`) proved safe by
  abstract interpretation; this subsumes the static pass on straight-line
  code and additionally handles loops, guards, and pointer arithmetic.
* :func:`eliminate_common_checks` — CSE over checks: within straight-line
  code, a check identical to an earlier one (variables compared by
  binding) is redundant and removed unless, in between, a store wrote a
  variable its operands read, a store through memory happened while its
  operands read memory, a call ran (it could free heap objects), or a
  block that registered objects ended.  Nested control flow is processed
  with fresh state (conservative, always sound).

Both passes read the scope resolver's bindings
(:mod:`repro.cminus.resolve`), so a shadowing declaration can never be
mistaken for the variable it hides.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cminus import ast_nodes as ast
from repro.cminus.ctypes import ArrayType
from repro.cminus.interp import int_binop
from repro.cminus.resolve import (Binding, bump_generation, resolve,
                                  strip_checks)
from repro.safety.kgcc.runtime import registered


@dataclass
class OptimizeReport:
    checks_before: int = 0
    checks_removed_static: int = 0
    checks_removed_verified: int = 0
    checks_removed_cse: int = 0

    @property
    def checks_removed(self) -> int:
        return (self.checks_removed_static + self.checks_removed_verified
                + self.checks_removed_cse)

    @property
    def checks_after(self) -> int:
        return self.checks_before - self.checks_removed

    @property
    def removed_fraction(self) -> float:
        if self.checks_before == 0:
            return 0.0
        return self.checks_removed / self.checks_before


def _count_checks(program: ast.Program) -> int:
    return sum(1 for node in ast.walk(program) if isinstance(node, ast.Check))


# --------------------------------------------------------------- static pass

def const_fold(expr: ast.Expr) -> int | None:
    """Evaluate ``expr`` to an int when it is a compile-time constant.

    Handles literals, ``sizeof`` (with a resolved type), unary minus and
    bitwise-not, and the integer binary operators, with the engines' C
    semantics (:func:`~repro.cminus.interp.int_binop`: 64-bit wraparound,
    shift counts masked with ``& 63``), so a folded index is the index
    the program computes.  Returns ``None`` for anything non-constant
    (including division by zero, which is left for the runtime to fault
    on).
    """
    if isinstance(expr, ast.Check):
        return const_fold(expr.inner)
    if isinstance(expr, ast.IntLit):
        return expr.value
    if isinstance(expr, ast.SizeOf) and expr.ctype is not None:
        return expr.ctype.size
    if isinstance(expr, ast.UnOp):
        v = const_fold(expr.operand)
        if v is None:
            return None
        if expr.op == "-":
            return int_binop("-", 0, v)
        if expr.op == "~":
            return int_binop("^", v, -1)
        if expr.op == "!":
            return 0 if v else 1
        return None
    if isinstance(expr, ast.BinOp):
        left = const_fold(expr.left)
        right = const_fold(expr.right)
        if left is None or right is None:
            return None
        try:
            return int_binop(expr.op, left, right)
        except (KeyError, ZeroDivisionError):
            return None
    return None


def eliminate_safe_static_checks(program: ast.Program,
                                 report: OptimizeReport | None = None
                                 ) -> OptimizeReport:
    """Drop deref checks on provably-in-bounds constant indexing."""
    report = report or OptimizeReport(checks_before=_count_checks(program))
    resolve(program)

    def is_safe(check: ast.Check) -> bool:
        inner = check.inner
        if check.kind != "deref" or not isinstance(inner, ast.Index):
            return False
        b = getattr(inner.base, "binding", None)
        if (b is None or b.kind != "local" or b.addr_taken or b.passed
                or not isinstance(b.ctype, ArrayType)):
            return False
        index = const_fold(inner.index)
        return index is not None and 0 <= index < b.ctype.length

    for func in program.funcs.values():
        report.checks_removed_static += _replace_checks(func.body, is_safe)
    bump_generation(program)
    return report


# ------------------------------------------------------------ verifier pass

def eliminate_verified_checks(program: ast.Program, verifier_report,
                              report: OptimizeReport | None = None
                              ) -> OptimizeReport:
    """Drop every check at a site the load-time verifier proved safe.

    ``verifier_report`` is a
    :class:`~repro.safety.verifier.VerifierReport` produced by verifying
    this program (after instrumentation, with the same filename, so the
    site keys line up).  A site is dropped only when *every* check
    instance at that key was classified ``PROVEN``, which makes the
    removal sound regardless of how many AST nodes share the source line.
    """
    report = report or OptimizeReport(checks_before=_count_checks(program))
    proven = verifier_report.proven_sites()
    if not proven:
        return report
    for func in program.funcs.values():
        removed = _replace_checks(func.body,
                                  lambda check: check.site in proven)
        report.checks_removed_verified += removed
    bump_generation(program)
    return report


# ------------------------------------------------------------------ CSE pass

def _fingerprint(expr: ast.Expr) -> str:
    """Stable structural key for an expression."""
    if isinstance(expr, ast.IntLit):
        return f"#{expr.value}"
    if isinstance(expr, ast.StrLit):
        return f"${expr.value!r}"
    if isinstance(expr, ast.Ident):
        return f"{expr.name}@{id(expr.binding):x}"
    if isinstance(expr, ast.BinOp):
        return f"({_fingerprint(expr.left)}{expr.op}{_fingerprint(expr.right)})"
    if isinstance(expr, ast.UnOp):
        return f"({expr.op}{_fingerprint(expr.operand)})"
    if isinstance(expr, ast.Deref):
        return f"(*{_fingerprint(expr.ptr)})"
    if isinstance(expr, ast.Index):
        return f"({_fingerprint(expr.base)}[{_fingerprint(expr.index)}])"
    if isinstance(expr, ast.AddrOf):
        return f"(&{_fingerprint(expr.target)})"
    if isinstance(expr, ast.Member):
        op = "->" if expr.arrow else "."
        return f"({_fingerprint(expr.base)}{op}{expr.field_name})"
    if isinstance(expr, ast.Check):
        return _fingerprint(expr.inner)
    if isinstance(expr, ast.Call):
        args = ",".join(_fingerprint(a) for a in expr.args)
        return f"{expr.func}({args})!"   # '!' marks non-CSE-able
    if isinstance(expr, ast.Assign):
        return f"(={_fingerprint(expr.target)})!"
    if isinstance(expr, ast.PostIncDec):
        return f"({_fingerprint(expr.target)}{expr.op})!"
    return f"?{type(expr).__name__}!"


def _operands(check: ast.Check) -> list[ast.Expr]:
    """What a check's address is computed from: the base and index of an
    ``a[i]``, the pointer of a ``*p`` or ``p->f``, the whole arithmetic."""
    inner = check.inner
    if check.kind == "deref":
        if isinstance(inner, ast.Index):
            return [inner.base, inner.index]
        if isinstance(inner, ast.Deref):
            return [inner.ptr]
        if isinstance(inner, ast.Member):
            return [inner.base]
    return [inner]


def _reads_memory(check: ast.Check) -> bool:
    """Whether a store through memory may change the check's address: its
    operands read an element, a member, a dereference or an address-taken
    variable."""
    for operand in _operands(check):
        for node in ast.walk(operand):
            if isinstance(node, (ast.Index, ast.Member, ast.Deref)):
                return True
            if (isinstance(node, ast.Ident) and node.binding is not None
                    and node.binding.addr_taken):
                return True
    return False


class _CseState:
    def __init__(self) -> None:
        self.seen: dict[str, ast.Check] = {}
        self.removed = 0

    def forget(self, dead) -> None:
        """Drop every seen check ``dead(check)`` holds for."""
        for fp in [fp for fp, check in self.seen.items() if dead(check)]:
            del self.seen[fp]

    def store(self, target: ast.Expr) -> None:
        """A store to ``target``: a variable's own checks die, and a store
        through memory (or to an address-taken variable, which memory may
        alias) kills every check that reads memory."""
        target = strip_checks(target)
        b = target.binding if isinstance(target, ast.Ident) else None
        if b is not None:
            self.assigned(b)
        if b is None or b.addr_taken:
            self.forget(_reads_memory)

    def assigned(self, b: Binding) -> None:
        """``b`` takes a new value: the checks that read it die."""
        self.forget(lambda check: any(
            isinstance(n, ast.Ident) and n.binding is b
            for n in ast.walk(check.inner)))

    def kill_all(self) -> None:
        self.seen.clear()


def eliminate_common_checks(program: ast.Program,
                            report: OptimizeReport | None = None
                            ) -> OptimizeReport:
    """Remove checks dominated by an identical earlier check."""
    report = report or OptimizeReport(checks_before=_count_checks(program))
    resolve(program)
    for func in program.funcs.values():
        state = _CseState()
        _cse_stmt(func.body, state)
        report.checks_removed_cse += state.removed
    bump_generation(program)
    return report


def _cse_stmt(stmt: ast.Stmt, state: _CseState) -> None:
    if isinstance(stmt, ast.Block):
        for s in stmt.stmts:
            _cse_stmt(s, state)
        if any(isinstance(s, ast.VarDecl) and registered(s.binding)
               for s in stmt.stmts):
            state.kill_all()    # its objects are unregistered here
        return
    if isinstance(stmt, ast.VarDecl):
        if stmt.init is not None:
            stmt.init = _cse_expr(stmt.init, state)
        state.assigned(stmt.binding)
        return
    if isinstance(stmt, ast.ExprStmt):
        stmt.expr = _cse_expr(stmt.expr, state)
        return
    if isinstance(stmt, ast.If):
        stmt.cond = _cse_expr(stmt.cond, state)
        # Branches execute conditionally: analyze each with a private copy
        # and keep nothing afterwards (conservative join).
        for branch in ("then", "orelse"):
            body = getattr(stmt, branch)
            if body is not None:
                sub = _CseState()
                sub.seen = dict(state.seen)
                _cse_stmt(body, sub)
                state.removed += sub.removed
        state.kill_all()
        return
    if isinstance(stmt, (ast.While, ast.For)):
        # Loop bodies: fresh state per static occurrence (sound; checks can
        # still be deduplicated *within* one iteration's straight-line code).
        if isinstance(stmt, ast.For) and stmt.init is not None:
            _cse_stmt(stmt.init, state)
        sub = _CseState()
        if isinstance(stmt, ast.While):
            stmt.cond = _cse_expr(stmt.cond, sub)
            _cse_stmt(stmt.body, sub)
        else:
            if stmt.cond is not None:
                stmt.cond = _cse_expr(stmt.cond, sub)
            _cse_stmt(stmt.body, sub)
            if stmt.step is not None:
                stmt.step = _cse_expr(stmt.step, sub)
        state.removed += sub.removed
        state.kill_all()
        return
    if isinstance(stmt, ast.Return):
        if stmt.value is not None:
            stmt.value = _cse_expr(stmt.value, state)
        return
    # Break/Continue: nothing to do


def _cse_expr(expr: ast.Expr, state: _CseState) -> ast.Expr:
    if isinstance(expr, ast.Check):
        expr.inner = _cse_expr(expr.inner, state)
        fp = f"{expr.kind}|{_fingerprint(expr.inner)}"
        if "!" not in fp:
            if fp in state.seen:
                state.removed += 1
                return expr.inner  # drop the redundant check
            state.seen[fp] = expr
        return expr
    if isinstance(expr, ast.BinOp):
        expr.left = _cse_expr(expr.left, state)
        expr.right = _cse_expr(expr.right, state)
        return expr
    if isinstance(expr, ast.UnOp):
        expr.operand = _cse_expr(expr.operand, state)
        if expr.op in ("++", "--"):
            state.store(expr.operand)
        return expr
    if isinstance(expr, ast.Deref):
        expr.ptr = _cse_expr(expr.ptr, state)
        return expr
    if isinstance(expr, ast.Index):
        expr.base = _cse_expr(expr.base, state)
        expr.index = _cse_expr(expr.index, state)
        return expr
    if isinstance(expr, ast.Member):
        expr.base = _cse_expr(expr.base, state)
        return expr
    if isinstance(expr, ast.AddrOf):
        expr.target = _cse_expr(expr.target, state)
        return expr
    if isinstance(expr, ast.Assign):
        expr.value = _cse_expr(expr.value, state)
        expr.target = _cse_expr(expr.target, state)
        state.store(expr.target)
        return expr
    if isinstance(expr, ast.PostIncDec):
        expr.target = _cse_expr(expr.target, state)
        state.store(expr.target)
        return expr
    if isinstance(expr, ast.Call):
        expr.args = [_cse_expr(a, state) for a in expr.args]
        state.kill_all()  # the callee may free objects or write anywhere
        return expr
    return expr


# ----------------------------------------------------------------- utilities

def _replace_checks(stmt: ast.Stmt, predicate) -> int:
    """Replace Check nodes satisfying ``predicate`` with their inner expr,
    anywhere under ``stmt``.  Returns the number removed."""
    removed = 0

    def fix_expr(expr: ast.Expr) -> ast.Expr:
        nonlocal removed
        if expr is None:
            return expr
        if isinstance(expr, ast.Check):
            expr.inner = fix_expr(expr.inner)
            if predicate(expr):
                removed += 1
                return expr.inner
            return expr
        for name, value in vars(expr).items():
            if isinstance(value, ast.Expr):
                setattr(expr, name, fix_expr(value))
            elif isinstance(value, list):
                setattr(expr, name,
                        [fix_expr(v) if isinstance(v, ast.Expr) else v
                         for v in value])
        return expr

    def fix_stmt(s: ast.Stmt) -> None:
        for name, value in vars(s).items():
            if isinstance(value, ast.Expr):
                setattr(s, name, fix_expr(value))
            elif isinstance(value, ast.Stmt):
                fix_stmt(value)
            elif isinstance(value, list):
                new = []
                for v in value:
                    if isinstance(v, ast.Expr):
                        new.append(fix_expr(v))
                    else:
                        if isinstance(v, ast.Stmt):
                            fix_stmt(v)
                        new.append(v)
                setattr(s, name, new)

    fix_stmt(stmt)
    return removed


def optimize(program: ast.Program,
             verifier_report=None) -> OptimizeReport:
    """Run all elimination passes; returns the combined report.

    When ``verifier_report`` (a verified :class:`VerifierReport` for this
    program) is supplied, checks at verifier-proven sites are removed
    between the static and CSE passes — they cost zero cycles at run time,
    paid for once by the load-time verification charge in the cost model.
    """
    report = OptimizeReport(checks_before=_count_checks(program))
    eliminate_safe_static_checks(program, report)
    if verifier_report is not None:
        eliminate_verified_checks(program, verifier_report, report)
    eliminate_common_checks(program, report)
    # structural Check removal invalidates compiled code for the program
    bump_generation(program)
    return report
