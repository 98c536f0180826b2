"""The KGCC instrumentation pass: insert checks into the AST.

"All operations that can potentially cause bounds violations, like pointer
arithmetic, string operations, memory copying, etc. are preceded by
checks."  Here the pass wraps:

* every dereference (``*p``) and index (``a[i]``) in a ``deref`` check,
* every pointer ``+``/``-`` in an ``arith`` check (which is where OOB
  peers get created), whatever its operands do: the engines evaluate the
  sum once and hand the runtime the pointer operand they computed,

and reports, per the paper's heuristic, which declarations need no
registration at all: "KGCC does not check stack objects whose addresses
are not taken at any point in the code".  The facts come from the scope
resolver (:mod:`repro.cminus.resolve`), and the runtime applies the same
rule (:func:`~repro.safety.kgcc.runtime.registered`).

The pass types expressions with the resolver's ``type_of``, which reads
each identifier's own declaration, so it knows which ``+``/``-``
expressions are pointer arithmetic and how wide each access is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cminus import ast_nodes as ast
from repro.cminus.ctypes import PointerType
from repro.cminus.resolve import Binding, bump_generation, resolve, type_of
from repro.safety.kgcc.runtime import registered


@dataclass
class InstrumentationReport:
    """What the pass did — feeds E9's check-count statistics."""

    checks_inserted: int = 0
    deref_checks: int = 0
    arith_checks: int = 0
    sites: dict[str, list[ast.Check]] = field(default_factory=dict)
    #: parameters and locals KGCC leaves unregistered: registers, and
    #: structs whose address never escapes
    unregistered: list[Binding] = field(default_factory=list)
    #: the instrumented program — lets check-toggling passes (dynamic
    #: deinstrumentation) bump its code-cache generation
    program: "ast.Program | None" = None

    def nodes_at(self, site: str) -> list[ast.Check]:
        return self.sites.get(site, [])

    def all_checks(self) -> list[ast.Check]:
        return [c for nodes in self.sites.values() for c in nodes]


class _Instrumenter:
    def __init__(self, filename: str):
        self.filename = filename
        self.report = InstrumentationReport()

    # ---------------------------------------------------------------- sites

    def _make_check(self, kind: str, inner: ast.Expr, size: int,
                    line: int) -> ast.Check:
        site = f"{self.filename}:{line}:{kind}"
        check = ast.Check(line=line, kind=kind, inner=inner,
                          access_size=size, site=site)
        self.report.sites.setdefault(site, []).append(check)
        self.report.checks_inserted += 1
        if kind == "deref":
            self.report.deref_checks += 1
        else:
            self.report.arith_checks += 1
        return check

    # ----------------------------------------------------------- traversal

    def run(self, funcs: list[ast.FuncDef]) -> InstrumentationReport:
        """Instrument ``funcs`` of the resolved program in place."""
        for func in funcs:
            func.body = self._instr_stmt(func.body)
        return self.report

    def _instr_stmt(self, stmt: ast.Stmt) -> ast.Stmt:
        if isinstance(stmt, ast.Block):
            stmt.stmts = [self._instr_stmt(s) for s in stmt.stmts]
            return stmt
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is not None:
                stmt.init = self._instr_expr(stmt.init)
            return stmt
        if isinstance(stmt, ast.ExprStmt):
            stmt.expr = self._instr_expr(stmt.expr)
            return stmt
        if isinstance(stmt, ast.If):
            stmt.cond = self._instr_expr(stmt.cond)
            stmt.then = self._instr_stmt(stmt.then)
            if stmt.orelse is not None:
                stmt.orelse = self._instr_stmt(stmt.orelse)
            return stmt
        if isinstance(stmt, ast.While):
            stmt.cond = self._instr_expr(stmt.cond)
            stmt.body = self._instr_stmt(stmt.body)
            return stmt
        if isinstance(stmt, ast.For):
            if stmt.init is not None:
                stmt.init = self._instr_stmt(stmt.init)
            if stmt.cond is not None:
                stmt.cond = self._instr_expr(stmt.cond)
            if stmt.step is not None:
                stmt.step = self._instr_expr(stmt.step)
            stmt.body = self._instr_stmt(stmt.body)
            return stmt
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                stmt.value = self._instr_expr(stmt.value)
            return stmt
        return stmt

    @staticmethod
    def _access_size(expr: ast.Expr) -> int:
        t = type_of(expr)
        return t.size if t is not None and t.size > 0 else 1

    def _instr_expr(self, expr: ast.Expr) -> ast.Expr:
        if isinstance(expr, (ast.IntLit, ast.StrLit, ast.Ident, ast.SizeOf)):
            return expr
        if isinstance(expr, ast.Deref):
            expr.ptr = self._instr_expr(expr.ptr)
            return self._make_check("deref", expr, self._access_size(expr),
                                    expr.line)
        if isinstance(expr, ast.Index):
            expr.base = self._instr_expr(expr.base)
            expr.index = self._instr_expr(expr.index)
            return self._make_check("deref", expr, self._access_size(expr),
                                    expr.line)
        if isinstance(expr, ast.Member):
            expr.base = self._instr_expr(expr.base)
            if expr.arrow:
                # p->f dereferences p: check the field access range
                return self._make_check("deref", expr,
                                        self._access_size(expr), expr.line)
            return expr  # x.f on a local struct needs no runtime check
        if isinstance(expr, ast.BinOp):
            expr.left = self._instr_expr(expr.left)
            expr.right = self._instr_expr(expr.right)
            if expr.op in ("+", "-") \
                    and isinstance(type_of(expr), PointerType):
                return self._make_check("arith", expr, 1, expr.line)
            return expr
        if isinstance(expr, ast.UnOp):
            expr.operand = self._instr_expr(expr.operand)
            return expr
        if isinstance(expr, ast.AddrOf):
            self._instr_address(expr.target)
            return expr
        if isinstance(expr, ast.Assign):
            expr.target = self._instr_expr(expr.target)
            expr.value = self._instr_expr(expr.value)
            return expr
        if isinstance(expr, ast.PostIncDec):
            expr.target = self._instr_expr(expr.target)
            return expr
        if isinstance(expr, ast.Call):
            expr.args = [self._instr_expr(a) for a in expr.args]
            return expr
        return expr

    def _instr_address(self, target: ast.Expr) -> None:
        """Instrument ``&target``'s operands.  Taking an address accesses
        nothing, so ``target`` gets no deref check (C blesses ``&a[n]``
        even one past the end), but the values it is computed from are
        checked like any other: ``&*(p + 4)`` checks the sum and
        ``&(*pp)->f`` the load of ``*pp``."""
        if isinstance(target, ast.Index):
            target.base = self._instr_expr(target.base)
            target.index = self._instr_expr(target.index)
        elif isinstance(target, ast.Deref):
            target.ptr = self._instr_expr(target.ptr)
        elif isinstance(target, ast.Member):
            if target.arrow:
                target.base = self._instr_expr(target.base)
            else:
                self._instr_address(target.base)


def instrument(program: ast.Program, filename: str = "<kgcc>"
               ) -> InstrumentationReport:
    """Instrument ``program`` in place; returns the report.

    Pair with :class:`~repro.safety.kgcc.runtime.KgccRuntime` via the
    interpreter's ``check_runtime=`` and ``var_hooks=`` arguments.
    """
    resolve(program)
    report = _Instrumenter(filename).run(list(program.funcs.values()))
    report.program = program
    # the AST changed shape: compiled code for the pre-instrumentation
    # generation is now stale
    bump_generation(program)
    report.unregistered = [b for bindings in resolve(program).values()
                           for b in bindings if not registered(b)]
    return report
