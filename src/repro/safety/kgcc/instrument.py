"""The KGCC instrumentation pass: insert checks into the AST.

"All operations that can potentially cause bounds violations, like pointer
arithmetic, string operations, memory copying, etc. are preceded by
checks."  Here the pass wraps:

* every dereference (``*p``) and index (``a[i]``) in a ``deref`` check,
* every side-effect-free pointer ``+``/``-`` in an ``arith`` check (which
  is where OOB peers get created),

and reports, per the paper's heuristic, which declarations need no
registration at all: "KGCC does not check stack objects whose addresses
are not taken at any point in the code".  The facts come from the scope
resolver (:mod:`repro.cminus.resolve`), and the runtime applies the same
rule (:func:`~repro.safety.kgcc.runtime.registered`).

The pass runs a lightweight flow-insensitive type inference (declared
types only) so it knows which ``+``/``-`` expressions are pointer
arithmetic and what the access width of each dereference is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cminus import ast_nodes as ast
from repro.cminus.ctypes import ArrayType, CType, INT, PointerType, StructType
from repro.cminus.resolve import Binding, bump_generation, resolve
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


class FuncTypes:
    """name -> declared CType for one function (flow-insensitive).

    Public because the load-time verifier reuses it to scale pointer
    arithmetic and size memory accesses exactly the way this pass does.
    """

    def __init__(self, program: ast.Program, fdef: ast.FuncDef):
        self.types: dict[str, CType] = {}
        for decl in program.globals:
            self.types[decl.name] = decl.ctype
        for param in fdef.params:
            self.types[param.name] = param.ctype
        for node in ast.walk(fdef.body):
            if isinstance(node, ast.VarDecl):
                self.types[node.name] = node.ctype

    def type_of(self, expr: ast.Expr) -> CType | None:
        if isinstance(expr, ast.Ident):
            return self.types.get(expr.name)
        if isinstance(expr, ast.IntLit):
            return INT
        if isinstance(expr, ast.StrLit):
            return PointerType()
        if isinstance(expr, ast.Check):
            return self.type_of(expr.inner)
        if isinstance(expr, ast.Deref):
            t = self.type_of(expr.ptr)
            if isinstance(t, PointerType):
                return t.pointee
            if isinstance(t, ArrayType):
                return t.elem
            return None
        if isinstance(expr, ast.Index):
            t = self.type_of(expr.base)
            if isinstance(t, PointerType):
                return t.pointee
            if isinstance(t, ArrayType):
                return t.elem
            return None
        if isinstance(expr, ast.AddrOf):
            inner = self.type_of(expr.target)
            return PointerType(inner) if inner is not None else PointerType()
        if isinstance(expr, ast.Member):
            base = self.type_of(expr.base)
            struct = base.pointee if isinstance(base, PointerType) else base
            if isinstance(struct, StructType):
                try:
                    return struct.field(expr.field_name)[1]
                except KeyError:
                    return None
            return None
        if isinstance(expr, ast.BinOp) and expr.op in ("+", "-"):
            lt = self.type_of(expr.left)
            rt = self.type_of(expr.right)
            for t in (lt, rt):
                if isinstance(t, PointerType):
                    return t
                if isinstance(t, ArrayType):
                    return t.decay()
            return INT
        if isinstance(expr, (ast.Assign, ast.PostIncDec, ast.UnOp)):
            target = getattr(expr, "target", None) or getattr(expr, "operand", None)
            return self.type_of(target) if target is not None else None
        return INT


#: backwards-compatible alias (pre-verifier name)
_FuncTypes = FuncTypes


def _side_effect_free(expr: ast.Expr) -> bool:
    if isinstance(expr, (ast.IntLit, ast.StrLit, ast.Ident)):
        return True
    if isinstance(expr, ast.BinOp):
        return _side_effect_free(expr.left) and _side_effect_free(expr.right)
    if isinstance(expr, ast.UnOp):
        return expr.op not in ("++", "--") and _side_effect_free(expr.operand)
    if isinstance(expr, ast.Deref):
        return _side_effect_free(expr.ptr)
    if isinstance(expr, ast.Index):
        return _side_effect_free(expr.base) and _side_effect_free(expr.index)
    if isinstance(expr, ast.AddrOf):
        return _side_effect_free(expr.target)
    if isinstance(expr, ast.SizeOf):
        return True
    return False  # calls, assignments, ++/--


class _Instrumenter:
    def __init__(self, program: ast.Program, filename: str):
        self.program = program
        self.filename = filename
        self.report = InstrumentationReport()
        self._types: FuncTypes | None = None

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

    def run(self) -> InstrumentationReport:
        for func in self.program.funcs.values():
            self._types = FuncTypes(self.program, func)
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

    def _access_size(self, expr: ast.Expr) -> int:
        t = self._types.type_of(expr) if self._types is not None else None
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
            if expr.op in ("+", "-") and _side_effect_free(expr):
                t = self._types.type_of(expr) if self._types else None
                if isinstance(t, PointerType):
                    return self._make_check("arith", expr, 1, expr.line)
            return expr
        if isinstance(expr, ast.UnOp):
            expr.operand = self._instr_expr(expr.operand)
            return expr
        if isinstance(expr, ast.AddrOf):
            # &x itself accesses nothing; do not descend into an Index here
            # with a deref check (C blesses &a[n] even one past the end), but
            # still instrument the index expression's subexpressions.
            if isinstance(expr.target, ast.Index):
                expr.target.base = self._instr_expr(expr.target.base)
                expr.target.index = self._instr_expr(expr.target.index)
            return expr
        if isinstance(expr, ast.Assign):
            expr.target = self._instr_expr(expr.target)
            expr.value = self._instr_expr(expr.value)
            return expr
        if isinstance(expr, ast.PostIncDec):
            return expr
        if isinstance(expr, ast.Call):
            expr.args = [self._instr_expr(a) for a in expr.args]
            return expr
        return expr


def instrument(program: ast.Program, filename: str = "<kgcc>"
               ) -> InstrumentationReport:
    """Instrument ``program`` in place; returns the report.

    Pair with :class:`~repro.safety.kgcc.runtime.KgccRuntime` via the
    interpreter's ``check_runtime=`` and ``var_hooks=`` arguments.
    """
    report = _Instrumenter(program, filename).run()
    report.program = program
    # the AST changed shape: compiled code for the pre-instrumentation
    # generation is now stale
    bump_generation(program)
    report.unregistered = [b for bindings in resolve(program).values()
                           for b in bindings if not registered(b)]
    return report
