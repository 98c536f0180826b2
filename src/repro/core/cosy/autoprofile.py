"""Profiling-driven automatic region marking (§2.4, implemented).

"In the future, we would like to modify Cosy to automate the job of
deciding which code should be moved to the kernel using profiling."

:func:`find_candidate_regions` scores every contiguous run of top-level
statements in a function by its estimated syscall *density* — syscalls
inside loops weighted by (known or assumed) trip counts, exactly what a
profile would report — and keeps only runs Cosy-GCC can actually compile
(verified by attempting the compilation).  :func:`auto_mark` then rewrites
the source with ``COSY_START()/COSY_END()`` around the best region, giving
the fully automatic pipeline::

    source -> profile/score -> mark -> CosyGCC().compile -> install -> run

A measured dynamic profile (``{line: hit_count}`` from a tracer) can be
supplied to replace the static loop-weight heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cminus import ast_nodes as ast
from repro.cminus.parser import parse
from repro.core.cosy.cosy_gcc import CosyGCC, _RegionCompiler
from repro.core.cosy.kernel_ext import COMPOUND_SYSCALLS
from repro.errors import CosyError

#: assumed trip count for loops whose bound is not a literal
DEFAULT_LOOP_WEIGHT = 64


@dataclass(frozen=True)
class CandidateRegion:
    """One markable statement run and its profile score."""

    func: str
    start_index: int      # index into the function body's statement list
    end_index: int        # exclusive
    start_line: int
    end_line: int
    syscall_weight: float  # estimated syscall invocations per entry

    def __str__(self) -> str:
        return (f"{self.func}: statements {self.start_index}..{self.end_index}"
                f" (lines {self.start_line}-{self.end_line}),"
                f" ~{self.syscall_weight:.0f} syscalls/run")


def _loop_trip_estimate(stmt: ast.Stmt) -> int:
    """Literal trip count when derivable (for (i=0; i<N; i++)), else default."""
    if isinstance(stmt, ast.For) and isinstance(stmt.cond, ast.BinOp):
        cond = stmt.cond
        if cond.op in ("<", "<=") and isinstance(cond.right, ast.IntLit):
            return max(1, cond.right.value + (1 if cond.op == "<=" else 0))
    if isinstance(stmt, ast.While) and isinstance(stmt.cond, ast.IntLit):
        return DEFAULT_LOOP_WEIGHT  # while(1)-style: bounded by the watchdog
    return DEFAULT_LOOP_WEIGHT


def _syscall_weight(node: ast.Node, multiplier: float,
                    profile: dict[int, int] | None) -> float:
    """Estimated syscall invocations under ``node``."""
    weight = 0.0
    if isinstance(node, ast.Call) and node.func in COMPOUND_SYSCALLS:
        if profile is not None:
            weight += profile.get(node.line, 1)
        else:
            weight += multiplier
    if isinstance(node, (ast.While, ast.For)):
        inner = multiplier if profile is not None else \
            multiplier * _loop_trip_estimate(node)
        for child in _children(node):
            weight += _syscall_weight(child, inner, profile)
        return weight
    for child in _children(node):
        weight += _syscall_weight(child, multiplier, profile)
    return weight


def _children(node: ast.Node):
    for value in vars(node).items():
        _, v = value
        if isinstance(v, ast.Node):
            yield v
        elif isinstance(v, list):
            for item in v:
                if isinstance(item, ast.Node):
                    yield item


def _compilable(program: ast.Program, fdef: ast.FuncDef,
                stmts: list[ast.Stmt]) -> bool:
    """Can Cosy-GCC compile this run?  (Attempt it and see.)"""
    try:
        _RegionCompiler(program, fdef, stmts).compile()
        return True
    except CosyError:
        return False


def find_candidate_regions(source: str, func: str = "main", *,
                           profile: dict[int, int] | None = None,
                           min_weight: float = 2.0) -> list[CandidateRegion]:
    """All compilable statement runs in ``func``, best first."""
    program = parse(source)
    fdef = program.funcs.get(func)
    if fdef is None:
        raise CosyError(f"function '{func}' not found")
    body = fdef.body.stmts
    candidates: list[CandidateRegion] = []
    for start in range(len(body)):
        for end in range(start + 1, len(body) + 1):
            run = body[start:end]
            # a Return may only appear as the final statement of the run
            if any(isinstance(s, ast.Return) for s in run[:-1]):
                continue
            weight = sum(_syscall_weight(s, 1.0, profile) for s in run)
            if weight < min_weight:
                continue
            if not _compilable(program, fdef, run):
                continue
            candidates.append(CandidateRegion(
                func=func, start_index=start, end_index=end,
                start_line=run[0].line, end_line=run[-1].line,
                syscall_weight=weight))
    # best = heaviest, then longest (amortize the trap over more work)
    candidates.sort(key=lambda c: (-c.syscall_weight,
                                   -(c.end_index - c.start_index)))
    return candidates


def auto_mark(source: str, func: str = "main", *,
              profile: dict[int, int] | None = None) -> str:
    """Insert COSY markers around the best region; returns marked source.

    Markers are inserted as real AST statements and the whole program is
    re-rendered (robust against any source formatting).  Raises
    :class:`CosyError` when nothing worth compounding is found.
    """
    from repro.cminus.render import render_program

    candidates = find_candidate_regions(source, func, profile=profile)
    if not candidates:
        raise CosyError(f"no profitable Cosy region found in '{func}'")
    best = candidates[0]
    program = parse(source)
    body = program.funcs[func].body.stmts
    body.insert(best.end_index, _marker("COSY_END"))
    body.insert(best.start_index, _marker("COSY_START"))
    return render_program(program)


def _marker(name: str) -> ast.ExprStmt:
    return ast.ExprStmt(expr=ast.Call(func=name, args=[]))


def auto_compile(source: str, func: str = "main", *,
                 profile: dict[int, int] | None = None):
    """The full automatic pipeline: profile, mark, compile."""
    return CosyGCC().compile(auto_mark(source, func, profile=profile), func)
