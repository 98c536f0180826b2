"""Selective instrumentation rules (§3.5, implemented).

"First, we intend to make the compiler capable of inserting
instrumentation based on rules such as 'instrument every operation on an
inode's reference count'. ... we plan to develop a language that
specifies code patterns that the KGCC compiler can then recognize and
instrument."

The rule language here is deliberately small: a rule selects check sites
by function-name pattern, variable-name pattern (the identifier at the
base of the checked expression), and check kind; :func:`apply_rules`
filters an instrumented program so only rule-matching checks remain live.
Rules compose as a whitelist — no rules means everything stays
instrumented (plain KGCC behaviour).

Example::

    report = instrument(program)
    apply_rules(program, report, [
        Rule(variables="*refcount*"),          # the paper's example
        Rule(functions="readdir*", kinds={"deref"}),
    ])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from repro.cminus import ast_nodes as ast
from repro.cminus.compile import bump_generation
from repro.safety.kgcc.instrument import InstrumentationReport


@dataclass(frozen=True)
class Rule:
    """One whitelist entry.  Unset fields match everything."""

    functions: str = "*"
    variables: str = "*"
    kinds: frozenset[str] = frozenset({"deref", "arith"})

    def matches(self, func: str, var: str | None, kind: str) -> bool:
        if kind not in self.kinds:
            return False
        if not fnmatchcase(func, self.functions):
            return False
        if self.variables != "*":
            if var is None or not fnmatchcase(var, self.variables):
                return False
        return True


@dataclass
class SelectiveReport:
    checks_total: int = 0
    checks_kept: int = 0
    kept_sites: set[str] = field(default_factory=set)
    #: rules that matched no check site at all — almost always a typo in
    #: the pattern (e.g. "refcont*"); surfaced via syslog as well
    unmatched_rules: list["Rule"] = field(default_factory=list)

    @property
    def checks_disabled(self) -> int:
        return self.checks_total - self.checks_kept


def _base_variable(expr: ast.Expr) -> str | None:
    """The identifier a checked expression ultimately reads through."""
    node = expr
    while True:
        if isinstance(node, ast.Check):
            node = node.inner
        elif isinstance(node, ast.Index):
            node = node.base
        elif isinstance(node, ast.Deref):
            node = node.ptr
        elif isinstance(node, ast.AddrOf):
            node = node.target
        elif isinstance(node, ast.Member):
            node = node.base
        elif isinstance(node, ast.BinOp):
            # pointer arithmetic: prefer the left operand's base
            left = _base_variable(node.left)
            if left is not None:
                return left
            node = node.right
        elif isinstance(node, ast.Ident):
            return node.name
        else:
            return None


def apply_rules(program: ast.Program, report: InstrumentationReport,
                rules: list[Rule], *,
                syslog=None) -> SelectiveReport:
    """Keep only rule-matching checks enabled; disable the rest.

    Disabled checks stay in the AST (they cost nothing at run time and can
    be re-enabled), so selective instrumentation composes with dynamic
    deinstrumentation.

    A rule that matches nothing is reported in
    :attr:`SelectiveReport.unmatched_rules` and, when a
    :class:`~repro.kernel.syslog.Syslog` is supplied, logged at
    ``KERN_WARNING`` — a dead whitelist entry usually means a misspelled
    pattern silently leaving code unprotected... or *believed* protected.
    """
    result = SelectiveReport()
    if not rules:
        for check in report.all_checks():
            result.checks_total += 1
            result.checks_kept += 1
            result.kept_sites.add(check.site)
        return result
    matched: set[int] = set()
    for func_name, func in program.funcs.items():
        for node in ast.walk(func.body):
            if not isinstance(node, ast.Check):
                continue
            result.checks_total += 1
            var = _base_variable(node.inner)
            keep = False
            for i, rule in enumerate(rules):
                if rule.matches(func_name, var, node.kind):
                    matched.add(i)
                    keep = True
            node.enabled = keep
            if keep:
                result.checks_kept += 1
                result.kept_sites.add(node.site)
    # check toggles change what the generated code must contain
    bump_generation(program)
    for i, rule in enumerate(rules):
        if i not in matched:
            result.unmatched_rules.append(rule)
            if syslog is not None:
                from repro.kernel.syslog import KERN_WARNING
                syslog.printk(
                    KERN_WARNING,
                    f"kgcc: selective rule matched no check sites: "
                    f"functions={rule.functions!r} "
                    f"variables={rule.variables!r} "
                    f"kinds={sorted(rule.kinds)}")
    return result
