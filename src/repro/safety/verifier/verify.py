"""The load-time verifier: abstract interpretation over C-minus.

For every function the verifier builds the CFG, runs a worklist fixpoint
over the combined interval × pointer-provenance domain (widening at loop
headers), and then replays one *collect* pass over the stable states to
classify every checkable site:

* ``PROVEN`` — the access is in bounds for every object the pointer can
  derive from, on every abstract path that reaches it: the runtime check
  is redundant and may be removed;
* ``UNPROVEN`` — the verifier cannot decide (unknown provenance, a
  parameter-sized object, a widened index): the runtime check must stay;
* ``VIOLATION`` — the access is out of bounds for *every* possible
  pointee whenever it executes, or dereferences a definitely
  uninitialized pointer: the function is refused at load time.

Per-function verdicts aggregate the sites (``PROVEN_SAFE`` /
``NEEDS_CHECKS`` / ``REJECT``); the *effective* verdict also folds in the
call graph, since a function is only as safe as what it calls.  With
``require_termination=True`` (the Cosy load path) an unbounded loop is
itself a ``REJECT``.

Soundness posture: abstract reachability over-approximates concrete
reachability, so a site the fixpoint never reaches is concretely dead and
a ``PROVEN`` site stays in bounds on every real execution.  Conversely a
``VIOLATION`` means "faults whenever reached" — like the eBPF verifier,
code that is wrong on an abstractly-reachable path is refused even if
that path never runs.
"""

from __future__ import annotations

import enum
import weakref
from collections import deque
from dataclasses import dataclass, field

from repro.cminus import ast_nodes as ast
from repro.cminus.ctypes import ArrayType, CType, PointerType, StructType
from repro.cminus.resolve import (Binding, generation_of, resolve,
                                  storage_root, strip_checks, type_of)
from repro.safety.verifier.cfg import (BasicBlock, CondJump, Jump,
                                       build_cfg)
from repro.safety.verifier.initcheck import (InitFacts, InitState, advance,
                                             advance_expr, definite_init)
from repro.safety.verifier.intervals import Interval
from repro.safety.verifier.provenance import (NULL_REGION, PointerValue,
                                              Region, UNKNOWN_REGION)
from repro.safety.verifier.termination import LoopBound, check_termination

#: kernel-checked library routines that may themselves raise at runtime —
#: calling one caps the caller at NEEDS_CHECKS (the fault surface moved
#: into the library, where the verifier cannot see).
CHECKED_EXTERNS = frozenset(
    {"malloc", "free", "memcpy", "memset", "strlen", "strcpy"})

#: block-visit budget per function; exceeding it degrades to NEEDS_CHECKS
MAX_BLOCK_VISITS = 10_000

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


class Verdict(enum.Enum):
    PROVEN_SAFE = "proven-safe"
    NEEDS_CHECKS = "needs-checks"
    REJECT = "reject"

    @property
    def rank(self) -> int:
        return {"reject": 0, "needs-checks": 1, "proven-safe": 2}[self.value]

    @staticmethod
    def worst(*verdicts: "Verdict") -> "Verdict":
        return min(verdicts, key=lambda v: v.rank)


class SiteStatus(enum.Enum):
    PROVEN = "proven"
    UNPROVEN = "unproven"
    VIOLATION = "violation"


@dataclass
class SiteFinding:
    """The verifier's judgement of one check site."""

    site: str            # "filename:line:kind" — matches KGCC site keys
    kind: str            # deref | arith | call
    line: int
    status: SiteStatus
    reason: str
    func: str = ""

    def describe(self) -> str:
        return f"{self.site} [{self.status.value}] {self.reason}"


@dataclass
class FunctionVerdict:
    name: str
    verdict: Verdict                       # from this function's body alone
    effective: Verdict                     # after folding in callees
    findings: list[SiteFinding] = field(default_factory=list)
    loops: list[LoopBound] = field(default_factory=list)
    calls: set[str] = field(default_factory=set)
    nodes: int = 0                         # AST size, for load-cost charging

    def _count(self, status: SiteStatus) -> int:
        return sum(1 for f in self.findings if f.status is status)

    @property
    def proven_count(self) -> int:
        return self._count(SiteStatus.PROVEN)

    @property
    def unproven_count(self) -> int:
        return self._count(SiteStatus.UNPROVEN)

    @property
    def violation_count(self) -> int:
        return self._count(SiteStatus.VIOLATION)

    def reject_reasons(self) -> list[str]:
        reasons = [f.describe() for f in self.findings
                   if f.status is SiteStatus.VIOLATION]
        reasons += [f"line {lb.line}: unbounded loop — {lb.reason}"
                    for lb in self.loops if not lb.bounded]
        return reasons

    def describe(self) -> str:
        return (f"{self.name}: {self.effective.value}"
                f" (own {self.verdict.value};"
                f" {self.proven_count} proven,"
                f" {self.unproven_count} unproven,"
                f" {self.violation_count} violations)")


@dataclass
class VerifierReport:
    """Whole-program result of :func:`verify_program`."""

    filename: str
    functions: dict[str, FunctionVerdict] = field(default_factory=dict)
    require_termination: bool = False

    # ------------------------------------------------------------- queries

    def verdict_for(self, name: str) -> Verdict:
        fv = self.functions.get(name)
        return fv.effective if fv is not None else Verdict.NEEDS_CHECKS

    def all_findings(self) -> list[SiteFinding]:
        return [f for fv in self.functions.values() for f in fv.findings]

    def site_findings(self) -> dict[str, list[SiteFinding]]:
        out: dict[str, list[SiteFinding]] = {}
        for f in self.all_findings():
            out.setdefault(f.site, []).append(f)
        return out

    def proven_sites(self) -> set[str]:
        """Site keys whose every finding is PROVEN — these runtime checks
        may be dropped.  Keys match the KGCC instrumenter's site strings."""
        proven: set[str] = set()
        for site, findings in self.site_findings().items():
            if findings and all(f.status is SiteStatus.PROVEN
                                for f in findings):
                if findings[0].kind in ("deref", "arith"):
                    proven.add(site)
        return proven

    def histogram(self) -> dict[Verdict, int]:
        out = {v: 0 for v in Verdict}
        for fv in self.functions.values():
            out[fv.effective] += 1
        return out

    @property
    def total_nodes(self) -> int:
        return sum(fv.nodes for fv in self.functions.values())

    def site_stats(self) -> tuple[int, int, int]:
        """(proven, unproven, violation) counts over deref/arith sites."""
        counts = [0, 0, 0]
        for f in self.all_findings():
            if f.kind in ("deref", "arith"):
                counts[(SiteStatus.PROVEN, SiteStatus.UNPROVEN,
                        SiteStatus.VIOLATION).index(f.status)] += 1
        return counts[0], counts[1], counts[2]

    def rejected(self) -> list[str]:
        return [name for name, fv in self.functions.items()
                if fv.effective is Verdict.REJECT]

    def render(self) -> str:
        proven, unproven, violation = self.site_stats()
        lines = [f"verifier report for {self.filename}",
                 f"  sites: {proven} proven, {unproven} unproven, "
                 f"{violation} violations"]
        for fv in sorted(self.functions.values(), key=lambda f: f.name):
            lines.append("  " + fv.describe())
            for finding in fv.findings:
                if finding.status is not SiteStatus.PROVEN:
                    lines.append("    " + finding.describe())
        return "\n".join(lines)


# --------------------------------------------------------------------------
# the per-function abstract interpreter
# --------------------------------------------------------------------------

Value = Interval | PointerValue

def _pure(expr: ast.Expr | None) -> bool:
    """Side-effect-free modulo Check wrappers (checks only observe), so
    that refining a branch on ``expr`` cannot miss a write."""
    if expr is None:
        return True
    for node in ast.walk(expr):
        if isinstance(node, (ast.Call, ast.Assign, ast.PostIncDec)):
            return False
        if isinstance(node, ast.UnOp) and node.op in ("++", "--"):
            return False
    return True


def _contains_call(expr: ast.Expr | None) -> bool:
    return expr is not None and any(isinstance(n, ast.Call)
                                    for n in ast.walk(expr))


class _Analyzer:
    def __init__(self, program: ast.Program, func: ast.FuncDef,
                 bindings: list[Binding], filename: str,
                 trusted_externs: frozenset[str]):
        self.program = program
        self.func = func
        self.filename = filename
        self.trusted = trusted_externs
        self.cfg = build_cfg(func)
        #: the function's parameters and locals, from the scope resolver
        self.bindings = bindings
        self.initfacts: InitFacts = definite_init(self.cfg, self.bindings)

        # analysis products
        self.findings: list[SiteFinding] = []
        self.calls: set[str] = set()
        self.budget_exceeded = False

        # collect-pass machinery
        self._collecting = False
        self._classify_enabled = True
        self._cur_init: dict[Binding, InitState] = {}
        self._site_override: ast.Check | None = None
        self._last_addr: PointerValue | None = None

    # ----------------------------------------------------------- utilities

    @staticmethod
    def _tracked(b: Binding | None) -> bool:
        """Whether the abstract state holds ``b``'s value: a local or
        parameter that is neither an array nor a struct."""
        return (b is not None and b.kind != "global"
                and not isinstance(b.ctype, (ArrayType, StructType)))

    def _tracked_var(self, expr: ast.Expr | None) -> Binding | None:
        """The tracked variable ``expr`` names, through checks."""
        b = getattr(strip_checks(expr), "binding", None) \
            if expr is not None else None
        return b if self._tracked(b) else None

    @staticmethod
    def _region(b: Binding) -> Region:
        """The storage of variable ``b``."""
        kind = "global" if b.kind == "global" else "local"
        return Region(kind, b.name, b.ctype.size, b)

    def _default(self, ctype: CType | None) -> Value:
        if isinstance(ctype, (PointerType, ArrayType)):
            return PointerValue.unknown()
        return Interval.top()

    def _fits_scope(self, value: Value, target: Binding) -> Value:
        """Demote a pointer stored into ``target`` if any pointee is a
        local whose scope does not enclose the target's scope: the pointee
        dies first, and a later dereference through the target would hit
        freed stack storage (KGCC faults it — so must never be PROVEN)."""
        if not isinstance(value, PointerValue):
            return value
        for region, _ in value.pointees:
            d = region.decl
            if region.kind == "local" and d is not None \
                    and target.scope[:len(d.scope)] != d.scope:
                return PointerValue.unknown()
        return value

    def _coerce(self, value: Value, ctype: CType | None) -> Value:
        if isinstance(ctype, (PointerType, ArrayType)):
            if isinstance(value, PointerValue):
                return value
            if isinstance(value, Interval) and value.is_const \
                    and value.lo == 0:
                return PointerValue.to_region(NULL_REGION)
            return PointerValue.unknown()
        if isinstance(value, Interval):
            return value
        return Interval.top()

    def _demote_freed(self, value: Value) -> Value:
        """A call may free heap objects (and, pathologically, string
        storage): forget that provenance."""
        if not isinstance(value, PointerValue):
            return value
        if all(r.kind not in ("heap", "string") for r, _ in value.pointees):
            return value
        pointees = tuple(
            (UNKNOWN_REGION, Interval.top()) if r.kind in ("heap", "string")
            else (r, iv)
            for r, iv in value.pointees)
        return PointerValue(pointees)

    def _havoc_calls(self, state: dict[Binding, Value]) -> None:
        """At any call: address-taken locals may be rewritten through
        aliases, heap objects may be freed.  (A scalar passed by value
        cannot change.)"""
        for b in list(state):
            state[b] = self._default(b.ctype) if b.addr_taken \
                else self._demote_freed(state[b])

    def _havoc_store(self, state: dict[Binding, Value],
                     addr: PointerValue | None) -> None:
        """A store through ``addr`` may hit any address-taken variable the
        pointer can alias."""
        if addr is None or addr.is_unknown or any(
                r.kind == "param" for r, _ in addr.pointees):
            hit = [b for b in state if b.addr_taken]
        else:
            pointees = {r.decl for r, _ in addr.pointees}
            hit = [b for b in state if b in pointees]
        for b in hit:
            state[b] = self._default(b.ctype)

    # -------------------------------------------------------------- sites

    def _record(self, site: str, kind: str, line: int, status: SiteStatus,
                reason: str) -> None:
        if self._collecting and self._classify_enabled:
            self.findings.append(SiteFinding(
                site=site, kind=kind, line=line, status=status,
                reason=reason, func=self.func.name))

    def _classify_deref(self, node: ast.Expr, addr: PointerValue | None,
                        access_size: int, site: str, line: int,
                        ptr_expr: ast.Expr) -> None:
        if not (self._collecting and self._classify_enabled):
            return
        ptr = self._tracked_var(ptr_expr)
        if ptr is not None and not isinstance(ptr.ctype, PointerType):
            ptr = None
        init = self._cur_init.get(ptr, InitState.INIT) if ptr else None
        if ptr is not None and init is InitState.UNINIT:
            self._record(site, "deref", line, SiteStatus.VIOLATION,
                         f"pointer '{ptr.name}' is used before "
                         f"initialization on every path")
            return
        if addr is None:
            self._record(site, "deref", line, SiteStatus.UNPROVEN,
                         "address has no computable provenance")
            return
        statuses: list[tuple[SiteStatus, str]] = []
        for region, iv in addr.pointees:
            statuses.append(self._judge_access(region, iv, access_size,
                                               one_past=False))
        status, reason = self._merge_judgements(statuses)
        if status is SiteStatus.PROVEN and ptr is not None \
                and init is InitState.MAYBE:
            status, reason = SiteStatus.UNPROVEN, (
                f"pointer '{ptr.name}' may be uninitialized on some path")
        self._record(site, "deref", line, status, reason)

    def _classify_arith(self, result: PointerValue, site: str,
                        line: int) -> None:
        if not (self._collecting and self._classify_enabled):
            return
        statuses = [self._judge_access(region, iv, 0, one_past=True)
                    for region, iv in result.pointees]
        status, reason = self._merge_judgements(statuses)
        # arithmetic that strays is legal (an OOB peer is made); removing
        # the check is only safe when the result provably needs no peer,
        # so a would-be VIOLATION is merely unproven here
        if status is SiteStatus.VIOLATION:
            status = SiteStatus.UNPROVEN
        self._record(site, "arith", line, status, reason)

    def _judge_access(self, region: Region, offset: Interval,
                      access_size: int,
                      one_past: bool) -> tuple[SiteStatus, str]:
        if not region.provable:
            return SiteStatus.UNPROVEN, (
                f"object size unknown at load time: {region.describe()}")
        assert region.size is not None
        limit = region.size - access_size if not one_past else region.size
        lo_ok = offset.definitely_ge(0)
        hi_ok = offset.hi is not None and offset.hi <= limit
        if lo_ok and hi_ok:
            return SiteStatus.PROVEN, (
                f"offset {offset} within {region.describe()}")
        if (offset.hi is not None and offset.hi < 0) or \
                (offset.lo is not None and offset.lo > limit):
            return SiteStatus.VIOLATION, (
                f"offset {offset} is out of bounds for {region.describe()}"
                f" (valid: [0, {limit}])")
        return SiteStatus.UNPROVEN, (
            f"offset {offset} may leave {region.describe()}"
            f" (valid: [0, {limit}])")

    @staticmethod
    def _merge_judgements(statuses: list[tuple[SiteStatus, str]]
                          ) -> tuple[SiteStatus, str]:
        if not statuses:
            return SiteStatus.UNPROVEN, "pointer has no provenance"
        if all(s is SiteStatus.PROVEN for s, _ in statuses):
            return SiteStatus.PROVEN, "; ".join(r for _, r in statuses)
        if all(s is SiteStatus.VIOLATION for s, _ in statuses):
            return SiteStatus.VIOLATION, "; ".join(r for _, r in statuses)
        for s, r in statuses:
            if s is not SiteStatus.PROVEN:
                return SiteStatus.UNPROVEN, r
        return SiteStatus.UNPROVEN, "unprovable"

    def _site_key(self, kind: str, line: int) -> str:
        return f"{self.filename}:{line}:{kind}"

    # --------------------------------------------------------- evaluation

    def eval(self, expr: ast.Expr | None,
             state: dict[Binding, Value]) -> Value:
        if expr is None:
            return Interval.top()
        method = getattr(self, "_eval_" + type(expr).__name__, None)
        if method is None:
            return Interval.top()
        return method(expr, state)

    def _eval_IntLit(self, expr: ast.IntLit, state) -> Value:
        return Interval.const(expr.value)

    def _eval_StrLit(self, expr: ast.StrLit, state) -> Value:
        region = Region("string", repr(expr.value), len(expr.value) + 1)
        return PointerValue.to_region(region)

    def _eval_Ident(self, expr: ast.Ident, state) -> Value:
        b = expr.binding
        if b is None:
            return Interval.top()
        if isinstance(b.ctype, (ArrayType, StructType)):
            return PointerValue.to_region(self._region(b))
        return state[b] if b in state else self._default(b.ctype)

    def _eval_SizeOf(self, expr: ast.SizeOf, state) -> Value:
        if expr.ctype is not None:
            return Interval.const(expr.ctype.size)
        t = type_of(expr.expr) if expr.expr is not None else None
        return Interval.const(t.size) if t is not None else Interval.top()

    def _eval_Check(self, expr: ast.Check, state) -> Value:
        prev = self._site_override
        self._site_override = expr
        try:
            return self.eval(expr.inner, state)
        finally:
            self._site_override = prev

    def _take_site(self, kind: str, line: int) -> tuple[str, int, int | None]:
        """Site key + line + instrumented access size for the node being
        classified (uses the wrapping Check if present)."""
        check = self._site_override
        self._site_override = None
        if check is not None and check.kind == kind:
            return check.site, check.line, check.access_size
        return self._site_key(kind, line), line, None

    def _access_size_of(self, expr: ast.Expr) -> int:
        t = type_of(expr)
        return t.size if t is not None and t.size > 0 else 1

    def _elem_size(self, expr: ast.Expr) -> int | None:
        """Byte stride for pointer arithmetic on ``expr``'s value."""
        t = type_of(expr)
        if isinstance(t, PointerType):
            return max(1, t.pointee.size)
        if isinstance(t, ArrayType):
            return max(1, t.elem.size)
        return None

    def _address_of(self, expr: ast.Expr,
                    state) -> tuple[PointerValue | None, ast.Expr]:
        """(abstract address, pointer subexpression) of an lvalue access.
        Returns ``None`` address when provenance is not computable."""
        if isinstance(expr, ast.Deref):
            pv = self.eval(expr.ptr, state)
            return (pv if isinstance(pv, PointerValue) else None), expr.ptr
        if isinstance(expr, ast.Index):
            base = self.eval(expr.base, state)
            idx = self.eval(expr.index, state)
            if _contains_call(expr.index) and isinstance(base, PointerValue):
                # the index expression may have freed what base points at
                base = self._demote_freed(base)
            elem = type_of(expr)
            if not isinstance(base, PointerValue) or elem is None \
                    or not isinstance(idx, Interval):
                return None, expr.base
            stride = max(1, elem.size)
            return base.shift(idx.mul(Interval.const(stride))), expr.base
        if isinstance(expr, ast.Member) and expr.arrow:
            base = self.eval(expr.base, state)
            t = type_of(expr.base)
            struct = t.pointee if isinstance(t, PointerType) else None
            if not isinstance(base, PointerValue) \
                    or not isinstance(struct, StructType):
                return None, expr.base
            try:
                offset, _ftype = struct.field(expr.field_name)
            except KeyError:
                return None, expr.base
            return base.shift(Interval.const(offset)), expr.base
        return None, expr

    def _eval_access(self, expr: ast.Expr, state) -> Value:
        """Shared read path for Deref / Index / Member(arrow)."""
        site, line, isize = self._take_site("deref", expr.line)
        addr, ptr_expr = self._address_of(expr, state)
        access_size = isize if isize is not None \
            else self._access_size_of(expr)
        self._classify_deref(expr, addr, access_size, site, line, ptr_expr)
        self._last_addr = addr
        return self._default(type_of(expr))

    def _eval_Deref(self, expr: ast.Deref, state) -> Value:
        return self._eval_access(expr, state)

    def _eval_Index(self, expr: ast.Index, state) -> Value:
        return self._eval_access(expr, state)

    def _eval_Member(self, expr: ast.Member, state) -> Value:
        if expr.arrow:
            return self._eval_access(expr, state)
        base = self.eval(expr.base, state)  # x.f: no dereference, no check
        struct, ftype = type_of(expr.base), type_of(expr)
        if isinstance(base, PointerValue) and isinstance(struct, StructType) \
                and isinstance(ftype, (ArrayType, StructType)):
            # an array or struct field decays to its address, ``&x.f``
            return base.shift(Interval.const(
                struct.field(expr.field_name)[0]))
        return self._default(ftype)

    def _eval_AddrOf(self, expr: ast.AddrOf, state) -> Value:
        target = strip_checks(expr.target)
        if isinstance(target, ast.Ident):
            if target.binding is not None:
                return PointerValue.to_region(self._region(target.binding))
            return PointerValue.unknown()
        if isinstance(target, ast.Index):
            base = self.eval(target.base, state)
            idx = self.eval(target.index, state)
            elem = type_of(target)
            if isinstance(base, PointerValue) and elem is not None \
                    and isinstance(idx, Interval):
                return base.shift(idx.mul(Interval.const(max(1, elem.size))))
            return PointerValue.unknown()
        if isinstance(target, ast.Deref):
            pv = self.eval(target.ptr, state)
            return pv if isinstance(pv, PointerValue) \
                else PointerValue.unknown()
        if isinstance(target, ast.Member):
            addr, _ = self._address_of(
                ast.Member(line=target.line, base=target.base,
                           field_name=target.field_name, arrow=True)
                if target.arrow else target, state)
            if target.arrow and addr is not None:
                return addr
            if not target.arrow:
                base = self.eval(ast.AddrOf(line=target.line,
                                            target=target.base), state)
                t = type_of(target.base)
                if isinstance(base, PointerValue) \
                        and isinstance(t, StructType):
                    try:
                        offset, _ = t.field(target.field_name)
                        return base.shift(Interval.const(offset))
                    except KeyError:
                        pass
        return PointerValue.unknown()

    def _eval_BinOp(self, expr: ast.BinOp, state) -> Value:
        left = self.eval(expr.left, state)
        if _contains_call(expr.right) and isinstance(left, PointerValue):
            # the right side may free what the left points at
            left = self._demote_freed(left)
        right = self.eval(expr.right, state)
        op = expr.op

        if op in _CMP_OPS:
            if isinstance(left, Interval) and isinstance(right, Interval):
                return left.cmp(op, right)
            return Interval(0, 1)
        if op in ("&&", "||"):
            return Interval(0, 1)

        if op in ("+", "-") and isinstance(type_of(expr), PointerType):
            # every pointer +/- is an arith site: KGCC checks each one
            result = self._ptr_arith(expr, left, right)
            site, line, _ = self._take_site("arith", expr.line)
            self._classify_arith(result, site, line)
            return result
        if isinstance(left, PointerValue) or isinstance(right, PointerValue):
            return Interval.top()

        assert isinstance(left, Interval) and isinstance(right, Interval)
        if op == "+":
            return left.add(right)
        if op == "-":
            return left.sub(right)
        if op == "*":
            return left.mul(right)
        if op == "/":
            return left.div(right)
        if op == "%":
            return left.mod(right)
        if op == "&":
            if right.is_const and right.lo is not None and right.lo >= 0:
                return Interval(0, right.lo)
            if left.is_const and left.lo is not None and left.lo >= 0:
                return Interval(0, left.lo)
        return Interval.top()

    def _ptr_arith(self, expr: ast.BinOp, left: Value,
                   right: Value) -> PointerValue:
        """``p + n``, ``n + p`` or ``p - n``."""
        ptr, num = (left, right) if isinstance(left, PointerValue) \
            else (right, left)
        stride = self._elem_size(expr)
        if not isinstance(ptr, PointerValue) \
                or not isinstance(num, Interval) or stride is None:
            return PointerValue.unknown()
        delta = num.mul(Interval.const(stride))
        return ptr.shift(delta.neg() if expr.op == "-" else delta)

    def _eval_UnOp(self, expr: ast.UnOp, state) -> Value:
        if expr.op in ("++", "--"):
            return self._incdec(expr.operand, expr.op, state, prefix=True)
        operand = self.eval(expr.operand, state)
        if expr.op == "-" and isinstance(operand, Interval):
            return operand.neg()
        if expr.op == "!":
            return Interval(0, 1)
        return Interval.top()

    def _eval_PostIncDec(self, expr: ast.PostIncDec, state) -> Value:
        return self._incdec(expr.target, expr.op, state, prefix=False)

    def _incdec(self, target: ast.Expr, op: str, state,
                *, prefix: bool) -> Value:
        b = self._tracked_var(target)
        if b is None:
            self._store(target, state)
            return Interval.top()
        old = state.get(b, self._default(b.ctype))
        step = 1 if op == "++" else -1
        if isinstance(old, PointerValue):
            stride = self._elem_size(target) or 1
            new: Value = old.shift(Interval.const(step * stride))
        elif isinstance(old, Interval):
            new = old.add(Interval.const(step))
        else:
            new = Interval.top()
        state[b] = new
        return new if prefix else old

    def _eval_Assign(self, expr: ast.Assign, state) -> Value:
        value = self.eval(expr.value, state)
        b = self._tracked_var(expr.target)
        if b is None:
            self._store(expr.target, state)
            return value
        if expr.op:
            old = state.get(b, self._default(b.ctype))
            value = self._compound(old, expr.op, value, expr.target)
        state[b] = self._coerce(self._fits_scope(value, b), b.ctype)
        return state[b]

    def _store(self, target: ast.Expr, state) -> None:
        """Evaluate the lvalue of a store to anything but a tracked
        variable, which classifies its check.  A store into a variable's
        own storage (``x.f``, ``a[i]`` of an array: untracked, and it
        faults before it leaves ``x``) aliases nothing; through a pointer
        the address is latched (one evaluation only) and the store
        forgets every variable it may alias."""
        bare = strip_checks(target)
        if storage_root(bare) is not None:
            self.eval(target, state)
        elif isinstance(bare, (ast.Deref, ast.Index, ast.Member)):
            self._last_addr = None
            self.eval(target, state)
            self._havoc_store(state, self._last_addr)

    def _compound(self, old: Value, op: str, value: Value,
                  target: ast.Expr) -> Value:
        if isinstance(old, PointerValue) and op in ("+", "-") \
                and isinstance(value, Interval):
            stride = self._elem_size(target) or 1
            delta = value.mul(Interval.const(stride))
            return old.shift(delta if op == "+" else delta.neg())
        if isinstance(old, Interval) and isinstance(value, Interval):
            if op == "+":
                return old.add(value)
            if op == "-":
                return old.sub(value)
            if op == "*":
                return old.mul(value)
            if op == "/":
                return old.div(value)
            if op == "%":
                return old.mod(value)
        return Interval.top() if isinstance(old, Interval) \
            else PointerValue.unknown()

    def _eval_Call(self, expr: ast.Call, state) -> Value:
        arg_values = [self.eval(a, state) for a in expr.args]
        self._havoc_calls(state)

        name = expr.func
        line = expr.line
        if name in self.program.funcs:
            self.calls.add(name)
        elif name == "malloc":
            size = arg_values[0] if arg_values else Interval.top()
            if isinstance(size, Interval) and size.is_const \
                    and size.lo is not None and size.lo > 0:
                region = Region("heap", f"malloc@{line}", size.lo)
                return PointerValue.to_region(region)
            self._record(self._site_key("call", line), "call", line,
                         SiteStatus.UNPROVEN,
                         "malloc with unproven-positive size may fault")
        elif name in CHECKED_EXTERNS:
            self._record(self._site_key("call", line), "call", line,
                         SiteStatus.UNPROVEN,
                         f"call to checked extern '{name}' may fault "
                         f"at runtime")
        elif name not in self.trusted:
            self._record(self._site_key("call", line), "call", line,
                         SiteStatus.UNPROVEN,
                         f"call to unknown extern '{name}'")
        fdef = self.program.funcs.get(name)
        if fdef is not None:
            return self._default(fdef.ret_type)
        return Interval.top()

    # ----------------------------------------------------------- transfer

    def _transfer(self, block: BasicBlock, state: dict[Binding, Value],
                  ) -> list[tuple[int, dict[Binding, Value]]]:
        state = dict(state)
        if self._collecting:
            entry_init = self.initfacts.entry_states.get(block.bid, {})
            self._cur_init = dict(entry_init)
        for stmt in block.stmts:
            self._exec_stmt(stmt, state)
            if self._collecting:
                advance(self._cur_init, stmt)
        term = block.term
        if isinstance(term, Jump):
            return [(term.target, state)]
        if isinstance(term, CondJump):
            self.eval(term.cond, state)
            if self._collecting:
                advance_expr(self._cur_init, term.cond)
            out: list[tuple[int, dict[Binding, Value]]] = []
            t_state = self._refine(term.cond, state, True)
            f_state = self._refine(term.cond, state, False)
            if t_state is not None:
                out.append((term.then_target, t_state))
            if f_state is not None:
                out.append((term.else_target, f_state))
            return out
        return []  # Ret: the Return stmt in block.stmts already evaluated

    def _exec_stmt(self, stmt: ast.Stmt, state: dict[Binding, Value]) -> None:
        if isinstance(stmt, ast.VarDecl):
            b = stmt.binding
            if stmt.init is not None:
                value = self.eval(stmt.init, state)
                if self._tracked(b):
                    state[b] = self._coerce(self._fits_scope(value, b),
                                            b.ctype)
            elif self._tracked(b):
                state[b] = self._default(b.ctype)
        elif isinstance(stmt, ast.ExprStmt):
            self.eval(stmt.expr, state)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval(stmt.value, state)

    # --------------------------------------------------------- refinement

    def _refine(self, cond: ast.Expr, state: dict[Binding, Value],
                branch: bool) -> dict[Binding, Value] | None:
        """State for one branch of ``cond``; None when infeasible."""
        if not _pure(cond):
            return dict(state)
        new = dict(state)
        feasible = self._refine_into(cond, new, branch)
        return new if feasible else None

    def _refine_into(self, cond: ast.Expr, state: dict[Binding, Value],
                     branch: bool) -> bool:
        cond = strip_checks(cond)
        if isinstance(cond, ast.UnOp) and cond.op == "!":
            return self._refine_into(cond.operand, state, not branch)
        if isinstance(cond, ast.BinOp) and cond.op == "&&" and branch:
            return (self._refine_into(cond.left, state, True)
                    and self._refine_into(cond.right, state, True))
        if isinstance(cond, ast.BinOp) and cond.op == "||" and not branch:
            return (self._refine_into(cond.left, state, False)
                    and self._refine_into(cond.right, state, False))
        if isinstance(cond, ast.IntLit):
            truth = cond.value != 0
            return truth == branch
        var = self._tracked_var(cond)
        if var is not None:
            cur = state.get(var)
            if isinstance(cur, Interval):
                refined = self._refine_truthy(cur, branch)
                if refined.empty:
                    return False
                state[var] = refined
            elif isinstance(cur, PointerValue):
                return self._refine_null(var, cur, branch, state)
            return True
        if isinstance(cond, ast.BinOp) and cond.op in ("==", "!="):
            for side, zero in ((cond.left, cond.right),
                               (cond.right, cond.left)):
                var, zero = self._tracked_var(side), strip_checks(zero)
                if var is not None and isinstance(zero, ast.IntLit) \
                        and zero.value == 0:
                    cur = state.get(var)
                    if isinstance(cur, PointerValue):
                        nonnull = (cond.op == "!=") == branch
                        return self._refine_null(var, cur, nonnull, state)
        if isinstance(cond, ast.BinOp) and cond.op in _CMP_OPS:
            op = cond.op if branch else self._negate(cond.op)
            ok = self._refine_cmp(cond.left, op, cond.right, state)
            if ok is False:
                return False
            ok2 = self._refine_cmp(cond.right, self._flip(op), cond.left,
                                   state)
            return ok2 is not False
        return True

    @staticmethod
    def _negate(op: str) -> str:
        return {"<": ">=", "<=": ">", ">": "<=", ">=": "<",
                "==": "!=", "!=": "=="}[op]

    @staticmethod
    def _flip(op: str) -> str:
        return {"<": ">", ">": "<", "<=": ">=", ">=": "<=",
                "==": "==", "!=": "!="}[op]

    @staticmethod
    def _refine_null(var: Binding, pv: PointerValue, nonnull: bool,
                     state: dict[Binding, Value]) -> bool:
        """Refine a tracked pointer under a null test.  Returns False when
        the branch is infeasible (pointer is definitely null)."""
        if nonnull:
            kept = tuple((r, iv) for r, iv in pv.pointees
                         if r.kind != "null")
            if not kept:
                return False
            state[var] = PointerValue(kept)
        else:
            # p == 0: on this branch the value is exactly null
            state[var] = PointerValue.to_region(NULL_REGION)
        return True

    @staticmethod
    def _refine_truthy(iv: Interval, truthy: bool) -> Interval:
        if not truthy:
            return iv.meet(Interval.const(0))
        if iv.lo == 0:
            return Interval(1, iv.hi)
        if iv.hi == 0:
            return Interval(iv.lo, -1)
        return iv

    def _refine_cmp(self, lhs: ast.Expr, op: str, rhs: ast.Expr,
                    state: dict[Binding, Value]) -> bool | None:
        """Refine ``lhs`` (an Ident) under ``lhs op rhs``.  Returns False
        when the branch is infeasible, None when not applicable."""
        var = self._tracked_var(lhs)
        if var is None:
            return None
        cur = state.get(var)
        if not isinstance(cur, Interval):
            return None
        was_collecting = self._classify_enabled
        self._classify_enabled = False
        try:
            bound = self.eval(rhs, dict(state))
        finally:
            self._classify_enabled = was_collecting
        if not isinstance(bound, Interval):
            return None
        allowed = Interval.top()
        if op == "<" and bound.hi is not None:
            allowed = Interval(None, bound.hi - 1)
        elif op == "<=" and bound.hi is not None:
            allowed = Interval(None, bound.hi)
        elif op == ">" and bound.lo is not None:
            allowed = Interval(bound.lo + 1, None)
        elif op == ">=" and bound.lo is not None:
            allowed = Interval(bound.lo, None)
        elif op == "==":
            allowed = bound
        refined = cur.meet(allowed)
        if refined.empty:
            return False
        state[var] = refined
        return True

    # ------------------------------------------------------------ fixpoint

    def _initial_state(self) -> dict[Binding, Value]:
        state: dict[Binding, Value] = {}
        for b in self.bindings:
            if not self._tracked(b):
                continue
            if b.kind == "param" and isinstance(b.ctype, PointerType):
                state[b] = PointerValue.to_region(
                    Region("param", b.name, None))
            else:
                state[b] = self._default(b.ctype)
        return state

    @staticmethod
    def _join_states(a: dict[Binding, Value], b: dict[Binding, Value],
                     *, widen: bool) -> dict[Binding, Value]:
        out: dict[Binding, Value] = {}
        for var in a.keys() | b.keys():
            va, vb = a.get(var), b.get(var)
            if va is None or vb is None or type(va) is not type(vb):
                out[var] = (va or vb) if (va is None or vb is None) \
                    else (Interval.top() if isinstance(va, Interval)
                          else PointerValue.unknown())
                continue
            if widen:
                out[var] = va.widen(vb)  # type: ignore[arg-type]
            else:
                out[var] = va.join(vb)   # type: ignore[arg-type]
        return out

    def run(self) -> tuple[dict[int, dict[Binding, Value]], bool]:
        """Worklist fixpoint; returns (block entry states, budget_ok)."""
        entry_states: dict[int, dict[Binding, Value]] = {
            self.cfg.entry: self._initial_state()}
        visits: dict[int, int] = {}
        worklist: deque[int] = deque([self.cfg.entry])
        budget = MAX_BLOCK_VISITS
        while worklist:
            budget -= 1
            if budget <= 0:
                self.budget_exceeded = True
                return entry_states, False
            bid = worklist.popleft()
            block = self.cfg.blocks[bid]
            for succ, out_state in self._transfer(block, entry_states[bid]):
                prev = entry_states.get(succ)
                if prev is None:
                    entry_states[succ] = out_state
                    visits[succ] = 1
                    worklist.append(succ)
                    continue
                joined = self._join_states(prev, out_state, widen=False)
                use_widen = (self.cfg.blocks[succ].is_loop_header
                             and visits.get(succ, 0) >= 2)
                if use_widen:
                    joined = self._join_states(prev, joined, widen=True)
                if joined != prev:
                    entry_states[succ] = joined
                    visits[succ] = visits.get(succ, 0) + 1
                    worklist.append(succ)
        return entry_states, True

    def collect(self, entry_states: dict[int, dict[Binding, Value]]) -> None:
        """Replay every reachable block once, recording site findings."""
        self._collecting = True
        try:
            for bid in self.cfg.rpo():
                if bid in entry_states:
                    self._transfer(self.cfg.blocks[bid], entry_states[bid])
        finally:
            self._collecting = False


# --------------------------------------------------------------------------
# whole-program driver
# --------------------------------------------------------------------------

def _analyze_function(program: ast.Program, func: ast.FuncDef,
                      bindings: list[Binding], filename: str,
                      trusted_externs: frozenset[str],
                      require_termination: bool) -> FunctionVerdict:
    analyzer = _Analyzer(program, func, bindings, filename, trusted_externs)
    entry_states, budget_ok = analyzer.run()
    if budget_ok:
        analyzer.collect(entry_states)
    loops = check_termination(func.body)
    findings = analyzer.findings
    if not budget_ok:
        findings = [SiteFinding(
            site=f"{filename}:{func.body.line}:budget", kind="budget",
            line=func.body.line, status=SiteStatus.UNPROVEN,
            reason="analysis budget exceeded; keeping all checks",
            func=func.name)]

    if any(f.status is SiteStatus.VIOLATION for f in findings):
        verdict = Verdict.REJECT
    elif require_termination and any(not lb.bounded for lb in loops):
        verdict = Verdict.REJECT
    elif any(f.status is SiteStatus.UNPROVEN for f in findings):
        verdict = Verdict.NEEDS_CHECKS
    else:
        verdict = Verdict.PROVEN_SAFE

    return FunctionVerdict(
        name=func.name, verdict=verdict, effective=verdict,
        findings=findings, loops=loops, calls=analyzer.calls,
        nodes=sum(1 for _ in ast.walk(func.body)))


def verify_program(program: ast.Program, filename: str = "<kgcc>", *,
                   require_termination: bool = False,
                   trusted_externs: frozenset[str] = frozenset()
                   ) -> VerifierReport:
    """Verify every function in ``program``.

    ``filename`` must match the name given to the KGCC instrumenter so
    that synthesized site keys line up with instrumented ones.  Programs
    may be verified before or after instrumentation: ``Check`` wrappers
    are transparent to the analysis and contribute their site strings.
    Every variable is the scope resolver's binding of its declaration.
    """
    report = VerifierReport(filename=filename,
                            require_termination=require_termination)
    bindings = resolve(program)
    for func in program.funcs.values():
        report.functions[func.name] = _analyze_function(
            program, func, bindings[func.name], filename, trusted_externs,
            require_termination)

    # effective verdict: a function is only as safe as its callees
    changed = True
    while changed:
        changed = False
        for fv in report.functions.values():
            eff = fv.effective
            for callee in fv.calls:
                callee_fv = report.functions.get(callee)
                if callee_fv is not None:
                    eff = Verdict.worst(eff, callee_fv.effective)
            if eff is not fv.effective:
                fv.effective = eff
                changed = True
    return report


class LoadTimeVerifier:
    """The module-loader's hook: verify at ``register_function`` time.

    Constructed by the host (e.g. handed to
    :class:`~repro.core.cosy.kernel_ext.CosyKernelExtension`); Cosy
    compounds must additionally prove every loop bounded, so
    ``require_termination`` defaults to True here.
    """

    def __init__(self, *, require_termination: bool = True,
                 filename: str = "<cosy>",
                 trusted_externs: frozenset[str] = frozenset()):
        self.require_termination = require_termination
        self.filename = filename
        self.trusted_externs = trusted_externs
        #: id(program) -> (weak reference to it, its generation, report),
        #: keyed as :class:`~repro.cminus.compile.CodeCache` keys code: a
        #: new program at a dead one's address, or a program rewritten
        #: since (its generation bumped), is verified afresh
        self._cache: dict[int, tuple[weakref.ref, int, VerifierReport]] = {}

    def verify(self, program: ast.Program) -> VerifierReport:
        gen = generation_of(program)
        entry = self._cache.get(id(program))
        if entry is not None and entry[0]() is program and entry[1] == gen:
            return entry[2]
        report = verify_program(
            program, self.filename,
            require_termination=self.require_termination,
            trusted_externs=self.trusted_externs)
        self._cache[id(program)] = (weakref.ref(program), gen, report)
        return report

    def verdict_for(self, program: ast.Program,
                    func_name: str) -> FunctionVerdict:
        report = self.verify(program)
        fv = report.functions.get(func_name)
        if fv is None:
            return FunctionVerdict(name=func_name,
                                   verdict=Verdict.NEEDS_CHECKS,
                                   effective=Verdict.NEEDS_CHECKS)
        return fv
