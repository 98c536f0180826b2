"""Property tests: the compiled C-minus engine against the tree-walker.

The tree-walking interpreter is the oracle.  For randomly generated
programs both engines must agree on *everything observable*: the return
value, the final physical-memory image, the fault raised (type, message,
and the clock at the instant it fires), KGCC check outcomes, the
simulated cycle count, the TLB's counters and LRU order, and the clock at
every access that leaves the TLB-hit fast path.  Any divergence means the
closure compiler or its batched accounting changed semantics.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cminus import (CompiledEngine, ExecLimits, Interpreter,
                          UserMemAccess, parse)
from repro.errors import ReproError
from repro.kernel import Kernel
from repro.kernel.clock import Mode
from repro.kernel.fs import RamfsSuperBlock
from repro.safety.kgcc import KgccRuntime, instrument

# ----------------------------------------------------------- program maker

_BINOPS = ["+", "-", "*", "&", "|", "^", "<", ">", "==", "!=", "<=", ">="]


@st.composite
def _exprs(draw, names, depth=0):
    """An int-valued expression over ``names`` (always-defined scalars)."""
    if depth >= 3 or draw(st.booleans()):
        if names and draw(st.booleans()):
            return draw(st.sampled_from(names))
        return str(draw(st.integers(min_value=0, max_value=1000)))
    op = draw(st.sampled_from(_BINOPS))
    left = draw(_exprs(names, depth=depth + 1))
    right = draw(_exprs(names, depth=depth + 1))
    if op in ("/", "%"):
        # guarded divide: the divisor literal is never zero
        right = str(draw(st.integers(min_value=1, max_value=99)))
    return f"({left} {op} {right})"


@st.composite
def _stmts(draw, names, ro=(), depth=0):
    """One statement.  ``names`` are writable scalars; ``ro`` holds loop
    induction variables — readable only, so every loop terminates."""
    rd = list(names) + list(ro)
    kind = draw(st.sampled_from(
        ["assign", "aug", "array", "if", "loop", "postinc"]
        if depth < 2 else ["assign", "aug", "array", "postinc"]))
    if kind == "assign":
        return f"{draw(st.sampled_from(names))} = {draw(_exprs(rd))};"
    if kind == "aug":
        op = draw(st.sampled_from(["+=", "-=", "*=", "^="]))
        return f"{draw(st.sampled_from(names))} {op} {draw(_exprs(rd))};"
    if kind == "postinc":
        return f"{draw(st.sampled_from(names))}{draw(st.sampled_from(['++', '--']))};"
    if kind == "array":
        idx = draw(st.integers(min_value=0, max_value=7))
        if draw(st.booleans()):
            return f"a[{idx}] = {draw(_exprs(rd))};"
        return f"{draw(st.sampled_from(names))} ^= a[{idx}];"
    if kind == "if":
        cond = draw(_exprs(rd))
        body = draw(_stmts(names, ro, depth=depth + 1))
        if draw(st.booleans()):
            alt = draw(_stmts(names, ro, depth=depth + 1))
            return f"if ({cond}) {{ {body} }} else {{ {alt} }}"
        return f"if ({cond}) {{ {body} }}"
    # loop: the induction variable is read-only inside the body
    n = draw(st.integers(min_value=0, max_value=6))
    var = f"i{depth}"
    inner = " ".join(draw(st.lists(
        _stmts(names, tuple(ro) + (var,), depth=depth + 1),
        min_size=1, max_size=3)))
    return f"for (int {var} = 0; {var} < {n}; {var}++) {{ {inner} }}"


@st.composite
def programs(draw):
    names = ["x", "y", "z"]
    inits = " ".join(
        f"int {n} = {draw(st.integers(min_value=-50, max_value=50))};"
        for n in names)
    body = " ".join(draw(st.lists(_stmts(names), min_size=1, max_size=6)))
    return f"""
    int g = 0;
    int main() {{
        {inits}
        int a[8];
        for (int j = 0; j < 8; j++) a[j] = j * 3;
        {body}
        g = x ^ y ^ z;
        int s = 0;
        for (int j = 0; j < 8; j++) s ^= a[j];
        return g ^ s;
    }}
    """


# ---------------------------------------------------------------- fixtures

def _observe(engine: str, src: str, *, max_ops=None, checked=False,
             flush_tlb=False):
    """Run one engine on a fresh kernel and capture everything observable.

    ``translations`` holds ``(clock, vaddr, access)`` at every
    ``MMU.translate`` entry: every access that missed the TLB, faulted or
    straddled a page, where the tracer's ``mem:tlb_miss``/``mem:fault``
    spans and the fault handlers read the clock.  ``flush_tlb`` empties
    the TLB at every statement, so such accesses land mid-expression,
    with engine ops still pending in the compiled engine."""
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("prop")
    mem = UserMemAccess(k, task)
    translations = []
    translate = k.mmu.translate

    def spy(aspace, vaddr, access):
        translations.append((k.clock.now, vaddr, access))
        return translate(aspace, vaddr, access)

    k.mmu.translate = spy
    program = parse(src)
    kwargs = {}
    runtime = None
    if checked:
        report = instrument(program)
        runtime = KgccRuntime(k, skip_names=report.unregistered)
        kwargs = dict(check_runtime=runtime, var_hooks=runtime)

    def on_op():
        k.clock.charge(k.costs.cminus_op, Mode.SYSTEM)

    cls = Interpreter if engine == "tree" else CompiledEngine
    interp = cls(program, mem, on_op=on_op,
                 step_hook=k.mmu.flush_tlb if flush_tlb else None,
                 limits=ExecLimits(max_ops=max_ops), **kwargs)
    try:
        outcome = ("ok", interp.call("main"))
    except ReproError as exc:
        outcome = (type(exc).__name__, str(exc))
    memory = {frame: bytes(data)
              for frame, data in k.mmu.physmem._data.items() if any(data)}
    checks = (runtime.checks_executed, dict(runtime.site_counts)) \
        if runtime else None
    return {
        "outcome": outcome,
        "clock": k.clock.now,
        "ops": interp.ops_executed,
        "memory": memory,
        "checks": checks,
        "translations": translations,
        "tlb": (k.mmu.tlb_hits, k.mmu.tlb_misses, list(k.mmu._tlb)),
    }


# -------------------------------------------------------------- properties

@given(programs())
@settings(max_examples=50, deadline=None)
def test_engines_agree_on_everything(src):
    assert _observe("tree", src) == _observe("compiled", src)


@given(programs(), st.integers(min_value=1, max_value=400))
@settings(max_examples=30, deadline=None)
def test_engines_agree_under_op_limits(src, max_ops):
    """Op limits trip at the identical op, clock, and memory image."""
    tree = _observe("tree", src, max_ops=max_ops)
    comp = _observe("compiled", src, max_ops=max_ops)
    assert tree == comp
    if tree["outcome"][0] == "CMinusError":
        assert tree["ops"] == max_ops + 1


@given(programs())
@settings(max_examples=25, deadline=None)
def test_engines_agree_on_check_outcomes(src):
    """KGCC-instrumented runs: same check counts at the same sites."""
    tree = _observe("tree", src, checked=True)
    comp = _observe("compiled", src, checked=True)
    assert tree == comp
    assert tree["checks"][0] > 0


@given(programs(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_slow_path_sees_the_tree_walkers_clock(src, checked):
    """With the TLB flushed at every statement, loads and stores miss
    mid-expression: the compiled engine must charge its pending ops
    before each one, so every miss sees the tree-walker's clock, and
    both engines leave the TLB in the same state."""
    tree = _observe("tree", src, checked=checked, flush_tlb=True)
    comp = _observe("compiled", src, checked=checked, flush_tlb=True)
    assert tree == comp
    assert len(tree["translations"]) > 1


@given(st.integers(min_value=-100, max_value=100),
       st.integers(min_value=0, max_value=19))
@settings(max_examples=25, deadline=None)
def test_division_faults_are_identical(num, trip):
    """A div-by-zero mid-loop faults at the same op and clock."""
    src = f"""
    int main() {{
        int d = 10;
        int s = 0;
        for (int i = 0; i < 20; i++) {{
            if (i == {trip}) d = 0;
            s += {num} / d;
        }}
        return s;
    }}
    """
    tree = _observe("tree", src)
    comp = _observe("compiled", src)
    assert tree == comp
    assert tree["outcome"][0] == "CMinusError"
    assert "division by zero" in tree["outcome"][1]


@given(st.integers(min_value=8, max_value=40))
@settings(max_examples=20, deadline=None)
def test_bounds_faults_are_identical(oob):
    """An instrumented out-of-bounds store faults identically."""
    src = f"""
    int main() {{
        int a[8];
        for (int i = 0; i < 8; i++) a[i] = i;
        a[{oob}] = 1;
        return a[0];
    }}
    """
    tree = _observe("tree", src, checked=True)
    comp = _observe("compiled", src, checked=True)
    assert tree == comp
    assert tree["outcome"][0] in ("BoundsError", "InvalidPointer")
