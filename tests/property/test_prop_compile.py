"""Property tests: the compiled C-minus engine against the tree-walker.

The tree-walking interpreter is the oracle.  For randomly generated
programs both engines must agree on *everything observable*: the return
value, the final physical-memory image, the fault raised (type, message,
and the clock at the instant it fires), KGCC check outcomes, the
simulated cycle count, the TLB's counters and LRU order, the clock at
every access that leaves the TLB-hit fast path, and the clock at every
statement.  Any divergence means the source generator or its batched
accounting changed semantics; the failure message prints the Python the
compiled engine ran.

The programs mix registers (``int``, ``char`` and pointer locals and
parameters whose address is never taken) with variables in memory,
shadow both in nested blocks, draw literals past 2**53, and call ``int``
and ``char`` helper functions, whose return values both engines convert
to the return type.  Pointer locals walk ``int`` and ``char`` arrays
(``++``/``--``, ``+=``/``-=``), are compared, subtracted, dereferenced,
passed to helpers and returned by them; one of them, ``m``, has its
address taken, so it steps and is read through memory.

A step hook may return a budget: how many more ops may run before the
compiled engine must call it again.  The deadline hook below fires once
the clock passes a moving deadline and returns the remaining slack in
ops, so a budget that outlives a flush point (a TLB miss, a check, a
call) shows as a fire the compiled engine missed.
"""

from __future__ import annotations

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cminus import (CompiledEngine, ExecLimits, Interpreter,
                          UserMemAccess, compile_program, parse)
from repro.cminus import compile as compile_module
from repro.errors import ReproError
from repro.kernel import Kernel
from repro.kernel.clock import Mode
from repro.kernel.costs import CostModel
from repro.kernel.fs import RamfsSuperBlock
from repro.safety.kgcc import KgccRuntime, instrument

# ----------------------------------------------------------- program maker

_BINOPS = ["+", "-", "*", "/", "%", "&", "|", "^", "<", ">", "==", "!=",
           "<=", ">=", "&&", "||"]
_UNOPS = ["-", "!", "~"]


@st.composite
def _exprs(draw, names, wr=(), depth=0):
    """An int-valued expression over ``names`` (always-defined scalars);
    prefix ``++``/``--`` step only the writable ``wr``."""
    if depth >= 3 or draw(st.booleans()):
        if names and draw(st.booleans()):
            return draw(st.sampled_from(names))
        return str(draw(st.one_of(st.integers(min_value=0, max_value=1000),
                                  st.integers(min_value=2**53,
                                              max_value=2**62))))
    kind = draw(st.sampled_from(["bin"] * 4 + ["un"] + (["pre"] if wr else [])))
    if kind == "un":
        operand = draw(_exprs(names, wr, depth=depth + 1))
        return f"({draw(st.sampled_from(_UNOPS))}{operand})"
    if kind == "pre":
        step = draw(st.sampled_from(["++", "--"]))
        return f"({step}{draw(st.sampled_from(wr))})"
    op = draw(st.sampled_from(_BINOPS))
    left = draw(_exprs(names, wr, depth=depth + 1))
    right = draw(_exprs(names, wr, depth=depth + 1))
    if op in ("/", "%"):
        # guarded divide: the divisor literal is never zero
        right = str(draw(st.integers(min_value=1, max_value=99)))
    return f"({left} {op} {right})"


#: main's pointers into ``a``: the register ``p``, and ``m``, whose
#: address ``pm`` holds, named directly and through ``pm``
_PTRS = ("p", "m", "(*pm)")


@st.composite
def _stmts(draw, names, ro=(), depth=0, arr="a", in_loop=False, calls=(),
           ptrs=(), pcalls=()):
    """One statement.  ``names`` are writable scalars (``c...`` ones are
    ``char``); ``ro`` holds loop counters, readable only, so every loop
    terminates.  ``arr`` points at 8 ints; ``calls`` are the helper
    functions it may call, and ``pcalls`` the pointer-returning ones.
    ``ptrs`` are pointers into ``arr``; a statement that moves one
    brings it back into ``arr`` when it leaves."""
    rd = list(names) + list(ro)
    kinds = ["assign", "assign", "aug", "aug", "array", "postinc",
             "preinc", "return"]
    if depth < 2:
        kinds += ["if", "for", "while", "block", "shadow"]
    if in_loop:
        kinds += ["jump", "jump"]
    if calls:
        kinds += ["call"]
    if ptrs:
        kinds += ["pstep", "pstep", "pstore", "pwalk", "cwalk"]
        rd += [f"({q} - {arr})" for q in ptrs] + [
            f"(*{ptrs[0]})", f"({ptrs[0]} < {ptrs[-1]})",
            f"({ptrs[1]} == {ptrs[0]})"]
    if pcalls:
        kinds += ["pret"]
    kind = draw(st.sampled_from(kinds))
    target = draw(st.sampled_from(names))

    def expr():
        return draw(_exprs(rd, names))

    def body(extra_ro=(), loop=in_loop, more=()):
        return " ".join(draw(st.lists(
            _stmts(list(names) + list(more), tuple(ro) + extra_ro,
                   depth + 1, arr, loop, calls, ptrs, pcalls),
            min_size=1, max_size=3)))

    def into(q):
        """Bring the pointer ``q`` back into ``arr``."""
        k = draw(st.integers(min_value=0, max_value=7))
        return (f"if ({q} < {arr} || {q} > {arr} + 7) "
                f"{q} = {arr} + {k};")

    if kind == "pstep":
        q = draw(st.sampled_from(ptrs))
        step = draw(st.sampled_from([
            f"{q}++;", f"{q}--;", f"++{q};", f"--{q};",
            f"{q} += {draw(st.integers(0, 3))};",
            f"{q} -= {draw(st.integers(0, 3))};",
            f"{q} = {draw(st.sampled_from(ptrs))};"]))
        return f"{step} {into(q)}"
    if kind == "pstore":
        q = draw(st.sampled_from(ptrs))
        if draw(st.booleans()):
            return f"*{q} = {expr()};"
        return f"{q}[0] ^= {expr()};"
    if kind == "pwalk":
        w = f"w{depth}"
        return (f"for (int *{w} = {arr}; {w} < {arr} + 8; "
                f"{w} += {draw(st.integers(1, 3))}) {target} ^= *{w};")
    if kind == "cwalk":
        w = f"k{depth}"
        return (f"{{ char *{w} = s8 + 8; while ({w} > s8) "
                f"{{ --{w}; *{w} += {expr()}; }} }}")
    if kind == "pret":
        f = draw(st.sampled_from(pcalls))
        q = draw(st.sampled_from(ptrs))
        return draw(st.sampled_from([
            f"{q} = {f}({arr}, {expr()});",
            f"{target} ^= *{f}({arr}, {expr()});",
            f"{target} += {f}({arr}, {expr()})[0];"]))

    if kind == "assign":
        return f"{target} = {expr()};"
    if kind == "aug":
        op = draw(st.sampled_from(["+=", "-=", "*=", "^=", "/=", "%="]))
        value = (str(draw(st.integers(min_value=1, max_value=9)))
                 if op in ("/=", "%=") else expr())
        return f"{target} {op} {value};"
    if kind == "postinc":
        return f"{target}{draw(st.sampled_from(['++', '--']))};"
    if kind == "preinc":
        return f"{draw(st.sampled_from(['++', '--']))}{target};"
    if kind == "array":
        idx = draw(st.integers(min_value=0, max_value=7))
        if draw(st.booleans()):
            return f"{arr}[{idx}] = {expr()};"
        return f"{target} ^= {arr}[{idx}];"
    if kind == "return":
        return f"if ({expr()}) return {expr()};"
    if kind == "jump":
        return f"if ({expr()}) {draw(st.sampled_from(['break', 'continue']))};"
    if kind == "call":
        ints = [n for n in names if n.isidentifier() and n[0] != "c"]
        where = [f"&{n}" for n in ints] + list(ptrs)
        return (f"{target} = {draw(st.sampled_from(calls))}"
                f"({draw(st.sampled_from(where))}, {arr}, {expr()}, "
                f"{expr()});")
    if kind == "if":
        cond = expr()
        then = body()
        if draw(st.booleans()):
            return f"if ({cond}) {{ {then} }} else {{ {body()} }}"
        return f"if ({cond}) {{ {then} }}"
    if kind == "block":
        ctype, var = draw(st.sampled_from([("int", f"b{depth}"),
                                           ("char", f"c{depth}")]))
        return f"{{ {ctype} {var} = {expr()}; {body(more=(var,))} }}"
    if kind == "shadow":
        scalars = [n for n in names if n.isidentifier()]
        if draw(st.booleans()):
            # a new array of the same name hides the one statements index
            return f"{{ int {arr}[8]; {body()} }}"
        if ptrs and draw(st.booleans()):
            # a new pointer register hides p
            k = draw(st.integers(min_value=0, max_value=7))
            return f"{{ int *{ptrs[0]} = {arr} + {k}; {body()} }}"
        var = draw(st.sampled_from(scalars))
        ctype = "char" if var[0] == "c" else "int"
        return f"{{ {ctype} {var} = {expr()}; {body()} }}"
    n = draw(st.integers(min_value=0, max_value=5))
    var = f"i{depth}" if kind == "for" else f"w{depth}"
    if kind == "for":
        return (f"for (int {var} = 0; {var} < {n}; {var}++) "
                f"{{ {body((var,), True)} }}")
    # while: the counter steps first, so `continue` cannot skip it
    return (f"{{ int {var} = 0; while ({var} < {n}) "
            f"{{ {var}++; {body((var,), True)} }} }}")


@st.composite
def _helpers(draw, name):
    """A function taking pointers into its caller's frame, and integer
    parameters it may write; it returns ``int`` or ``char``."""
    body = " ".join(draw(st.lists(
        _stmts(["t", "(*q)", "v", "c"], arr="arr"), min_size=1,
        max_size=4)))
    ret = draw(st.sampled_from(["int", "char"]))
    return (f"{ret} {name}(int *q, int *arr, int v, char c) {{ int t = v; "
            f"{body} return t ^ (*q) ^ c; }}")


@st.composite
def _pointer_helpers(draw, name):
    """A function returning a pointer to the element ``v & 7`` of the
    8-int array ``arr``, reached by a walk of its pointer register."""
    walk = draw(st.sampled_from([
        "r += v & 7;",
        "for (int i = v & 7; i > 0; i--) r++;",
        "r = r + 7; for (int i = 7 - (v & 7); i > 0; i--) --r;"]))
    return f"int *{name}(int *arr, int v) {{ int *r = arr; {walk} return r; }}"


@st.composite
def programs(draw):
    calls = tuple(f"h{i}" for i in range(draw(st.integers(0, 2))))
    pcalls = tuple(f"ph{i}" for i in range(draw(st.integers(0, 1))))
    helpers = " ".join([draw(_helpers(h)) for h in calls]
                       + [draw(_pointer_helpers(h)) for h in pcalls])
    names = ["x", "y", "z", "c"]
    inits = " ".join(
        f"{'char' if n == 'c' else 'int'} {n} = "
        f"{draw(st.integers(min_value=-50, max_value=50))};"
        for n in names)
    body = " ".join(draw(st.lists(
        _stmts(names, calls=calls, ptrs=_PTRS, pcalls=pcalls),
        min_size=1, max_size=6)))
    return f"""
    int g = {draw(st.integers(min_value=-50, max_value=50))};
    int g2 = g * 3 - 1;
    {helpers}
    int main() {{
        {inits}
        int a[8];
        for (int j = 0; j < 8; j++) a[j] = j * 3 + g2;
        char s8[8];
        for (char *k = s8; k < s8 + 8; k++) *k = k - s8 + g;
        int *p = a + {draw(st.integers(min_value=0, max_value=7))};
        int *m = a + {draw(st.integers(min_value=0, max_value=7))};
        int **pm = &m;
        {body}
        g = x ^ y ^ z ^ c ^ (p - a) * 16 ^ (m - a) * 256;
        int s = 0;
        for (int j = 0; j < 8; j++) s ^= a[j] ^ s8[j];
        return g ^ s;
    }}
    """


# ---------------------------------------------------------------- fixtures

#: the op limit of a run that sets none: far above what any generated
#: program reaches, so an engine that loops forever fails the comparison
#: instead of hanging the suite
PARITY_MAX_OPS = 200_000


@st.composite
def deadlines(draw):
    """A deadline hook's parameters: the first deadline and the period
    (cycles after engine creation, and after each fire), the cycles a
    fire charges, whether it flushes the TLB, and ``cminus_op``."""
    return {"first": draw(st.integers(min_value=0, max_value=3000)),
            "period": draw(st.integers(min_value=1, max_value=400)),
            "charge": draw(st.sampled_from([0, 0, 1, 7, 300])),
            "flush_tlb": draw(st.booleans()),
            "op": draw(st.integers(min_value=1, max_value=5))}


def _deadline_hook(k: Kernel, spec: dict, fires: list):
    """A step hook that fires once the clock reaches a deadline: it
    records the clock, may flush the TLB and charge cycles, and moves
    the deadline.  Returns the ops that may run before the deadline can
    pass, as CoSy's preemption point does."""
    deadline = k.clock.now + spec["first"]
    op = k.costs.cminus_op

    def hook() -> int:
        nonlocal deadline
        if k.clock.now >= deadline:
            fires.append(k.clock.now)
            if spec["flush_tlb"]:
                k.mmu.flush_tlb()
            if spec["charge"]:
                k.clock.charge(spec["charge"], Mode.SYSTEM)
            deadline = k.clock.now + spec["period"]
        return -(-(deadline - k.clock.now) // op)

    return hook


def _observe(engine: str, src: str, *, max_ops=PARITY_MAX_OPS,
             checked=False, flush_tlb=False, stamp=False, deadline=None):
    """Run one engine on a fresh kernel and capture everything observable.

    ``stamp`` installs a step hook recording the clock at every statement,
    where CoSy's watchdog preempts.
    ``translations`` holds ``(clock, vaddr, access)`` at every
    ``MMU.translate`` entry: every access that missed the TLB, faulted or
    straddled a page, where the tracer's ``mem:tlb_miss``/``mem:fault``
    spans and the fault handlers read the clock.  ``flush_tlb`` empties
    the TLB at every statement, so such accesses land mid-expression,
    with engine ops still pending in the compiled engine.  ``deadline``
    (see :func:`deadlines`) installs the budgeted deadline hook instead,
    and ``fires`` holds the clock at each of its fires."""
    costs = None if deadline is None else CostModel(cminus_op=deadline["op"])
    k = Kernel(costs=costs)
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
        instrument(program)
        runtime = KgccRuntime(k)
        kwargs = dict(check_runtime=runtime, var_hooks=runtime)

    def on_op_batch(n):
        k.clock.charge(n * k.costs.cminus_op, Mode.SYSTEM)

    stamps = []

    def step_hook():
        if stamp:
            stamps.append(k.clock.now)
        if flush_tlb:
            k.mmu.flush_tlb()

    fires: list[int] = []
    hook = step_hook if stamp or flush_tlb else None
    if deadline is not None:
        hook = _deadline_hook(k, deadline, fires)
    cls = Interpreter if engine == "tree" else CompiledEngine
    interp = None
    try:
        # global initializers run here, and may trip an op limit
        interp = cls(program, mem, on_op_batch=on_op_batch, step_hook=hook,
                     limits=ExecLimits(max_ops=max_ops), **kwargs)
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
        "ops": interp.ops_executed if interp is not None else None,
        "memory": memory,
        "checks": checks,
        "translations": translations,
        "tlb": (k.mmu.tlb_hits, k.mmu.tlb_misses, list(k.mmu._tlb)),
        "stamps": stamps,
        "fires": fires,
    }


def _generated(src: str, checked: bool = False) -> str:
    """The Python the compiled engine ran, for a failure message."""
    program = parse(src)
    if checked:
        instrument(program)
    return "\n".join(cf.source
                     for cf in compile_program(program).funcs.values())


def _agree(src: str, **kwargs) -> dict:
    """Both engines' observations must match; returns the tree-walker's."""
    tree = _observe("tree", src, **kwargs)
    comp = _observe("compiled", src, **kwargs)
    assert tree == comp, _generated(src, kwargs.get("checked", False))
    return tree


# -------------------------------------------------------------- properties

@given(programs(), st.booleans())
@settings(max_examples=50, deadline=None)
def test_engines_agree_on_everything(src, stamp):
    tree = _agree(src, stamp=stamp)
    assert bool(tree["stamps"]) == stamp


@given(programs(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_registers_cross_outlined_helpers(src, checked):
    """With the nesting budget forced small, nearly every statement and
    expression in a loop moves into a helper function, so registers pass
    into helpers and the ones a helper writes must come back."""
    with mock.patch.object(compile_module, "_MAX_BLOCKS", 2), \
            mock.patch.object(compile_module, "_MAX_INDENT", 4):
        _agree(src, checked=checked)


@given(programs(), st.integers(min_value=1, max_value=400), st.booleans())
@settings(max_examples=30, deadline=None)
def test_engines_agree_under_op_limits(src, max_ops, stamp):
    """Op limits trip at the identical op, clock, and memory image."""
    tree = _agree(src, max_ops=max_ops, stamp=stamp)
    if tree["outcome"][0] == "CMinusError" and tree["ops"] is not None:
        assert tree["ops"] == max_ops + 1


@given(programs(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_engines_agree_on_check_outcomes(src, stamp):
    """KGCC-instrumented runs: same check counts at the same sites."""
    tree = _agree(src, checked=True, stamp=stamp)
    assert tree["checks"][0] > 0


@given(programs(), st.booleans(), st.booleans())
@settings(max_examples=120, deadline=None)
def test_slow_path_sees_the_tree_walkers_clock(src, checked, stamp):
    """With the TLB flushed at every statement, loads and stores miss
    mid-expression: the compiled engine must charge its pending ops
    before each one, so every miss sees the tree-walker's clock, and
    both engines leave the TLB in the same state."""
    tree = _agree(src, checked=checked, flush_tlb=True, stamp=stamp)
    assert len(tree["translations"]) > 1


@given(programs(), deadlines(), st.integers(min_value=1, max_value=3000),
       st.booleans(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_budgeted_step_hook_fires_where_the_tree_walker_does(
        src, deadline, max_ops, checked, outline):
    """The compiled engine skips the hook while its budget lasts; the
    tree-walker calls it at every statement and ignores the budget.  The
    fires must land at the same clocks, under instrumentation, op limits
    and forced outlining alike."""
    with mock.patch.object(compile_module, "_MAX_BLOCKS",
                           2 if outline else compile_module._MAX_BLOCKS), \
            mock.patch.object(compile_module, "_MAX_INDENT",
                              4 if outline else compile_module._MAX_INDENT):
        _agree(src, max_ops=max_ops, checked=checked, deadline=deadline)


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
    tree = _agree(src)
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
    tree = _agree(src, checked=True)
    assert tree["outcome"][0] in ("BoundsError", "InvalidPointer")
