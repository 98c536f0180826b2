"""KGCC arith checks on both C-minus engines.

An arith check is a check on the pointer ``+``/``-`` the engine has just
evaluated: the operands are evaluated once, whatever they compute, and
the runtime gets the pointer operand's value as the base it attributes
the result to (§3.4).  So every pointer sum is checked, side effects
happen once, and the check itself costs no C-minus operation.
"""

import pytest

from repro.cminus import CompiledEngine, Interpreter, parse
from repro.cminus.memaccess import KernelMemAccess
from repro.errors import ReproError
from repro.kernel import Kernel, Mode
from repro.safety.kgcc import KgccRuntime, instrument

ENGINES = [Interpreter, CompiledEngine]


def _run(src: str, cls, *, runtime: bool = True, disabled: bool = False):
    """Instrument ``src`` and run ``main``: (result or error type,
    ops_executed, arith check sites, the runtime or None)."""
    k = Kernel()
    k.spawn("t")
    program = parse(src)
    report = instrument(program, "t.c")
    for check in report.all_checks():
        check.enabled = not disabled
    rt = KgccRuntime(k, mode=Mode.SYSTEM) if runtime else None
    engine = cls(program, KernelMemAccess(k), check_runtime=rt,
                 var_hooks=rt)
    try:
        outcome = engine.call("main")
    except ReproError as exc:
        outcome = type(exc).__name__
    arith = [c.site for c in report.all_checks() if c.kind == "arith"]
    return outcome, engine.ops_executed, arith, rt


#: sums whose pointer operand is not a plain variable, or whose address
#: is taken: what each needs before ``main``, the 8-byte object it
#: points into, its set-up, and a pointer two elements past the object
SUMS = {
    "call": ("int *id(int *p) { return p; }", "int a[2];", "", "id(a) + 4"),
    "deref": ("", "int a[2];", "int *p = a; int **pp = &p;", "*pp + 4"),
    "arrow": ("struct s { int a[2]; };", "struct s v;",
              "struct s *sp = &v;", "sp->a + 4"),
    "addr-of-deref": ("int *id(int *p) { return p; }", "int a[2];", "",
                      "&*(id(a) + 4)"),
    "addr-of-arrow": ("struct s { int x; int y; };", "struct s v;",
                      "struct s *sp = &v;", "&(sp + 2)->x"),
}


@pytest.mark.parametrize("cls", ENGINES)
@pytest.mark.parametrize("name", sorted(SUMS))
def test_every_pointer_sum_is_checked(name, cls):
    """A sum two elements past its object makes an OOB peer whatever
    its operands are, so the store through it cannot land in ``b``."""
    prelude, obj, setup, pointer = SUMS[name]
    src = f"""{prelude}
    int main() {{
        {obj}
        int b[2];
        b[0] = 7; b[1] = 7;
        {setup}
        int *q = {pointer};
        *q = 99;
        return b[0] * 1000 + b[1];
    }}"""
    assert _run(src, cls, runtime=False)[0] == 99007   # the overrun
    assert _run(src, cls)[0] == "BoundsError"


TICKS_SRC = """
int main() {
    char buf[16];
    for (char *p = buf; p < buf + 16; p = p + 1) *p = 3;
    int s = 0;
    for (int i = 0; i < 16; i++) { char *q = buf + i; s = s + *q; }
    return s;
}"""


@pytest.mark.parametrize("cls", ENGINES)
def test_a_check_costs_no_operation(cls):
    """The same ops run with the runtime attached, detached, or with
    every site disabled."""
    result, ops, arith, rt = _run(TICKS_SRC, cls)
    assert (result, len(arith)) == (48, 3)
    assert sum(rt.site_counts[s] for s in set(arith)) == 17 + 16 + 16
    assert _run(TICKS_SRC, cls, runtime=False)[:2] == (48, ops)
    assert _run(TICKS_SRC, cls, disabled=True)[:2] == (48, ops)


SIDE_SRC = """
int n = 0;
int *bump(int *p) { n = n + 1; return p; }
int main() {
    int a[4];
    int i = 0;
    int *q = bump(a) + 1; *q = 5;
    int *r = a + (i = i + 2); *r = 6;
    return n * 1000 + i * 100 + a[1] * 10 + a[2];
}"""


@pytest.mark.parametrize("cls", ENGINES)
def test_checked_operands_run_once(cls):
    """A call and an assignment inside a checked sum run once, and both
    sums are checked."""
    result, _, arith, rt = _run(SIDE_SRC, cls)
    assert result == 1256
    assert len(arith) == 2
    assert [rt.site_counts[s] for s in arith] == [1, 1]


#: steps back from ``a + 4``, the one-past-the-end address of
#: ``int a[4]`` that a checked sum produced, to ``a[3]``: what each
#: needs before ``main``, its declarations before ``a``, and its code
ONE_PAST = {
    "nested": ("", "", "int *l = a + 4 - 1; *l = 5;"),
    "variable": ("", "", "int *e = a + 4; int *l = e - 2; l[1] = 5;"),
    "member": ("struct span { int *end; };",
               "struct span s; struct span *sp = &s;",
               "sp->end = a + 4; int *l = sp->end - 1; *l = 5;"),
    "deref": ("", "int *e; int **endp = &e;",
              "e = a + 4; int *l = *endp - 1; *l = 5;"),
    "call": ("int *id(int *p) { return p; }", "",
             "int *l = id(a + 4) - 1; *l = 5;"),
    "index": ("", "", "int *e = a + 4; e[-1] = 5;"),
}


@pytest.mark.parametrize("cls", ENGINES)
@pytest.mark.parametrize("next_object", [False, True])
@pytest.mark.parametrize("name", sorted(ONE_PAST))
def test_one_past_the_end_pointers_step_back(name, next_object, cls):
    """C blesses ``a + 4``, and arithmetic or indexing from it back into
    ``a`` is valid whether no object starts there or ``b`` does."""
    prelude, decls, code = ONE_PAST[name]
    src = f"""{prelude}
    int main() {{
        {decls}
        int a[4];
        {"int b[2]; b[0] = 7;" if next_object else ""}
        a[3] = 0;
        {code}
        return a[3];
    }}"""
    assert _run(src, cls)[0] == 5


@pytest.mark.parametrize("cls", ENGINES)
def test_a_sum_below_an_object_stays_out_of_bounds(cls):
    """``b - 1`` lands in ``a``, which ends where ``b`` starts, but no
    checked sum produced that address as ``a``'s one-past pointer, so
    the result is ``b``'s OOB peer and the store faults."""
    src = """
    int main() {
        int a[4];
        int b[2];
        a[3] = 7;
        int *l = b - 1;
        *l = 5;
        return a[3];
    }"""
    assert _run(src, cls, runtime=False)[0] == 5     # the underflow
    assert _run(src, cls)[0] == "BoundsError"
