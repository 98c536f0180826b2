"""Property tests: KGCC soundness and completeness on generated programs.

* **No false positives**: programs that only make in-bounds accesses run
  identically with and without instrumentation (checks are transparent).
* **No false negatives** for the generated class: a program that indexes
  one element past a random array is always caught.
* The optimizer never changes which programs pass or fail: with the
  load-time verifier's proofs, on programs that shadow, redeclare, use
  struct fields, pass element addresses to helpers and walk arrays with
  pointer locals (registers, which KGCC does not register), every check
  that would fail stays, at the same site, and a function the verifier
  proves safe never faults.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.cminus import Interpreter, UserMemAccess, parse
from repro.errors import BoundsError, InvalidPointer
from repro.kernel import Kernel, Mode
from repro.kernel.fs import RamfsSuperBlock
from repro.safety.kgcc import KgccRuntime, instrument, optimize
from repro.safety.verifier import Verdict, verify_program


@st.composite
def inbounds_programs(draw):
    """A random program whose accesses are in bounds by construction."""
    n = draw(st.integers(min_value=1, max_value=10))
    writes = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        idx = draw(st.integers(min_value=0, max_value=n - 1))
        val = draw(st.integers(min_value=-100, max_value=100))
        writes.append(f"a[{idx}] = {val};" if val >= 0
                      else f"a[{idx}] = 0 - {-val};")
    use_ptr = draw(st.booleans())
    body = " ".join(writes)
    if use_ptr:
        walk = f"""
        int *p = a;
        for (int i = 0; i < {n}; i++) {{ s += *p; p++; }}
        """
    else:
        walk = f"for (int i = 0; i < {n}; i++) s += a[i];"
    return f"""
    int main() {{
        int a[{n}];
        for (int i = 0; i < {n}; i++) a[i] = 0;
        {body}
        int s = 0;
        {walk}
        return s;
    }}
    """


def _run(source: str, *, checked: bool, optimized: bool = False) -> int:
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("prop")
    mem = UserMemAccess(k, task)
    program = parse(source)
    kwargs = {}
    if checked:
        instrument(program)
        if optimized:
            optimize(program, verify_program(program))
        runtime = KgccRuntime(k, mode=Mode.USER)
        kwargs = dict(check_runtime=runtime, var_hooks=runtime)
    return Interpreter(program, mem, **kwargs).call("main")


@given(inbounds_programs())
@settings(max_examples=40, deadline=None)
def test_no_false_positives(source):
    assert _run(source, checked=True) == _run(source, checked=False)


@given(inbounds_programs())
@settings(max_examples=25, deadline=None)
def test_optimizer_preserves_semantics(source):
    assert _run(source, checked=True, optimized=True) == \
        _run(source, checked=False)


@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=0, max_value=6),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_out_of_bounds_always_caught(n, past, via_pointer):
    bad_index = n + past
    if via_pointer:
        access = f"int *p = a; p = p + {bad_index}; *p = 1;"
    else:
        access = f"a[{bad_index}] = 1;"
    source = f"""
    int main() {{
        int a[{n}];
        {access}
        return 0;
    }}
    """
    # unchecked: silent corruption, or at best a raw hardware fault — never
    # a diagnosed safety violation
    from repro.errors import PageFault
    try:
        _run(source, checked=False)
    except PageFault:
        pass  # crashed like a real kernel would; still undiagnosed
    with pytest.raises((BoundsError, InvalidPointer)):
        _run(source, checked=True)
    with pytest.raises((BoundsError, InvalidPointer)):
        _run(source, checked=True, optimized=True)


# ------------------------------------------------ scoped, struct-heavy code
#
# Programs over an array ``a``, a struct ``r`` and helpers that take
# pointers, with blocks that shadow the array, a scalar or a pointer,
# sibling blocks that redeclare one name with another type, ``&`` of
# elements and fields passed to the helpers, postfix ``++`` on elements,
# and pointer locals that walk ``a`` and ``r.vals``.  Every statement
# indexes in bounds or, when it is drawn out of bounds, up to a few
# elements past its object.

_PRELUDE = """
struct rec { int len; char tag; int vals[4]; };
int peek(int *p) { return *p; }
int poke(int *p, int v) { *p = v; return 0; }
int *id(int *p) { return p; }
"""

#: statement templates: ``i`` indexes ``a``, ``h`` indexes ``a`` from
#: ``a + 1``, ``j`` an ``m``-element block array, ``f`` ``r.vals``,
#: ``k`` an 8-byte store into an ``m8``-byte char array; a pointer
#: local ``w`` steps to ``a[i]`` or ``r.vals[f]``, and ``q`` is a sum
#: whose pointer operand is a call, ``*pp``, ``rp->vals`` or a sum,
#: ``a + n`` (``a``'s one-past-the-end address) among them
_TEMPLATES = [
    "a[{i}] = {v};",
    "s += a[{i}];",
    "a[{i}]++;",
    "{{ int a[{m}]; a[{j}] = {v}; s += a[{j}]; }}",
    "{{ int s = {v}; a[{i}] = s; }}",
    "{{ int *p = a + {i}; {{ int p = {v}; p++; s += p; }} s += *p; }}",
    "{{ char b[{m}]; b[{j}] = {v}; s += b[{j}]; }}"
    " {{ int b[2]; b[1] = {v}; s += b[1]; }}",
    "{{ char c[{m8}]; {{ int *q = c + {k}; *q = {v}; }}"
    " {{ char *q = c; *q = 1; s += c[0]; }} }}",
    "r.len = {v}; r.vals[{f}] = {v}; s += r.vals[{f}] + r.len;",
    "r.vals[0] = {v}; r.vals[{f}]++; s += r.vals[0];",
    "{{ struct rec *rp = &r; rp->vals[{f}] = {v}; s += rp->vals[{f}]; }}",
    "s += peek(&a[{i}]);",
    "poke(&r.vals[{f}], {v}); s += peek(&r.vals[{f}]);",
    "{{ int *w = a; for (int t = 0; t < {i}; t++) w++; s += *w; }}",
    "{{ int *w = a; int *e = a + {i}; while (w <= e) {{ s += *w; w++; }} }}",
    "{{ int *w = a + {i}; w--; ++w; *w = {v}; s += peek(w) + (w - a); }}",
    "{{ int *w = r.vals; w += {f}; *w = {v}; s += *w; }}",
    "{{ int *q = id(a) + {i}; *q = {v}; s += *q; }}",
    "{{ int *p = a; int **pp = &p; int *q = *pp + {i}; *q = {v};"
    " s += *q; }}",
    "{{ struct rec *rp = &r; int *q = rp->vals + {f}; *q = {v};"
    " s += *q; }}",
    "{{ int *q = (a + 1) + {h}; *q = {v}; s += *q; }}",
    "{{ int *q = a + {n} - 1 - {i}; *q = {v}; s += *q; }}",
]


@st.composite
def scoped_programs(draw, oob: bool | None = None):
    """A program over :data:`_TEMPLATES`; ``oob`` forces every statement
    in bounds (False) or lets each draw its own way (None)."""
    n = draw(st.integers(min_value=2, max_value=6))
    stmts = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        bad = draw(st.booleans()) if oob is None else oob

        def index(limit: int) -> int:
            if bad:
                return limit + draw(st.integers(min_value=0, max_value=2))
            return draw(st.integers(min_value=0, max_value=limit - 1))

        m = draw(st.integers(min_value=1, max_value=8))
        m8 = draw(st.integers(min_value=8, max_value=12))
        k = (draw(st.integers(min_value=m8 - 7, max_value=m8)) if bad
             else draw(st.integers(min_value=0, max_value=m8 - 8)))
        stmts.append(draw(st.sampled_from(_TEMPLATES)).format(
            i=index(n), h=index(n - 1), j=index(m), f=index(4), n=n, m=m,
            m8=m8, k=k,
            v=draw(st.integers(min_value=0, max_value=99))))
    body = "\n        ".join(stmts)
    return _PRELUDE + f"""
    int main() {{
        int a[{n}];
        struct rec r;
        int s = 0;
        for (int i = 0; i < {n}; i++) a[i] = i;
        {body}
        for (int i = 0; i < {n}; i++) s += a[i];
        return s;
    }}
    """


def _outcome(source: str, *, checked: bool, optimized: bool = False):
    """main's value, or the (error type, site) a check failed with."""
    try:
        return _run(source, checked=checked, optimized=optimized)
    except (BoundsError, InvalidPointer) as exc:
        return type(exc).__name__, getattr(exc, "site", None)


@given(scoped_programs(oob=False))
@settings(max_examples=15, deadline=None)
def test_scoped_in_bounds_programs_raise_nothing(source):
    expected = _run(source, checked=False)
    assert _run(source, checked=True) == expected
    assert _run(source, checked=True, optimized=True) == expected


@given(scoped_programs())
@settings(max_examples=30, deadline=None)
def test_optimize_and_verifier_keep_every_failing_check(source):
    """``optimize`` (with the verifier's proofs) never removes a check
    that would fail, and a function the verifier proves safe runs without
    a fault with every check live."""
    plain = _outcome(source, checked=True)
    assert _outcome(source, checked=True, optimized=True) == plain
    program = parse(source)
    instrument(program)
    if verify_program(program).verdict_for("main") is Verdict.PROVEN_SAFE:
        assert isinstance(plain, int), plain
