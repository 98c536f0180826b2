"""Property tests: KGCC soundness and completeness on generated programs.

* **No false positives**: programs that only make in-bounds accesses run
  identically with and without instrumentation (checks are transparent).
* **No false negatives** for the generated class: a program that indexes
  one element past a random array is always caught.
* The optimizer never changes which programs pass or fail.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.cminus import Interpreter, UserMemAccess, parse
from repro.errors import BoundsError, InvalidPointer
from repro.kernel import Kernel, Mode
from repro.kernel.fs import RamfsSuperBlock
from repro.safety.kgcc import KgccRuntime, instrument, optimize


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
            optimize(program)
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
