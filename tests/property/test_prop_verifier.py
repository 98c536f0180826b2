"""Property test: the load-time verifier is sound.

The verifier's one inviolable promise is the eBPF promise: code it marks
PROVEN_SAFE never trips a bounds fault, because KGCC drops those checks.
So for *any* generated program — in-bounds, out-of-bounds, uninitialized,
pointer-walking, scope-juggling — if the verifier returns PROVEN_SAFE,
executing the program under the full (undropped) KGCC check suite must
raise no :class:`BoundsError` / :class:`InvalidPointer`.

The generator is deliberately adversarial: indices may run past the
array, pointers may dangle out of inner scopes, loop bounds may come from
parameters.  Unsound verdicts show up as a proven program that faults.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cminus import Interpreter, UserMemAccess, parse
from repro.errors import BoundsError, InvalidPointer
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.safety.kgcc import KgccRuntime, instrument
from repro.safety.verifier import Verdict, verify_program


@st.composite
def adversarial_programs(draw):
    """A random program that may or may not be memory-safe."""
    n = draw(st.integers(min_value=1, max_value=8))
    parts = []

    # a few writes, sometimes out of bounds
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        idx = draw(st.integers(min_value=0, max_value=n + 2))
        parts.append(f"a[{idx}] = {draw(st.integers(0, 99))};")

    shape = draw(st.sampled_from(
        ["const_loop", "param_loop", "guarded", "ptr_walk", "scope_escape",
         "maybe_uninit"]))
    if shape == "const_loop":
        bound = draw(st.integers(min_value=1, max_value=n + 2))
        parts.append(f"for (int i = 0; i < {bound}; i++) s = s + a[i];")
    elif shape == "param_loop":
        parts.append("for (int i = 0; i < m; i++) s = s + a[i];")
    elif shape == "guarded":
        parts.append(f"if (m >= 0 && m < {n}) s = a[m];")
        if draw(st.booleans()):
            parts.append("s = s + a[m];")  # unguarded reuse
    elif shape == "ptr_walk":
        upto = draw(st.integers(min_value=1, max_value=n + 1))
        parts.append("int *p; p = a;")
        parts.append(f"for (int i = 0; i < {upto}; i++) {{ s = s + *p; p++; }}")
    elif shape == "scope_escape":
        parts.append("int *p;")
        parts.append(f"{{ int b[{n}]; b[0] = 1; p = b; }}")
        parts.append("s = *p;")
    elif shape == "maybe_uninit":
        parts.append("int *q;")
        if draw(st.booleans()):
            parts.append("q = a;")
        else:
            parts.append("if (m > 0) { q = a; }")
        parts.append("s = *q;")

    body = "\n        ".join(parts)
    m = draw(st.integers(min_value=-2, max_value=n + 2))
    return f"""
    int run(int m) {{
        int a[{n}];
        int s;
        s = 0;
        for (int i = 0; i < {n}; i++) {{ a[i] = i; }}
        {body}
        return s;
    }}
    int main() {{
        return run({m});
    }}
    """


def _execute_fully_checked(source: str):
    """Run ``main`` with every KGCC check live; returns the fault or None."""
    program = parse(source)
    instrument(program)
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("prop")
    mem = UserMemAccess(k, task)
    runtime = KgccRuntime(k)
    interp = Interpreter(program, mem, check_runtime=runtime,
                         var_hooks=runtime)
    try:
        interp.call("main")
    except (BoundsError, InvalidPointer) as exc:
        return exc
    return None


@settings(max_examples=120, deadline=None)
@given(adversarial_programs())
def test_proven_safe_never_faults(source):
    program = parse(source)
    instrument(program)
    rep = verify_program(program)
    proven = {name for name, fv in rep.functions.items()
              if fv.effective is Verdict.PROVEN_SAFE}
    if "main" not in proven or "run" not in proven:
        return  # verifier did not vouch for the whole call chain
    fault = _execute_fully_checked(source)
    assert fault is None, (
        f"verifier proved this program safe but it faulted with "
        f"{type(fault).__name__}: {fault}\n{source}\n{rep.render()}")


@settings(max_examples=60, deadline=None)
@given(adversarial_programs())
def test_verdicts_are_deterministic(source):
    program1 = parse(source)
    instrument(program1)
    program2 = parse(source)
    instrument(program2)
    r1 = verify_program(program1)
    r2 = verify_program(program2)
    assert {n: fv.effective for n, fv in r1.functions.items()} \
        == {n: fv.effective for n, fv in r2.functions.items()}
    assert r1.proven_sites() == r2.proven_sites()
