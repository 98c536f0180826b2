"""Scope resolution: one binding per declaration, facts computed once.

The ``run_both`` cases execute on the tree-walker and on the compiled
engine (see ``conftest.py``) and require the same outcome, clock and op
count from both.
"""

import pytest

from repro.cminus import bump_generation, parse, program_fingerprint
from repro.cminus.resolve import resolve
from repro.errors import BoundsError, CMinusError
from repro.safety.kgcc import KgccRuntime, instrument, optimize


def _bindings(src: str, func: str = "main") -> dict:
    return {b.name: b for b in resolve(parse(src))[func]}


def test_address_taken_looks_through_arrays_members_and_checks():
    src = """
    struct s { int a; int b[2]; };
    int f(int *p) { return p[1]; }
    int main() {
        struct s v;
        struct s w;
        int a[4];
        int *p = a;
        int x = 1;
        int y = 2;
        int z = 3;
        f(&v.b[0]);
        f(&a[2]);
        f(&p[1]);
        f(&x);
        w.a = y;
        return f(a) + z;
    }
    """
    program = parse(src)
    instrument(program)          # the facts look through KGCC checks
    b = {b.name: b for b in resolve(program)["main"]}
    assert b["v"].addr_taken and b["a"].addr_taken and b["x"].addr_taken
    # &p[1] is an element of what p points to, not of p
    assert not b["p"].addr_taken and not b["w"].addr_taken
    assert b["a"].passed and not b["p"].passed
    assert [n for n, x in b.items() if x.register] == ["y", "z"]
    assert not _bindings(src, "f")["p"].register     # a pointer


def test_member_array_decay_takes_the_struct_address():
    b = _bindings("""
    struct s { int a; int b[2]; };
    int main() { struct s v; struct s w; int *p = v.b; w.a = 1; return *p; }
    """)
    assert b["v"].addr_taken and not b["w"].addr_taken


def test_sizeof_evaluates_nothing():
    b = _bindings("int main() { int x = 1; return sizeof(&x); }")
    assert b["x"].register


def test_each_declaration_has_its_own_binding():
    program = parse("""
    int x = 7;
    int main() {
        int y = x;
        int x = 1;
        { int x = x + 1; y += x; }
        if (y) int x = 5;
        return x;
    }
    """)
    resolve(program)
    stmts = program.funcs["main"].body.stmts
    outer, inner = stmts[1], stmts[2].stmts[0]
    assert stmts[0].init.binding is program.globals[0].binding
    assert inner.init.left.binding is inner.binding   # int x = x + 1;
    # the if's sub-statement is a scope of its own
    assert stmts[4].value.binding is outer.binding


def test_bindings_are_cached_per_generation_and_kept_across_them():
    src = "int main() { int x = 1; return x; }"
    program = parse(src)
    first = resolve(program)
    assert resolve(program) is first
    # the side field changes neither equality nor the fingerprint
    assert parse(src) == program
    assert program_fingerprint(parse(src)) == program_fingerprint(program)
    decl = program.funcs["main"].body.stmts[0]
    bump_generation(program)
    assert resolve(program) is not first
    assert resolve(program)["main"][0] is decl.binding


def test_callee_cannot_see_caller_locals(run_both):
    src = "int f() { return x; } int main() { int x = 3; return f(); }"
    with pytest.raises(CMinusError, match="undefined variable 'x'"):
        run_both(lambda k, mem, program: {}, src)


# ------------------------------------------------------- KGCC soundness

#: each overwrites b[1] through an out-of-bounds index of a; unoptimized
#: KGCC catches it, and optimize must not remove the check that does
UNSOUND_ELIMINATIONS = {
    "static-through-shadowed-array": """
    int main() {
        int b[2]; int a[2];
        b[1] = 22;
        { int a[8]; a[0] = 1; }
        a[3] = 99;
        return b[1];
    }""",
    "cse-across-store-to-index-operand": """
    int main() {
        int b[2]; int a[4];
        b[0] = 1; b[1] = 22;
        a[b[0]] = 5;
        b[0] = 5;
        a[b[0]] = 99;
        return b[1];
    }""",
    "cse-across-shadowing-block": """
    int main() {
        int b[2]; int a[4];
        b[1] = 22;
        int i = 5;
        { int i = 1; a[i] = 1; }
        a[i] = 99;
        return b[1];
    }""",
}


@pytest.mark.parametrize("optimized", [False, True], ids=["plain", "opt"])
@pytest.mark.parametrize("src", UNSOUND_ELIMINATIONS.values(),
                         ids=UNSOUND_ELIMINATIONS.keys())
def test_optimize_keeps_checks_that_would_fail(run_both, src, optimized):
    def build(k, mem, program):
        instrument(program)
        if optimized:
            optimize(program)
        runtime = KgccRuntime(k)
        return dict(check_runtime=runtime, var_hooks=runtime)

    with pytest.raises(BoundsError):
        run_both(build, src)


def test_cse_still_removes_checks_of_the_same_binding():
    program = parse("""
    int main() {
        int a[8];
        int i = 3;
        { int j = 1; a[i] = j; a[i] = a[i] + j; }
        return 0;
    }""")
    instrument(program)
    assert optimize(program).checks_removed_cse == 2
