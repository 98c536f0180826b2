"""Scope resolution: one binding per declaration, facts computed once.

The ``run_both`` cases execute on the tree-walker and on the compiled
engine (see ``conftest.py``) and require the same outcome, clock and op
count from both.
"""

import pytest

from repro.cminus import ast, bump_generation, parse, program_fingerprint
from repro.cminus.resolve import resolve, type_of
from repro.errors import BoundsError, CMinusError
from repro.safety.kgcc import KgccRuntime, instrument, optimize
from repro.safety.verifier import Verdict, verify_program


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
    assert [n for n, x in b.items() if x.register] == ["p", "y", "z"]
    assert _bindings(src, "f")["p"].register     # a pointer parameter


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


def test_calls_take_their_callees_type():
    """The resolver stamps each call with its callee's integer or
    pointer return type; a void or struct return and an extern are
    ``int``.  The stamp is a side field: equality and the fingerprint
    ignore it."""
    src = """
    struct s { int a; };
    char c() { return 1; }
    char *next(char *p) { return p + 1; }
    struct s *sp(struct s *p) { return p; }
    struct s sv(int x) { return x; }
    void v() { }
    int main() { char b[2]; v(); ext(); c(); sv(1); sp(0); return *next(b); }
    """
    program = parse(src)
    resolve(program)
    calls = {n.func: type_of(n) for n in ast.walk(program.funcs["main"])
             if isinstance(n, ast.Call)}
    assert {f: repr(t) for f, t in calls.items()} == {
        "v": "int", "ext": "int", "c": "char", "sv": "int",
        "sp": "struct s*", "next": "char*"}
    assert parse(src) == program
    assert program_fingerprint(parse(src)) == program_fingerprint(program)


def test_fingerprint_is_structural():
    program = parse("int main() { int x = 1; return x; }")
    before = program_fingerprint(program)
    bump_generation(program)
    resolve(program)
    assert program_fingerprint(program) == before
    program.funcs["main"].body.stmts[0].init.value = 2
    bump_generation(program)
    assert program_fingerprint(program) != before


def test_scope_paths_nest():
    b = _bindings("""
    int main(int n) {
        int x = 0;
        { int y = 1; for (int i = 0; i < 2; i++) { int z = i; } }
        if (n) { int w = 2; }
        return x;
    }""")
    assert b["n"].scope == b["x"].scope == ()
    # each scope's path extends the paths of the scopes around it
    assert b["i"].scope[:len(b["y"].scope)] == b["y"].scope != ()
    assert b["z"].scope[:len(b["i"].scope)] == b["i"].scope
    # sibling scopes share no ordinal
    assert not set(b["w"].scope) & set(b["z"].scope)


def test_sizeof_of_an_assignment_has_the_target_type(run_both):
    assert run_both(lambda k, mem, program: {}, """
    int main() {
        char c = 0;
        char *p;
        return sizeof(c = 1) * 100 + sizeof(c++) * 10 + sizeof(--c)
            + sizeof(p + 1) * 1000 + sizeof(-c) * 10000;
    }""") == 80000 + 8000 + 100 + 10 + 1


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


#: overflows KGCC catches only when it checks every store, ``++`` and
#: ``--`` targets included, and types each access from the declaration
#: its identifiers name
MISSED_CHECKS = {
    # the 8-byte store overruns c by 4 bytes; a sibling block's
    # `char *p` must not make it a 1-byte access
    "access-size-from-sibling-declaration": """
    int main() {
        char c[12];
        { int *p = c + 8; *p = 1; }
        { char *p = c; *p = 2; }
        return 0;
    }""",
    # p + 3 is pointer arithmetic: its arith check makes q an OOB peer,
    # whatever the block that shadows p with an int declares
    "shadowed-pointer-keeps-arith-check": """
    int main() {
        int b[2]; int a[2];
        b[1] = 22;
        int *p = a;
        { int p = 3; p = p + 1; }
        int *q = p + 3;
        *q = 99;
        return b[1];
    }""",
    "postfix-increment": """
    int main() { int b[2]; int a[2]; b[0] = 7; a[2]++; return b[0]; }""",
    "prefix-increment": """
    int main() { int b[2]; int a[2]; b[0] = 7; ++a[2]; return b[0]; }""",
    "compound-assignment": """
    int main() { int b[2]; int a[2]; b[0] = 7; a[2] += 1; return b[0]; }""",
}


def _kgcc(optimized: bool):
    def build(k, mem, program):
        instrument(program)
        if optimized:
            optimize(program)
        runtime = KgccRuntime(k)
        return dict(check_runtime=runtime, var_hooks=runtime)
    return build


@pytest.mark.parametrize("optimized", [False, True], ids=["plain", "opt"])
@pytest.mark.parametrize("src", UNSOUND_ELIMINATIONS.values(),
                         ids=UNSOUND_ELIMINATIONS.keys())
def test_optimize_keeps_checks_that_would_fail(run_both, src, optimized):
    with pytest.raises(BoundsError):
        run_both(_kgcc(optimized), src)


@pytest.mark.parametrize("optimized", [False, True], ids=["plain", "opt"])
@pytest.mark.parametrize("src", MISSED_CHECKS.values(),
                         ids=MISSED_CHECKS.keys())
def test_kgcc_types_accesses_by_binding(run_both, src, optimized):
    with pytest.raises(BoundsError):
        run_both(_kgcc(optimized), src)


def test_verifier_keeps_sibling_arrays_apart(run_both):
    """Two sibling ``a``s are two regions: the verifier must reject the
    write past the 2-element one, never prove it and let ``optimize``
    remove its check."""
    src = """
    int main() {
        int b[2];
        b[1] = 22;
        { int a[2]; a[3] = 99; }
        { char a[16]; a[0] = 1; }
        return b[1];
    }"""

    def build(k, mem, program):
        instrument(program)
        report = verify_program(program)
        assert report.functions["main"].verdict is Verdict.REJECT
        optimize(program, report)
        runtime = KgccRuntime(k)
        return dict(check_runtime=runtime, var_hooks=runtime)

    with pytest.raises(BoundsError):
        run_both(build, src)


def test_verifier_forgets_what_a_member_store_through_a_pointer_writes(
        run_both):
    """``(*p).x = 3`` writes ``n`` through ``p``: the verifier must forget
    ``n``, never prove ``a[n]`` with its old value and let ``optimize``
    remove that check."""
    src = """
    struct s { int x; };
    int main() {
        int b[2]; int a[2];
        int n = 1;
        b[1] = 5;
        struct s *p = &n;
        (*p).x = 3;
        a[n] = 99;
        return b[1];
    }"""

    def build(k, mem, program):
        instrument(program)
        report = verify_program(program)
        assert report.functions["main"].verdict is not Verdict.PROVEN_SAFE
        optimize(program, report)
        runtime = KgccRuntime(k)
        return dict(check_runtime=runtime, var_hooks=runtime)

    with pytest.raises(BoundsError):
        run_both(build, src)


def test_verifier_proves_accesses_to_a_shadowing_array():
    program = parse("""
    int main() {
        int a[2];
        { int a[8]; a[5] = 1; }
        a[1] = 99;
        return a[1];
    }""")
    instrument(program)
    fv = verify_program(program).functions["main"]
    assert fv.verdict is Verdict.PROVEN_SAFE, fv.findings


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
