"""The load-time static verifier: domains, verdicts, and KGCC integration.

Covers each analysis layer in isolation (intervals, CFG, definite
initialization, termination, provenance) and then the whole pipeline:
``verify_program`` verdicts, check elimination in the optimizer, and the
analysis-report section.  The corpus test at the bottom enforces the
acceptance bar: the verifier proves at least half of all check sites on a
corpus of programs representative of tests/cminus and tests/safety.
"""

import ast as pyast
from pathlib import Path

import pytest

from repro.cminus import ast, bump_generation, parse
from repro.cminus.resolve import resolve
from repro.safety.kgcc import instrument, optimize
from repro.safety.kgcc.modulefs import MODULE_SOURCE
from repro.safety.verifier import (Interval, InitState, LoadTimeVerifier,
                                   SiteStatus, Verdict, build_cfg,
                                   check_termination, definite_init,
                                   verify_program)
from repro.analysis import verifier_report


# --------------------------------------------------------------- intervals

def test_interval_basics():
    i = Interval.range(0, 9)
    assert i.contains(0) and i.contains(9) and not i.contains(10)
    assert i.add(Interval.const(1)) == Interval.range(1, 10)
    assert i.sub(Interval.const(1)) == Interval.range(-1, 8)
    assert Interval.const(3).mul(Interval.const(4)) == Interval.const(12)
    assert i.join(Interval.range(5, 20)) == Interval.range(0, 20)


def test_interval_widen_jumps_to_unbounded():
    a = Interval.range(0, 1)
    b = Interval.range(0, 2)
    w = a.widen(b)
    assert w.lo == 0 and w.hi is None  # upper bound blown to +inf


def test_interval_meet_empty():
    assert Interval.range(0, 3).meet(Interval.range(5, 9)).empty


def test_interval_cmp_refines_to_bool_range():
    lt = Interval.range(0, 3).cmp("<", Interval.const(10))
    assert lt == Interval.const(1)  # definitely true
    maybe = Interval.range(0, 20).cmp("<", Interval.const(10))
    assert maybe == Interval.range(0, 1)


def test_interval_div_and_mod():
    assert Interval.range(10, 20).div(Interval.const(2)) == Interval.range(5, 10)
    m = Interval.top().mod(Interval.const(8))
    assert m.lo is not None and m.hi is not None and m.hi <= 7


# --------------------------------------------------------------------- CFG

def test_cfg_loop_header_and_rpo():
    func = parse("""
    int f(int n) {
        int s;
        s = 0;
        for (int i = 0; i < n; i++) { s = s + i; }
        return s;
    }
    """).funcs["f"]
    cfg = build_cfg(func)
    assert cfg.loop_headers  # the for-loop head is detected
    order = cfg.rpo()
    assert order[0] == cfg.entry
    assert len(order) == len(set(order))


def test_cfg_if_else_joins():
    func = parse("""
    int f(int n) {
        int r;
        if (n > 0) { r = 1; } else { r = 2; }
        return r;
    }
    """).funcs["f"]
    cfg = build_cfg(func)
    # entry splits in two, both reach the return block
    assert len(cfg.blocks) >= 4
    assert cfg.render()  # smoke: renders without error


# ----------------------------------------------------------- definite init

def _init_query(src, func="f"):
    """(variables by name, CFG, init facts) of ``func``."""
    program = parse(src)
    bindings = resolve(program)[func]
    cfg = build_cfg(program.funcs[func])
    return ({b.name: b for b in bindings}, cfg,
            definite_init(cfg, bindings))


def test_definite_init_flags_uninitialized():
    var, cfg, facts = _init_query("""
    int f() {
        int x;
        return x;
    }
    """)
    ret_blocks = [b.bid for b in cfg.blocks if b.stmts]
    assert any(facts.state_at(bid, var["x"]) is InitState.UNINIT
               for bid in ret_blocks)


def test_definite_init_joins_branches_to_maybe():
    var, cfg, facts = _init_query("""
    int f(int n) {
        int x;
        if (n) { x = 1; }
        return x;
    }
    """)
    states = {facts.state_at(b.bid, var["x"]) for b in cfg.blocks}
    assert InitState.MAYBE in states


def test_params_always_initialized():
    var, cfg, facts = _init_query("int f(int n) { return n; }")
    assert all(facts.state_at(b.bid, var["n"]) is not InitState.UNINIT
               for b in cfg.blocks)


# ------------------------------------------------------------- termination

def _loops(src, func="f"):
    program = parse(src)
    resolve(program)
    return check_termination(program.funcs[func].body)


def test_counted_loop_is_bounded():
    (lb,) = _loops("int f(int n) { int s; s = 0; "
                   "for (int i = 0; i < n; i++) { s = s + i; } return s; }")
    assert lb.bounded and lb.induction_var == "i"


def test_while_true_is_unbounded():
    (lb,) = _loops("int f() { while (1) { } return 0; }")
    assert not lb.bounded


def test_bound_modified_in_body_is_unbounded():
    (lb,) = _loops("int f(int n) { for (int i = 0; i < n; i++) { n = n + 1; }"
                   " return n; }")
    assert not lb.bounded and "bound" in lb.reason


def test_step_away_from_bound_is_unbounded():
    (lb,) = _loops("int f(int n) { for (int i = 0; i < n; i--) { } return 0; }")
    assert not lb.bounded


def test_unconditional_break_bounds_any_loop():
    (lb,) = _loops("int f() { while (1) { break; } return 0; }")
    assert lb.bounded


#: loops whose bound or induction variable changes through memory, in a
#: callee, under a shadowing declaration or past a skipped step: each
#: must be reported unbounded
UNBOUNDED_LOOPS = {
    "bound-in-memory-stored-to": """
    int f() {
        int a[2]; int i = 0; a[0] = 5;
        while (i < a[0]) { a[0] = a[0] + 1; i = i + 1; }
        return i;
    }""",
    "bound-through-pointer-to-local": """
    int f() {
        int n = 5; int i = 0;
        int *p = &n;
        while (i < *p) { *p = *p + 1; i++; }
        return i;
    }""",
    "global-bound-changed-by-callee": """
    int n;
    int bump() { n++; return 0; }
    int f() { int i = 0; while (i < n) { bump(); i++; } return i; }""",
    "global-induction-reset-by-callee": """
    int i;
    int reset() { i = 0; return 0; }
    int f() { i = 0; while (i < 10) { reset(); i++; } return i; }""",
    "shadowing-declaration-steps": """
    int f() {
        int i = 0; int s = 0;
        while (i < 10) { int i = 0; i++; s++; }
        return s;
    }""",
    "continue-skips-the-step": """
    int f(int n) {
        int i = 0;
        while (i < n) { if (n > 3) continue; i++; }
        return i;
    }""",
}


@pytest.mark.parametrize("src", UNBOUNDED_LOOPS.values(),
                         ids=UNBOUNDED_LOOPS.keys())
def test_unbounded_loops_are_reported(src):
    (lb,) = _loops(src)
    assert not lb.bounded, lb.reason


def test_loop_rule_reads_bindings_not_names():
    """A shadowing declaration neither protects nor steps the loop's
    variable, and a global bound is fine in a loop without calls."""
    (lb,) = _loops("""
    int n = 4;
    int f() {
        int s = 0;
        for (int i = 0; i < n; i++) { int n = 9; s = s + n; }
        return s;
    }""")
    assert lb.bounded and lb.induction_var == "i"


# -------------------------------------------------------- whole-function

def _verify(src, **kw):
    program = parse(src)
    instrument(program)
    return verify_program(program, **kw), program


def test_constant_loop_proven_safe():
    rep, _ = _verify("""
    int f() {
        int a[8];
        int s;
        s = 0;
        for (int i = 0; i < 8; i++) { a[i] = i; }
        for (int i = 0; i < 8; i++) { s = s + a[i]; }
        return s;
    }
    """)
    fv = rep.functions["f"]
    assert fv.verdict is Verdict.PROVEN_SAFE
    assert fv.unproven_count == 0 and fv.violation_count == 0
    assert fv.proven_count >= 2


def test_known_oob_rejected_with_site_reason():
    rep, _ = _verify("""
    int f() {
        int a[4];
        return a[9];
    }
    """)
    fv = rep.functions["f"]
    assert fv.verdict is Verdict.REJECT
    reasons = fv.reject_reasons()
    assert reasons and "out of bounds" in reasons[0]
    assert any(f.status is SiteStatus.VIOLATION for f in fv.findings)
    # the reason names the line and the object
    assert "'a'" in reasons[0]


def test_postfix_store_site_is_classified():
    """``a[i]++`` and ``++a[i]`` store through their checked target like
    ``a[i] = v``: the verifier judges that site, so an overflow there is
    rejected and an in-bounds one proven."""
    rep, _ = _verify("""
    int bad() { int a[2]; a[2]++; return 0; }
    int bad_prefix() { int a[2]; ++a[2]; return 0; }
    int good() { int a[2]; a[0] = 0; a[1]++; return a[0]; }
    """)
    assert rep.functions["bad"].verdict is Verdict.REJECT
    assert rep.functions["bad_prefix"].verdict is Verdict.REJECT
    good = rep.functions["good"]
    assert good.verdict is Verdict.PROVEN_SAFE and good.proven_count == 3


def test_uninitialized_pointer_rejected():
    rep, _ = _verify("""
    int f() {
        int *p;
        return *p;
    }
    """)
    fv = rep.functions["f"]
    assert fv.verdict is Verdict.REJECT
    assert "before initialization" in fv.reject_reasons()[0]


def test_param_index_needs_checks():
    rep, _ = _verify("""
    int f(int n) {
        int a[8];
        a[0] = 1;
        return a[n];
    }
    """)
    fv = rep.functions["f"]
    assert fv.verdict is Verdict.NEEDS_CHECKS
    assert fv.proven_count >= 1       # a[0] is proven
    assert fv.unproven_count == 1     # a[n] is not


def test_guard_promotes_param_index():
    rep, _ = _verify("""
    int f(int n) {
        int a[8];
        if (n >= 0 && n < 8) { return a[n]; }
        return 0;
    }
    """)
    assert rep.functions["f"].verdict is Verdict.PROVEN_SAFE


def test_pointer_walk_proven():
    rep, _ = _verify("""
    int f() {
        int a[6];
        int s;
        int *p;
        p = a;
        s = 0;
        for (int i = 0; i < 6; i++) { s = s + *(p + i); }
        return s;
    }
    """)
    assert rep.functions["f"].verdict is Verdict.PROVEN_SAFE


def test_member_arrays_of_local_structs_have_provenance():
    """``v.b`` decays to ``v``'s storage shifted by ``b``'s offset, as
    ``&v.b`` does, so indexing it, ``&v.b[0]`` and ``v.b + 2`` are all
    proven, and the optimizer drops every check."""
    src = """
    struct s { int a; int b[4]; int c; };
    int f() {
        struct s v;
        for (int i = 0; i < 4; i++) v.b[i] = i;
        int t = 0;
        for (int i = 0; i < 4; i++) t = t + v.b[i];
        int *p = &v.b[0];
        int *q = v.b + 2;
        return t + *p + *q;
    }
    """
    raw = verify_program(parse(src))
    assert raw.verdict_for("f") is Verdict.PROVEN_SAFE
    assert raw.site_stats() == (5, 0, 0)
    program = parse(src)
    assert instrument(program).checks_inserted == 5
    report = optimize(program, verifier_report=verify_program(program))
    assert report.checks_removed == 5


def test_risky_extern_caps_at_needs_checks():
    rep, _ = _verify("""
    int f() {
        char buf[16];
        memset(buf, 0, 16);
        return buf[3];
    }
    """)
    fv = rep.functions["f"]
    assert fv.verdict is Verdict.NEEDS_CHECKS
    assert any(fd.kind == "call" for fd in fv.findings)


def test_callgraph_verdict_propagates():
    rep, _ = _verify("""
    int leaf(int n) {
        int a[4];
        return a[n];
    }
    int caller() {
        return leaf(2);
    }
    """)
    # leaf itself needs checks; caller's effective verdict is dragged down
    assert rep.functions["leaf"].effective is Verdict.NEEDS_CHECKS
    assert rep.functions["caller"].effective is Verdict.NEEDS_CHECKS


def test_require_termination_rejects_unbounded():
    src = "int f(int n) { while (n) { n = n * 2; } return n; }"
    rep, _ = _verify(src, require_termination=True)
    assert rep.functions["f"].verdict is Verdict.REJECT
    rep2, _ = _verify(src)  # KGCC path: watchdog handles it, no reject
    assert rep2.functions["f"].verdict is not Verdict.REJECT


def test_report_render_and_histogram():
    rep, _ = _verify("""
    int good() { int a[2]; a[0] = 1; return a[1]; }
    int bad() { int a[2]; return a[5]; }
    """)
    hist = rep.histogram()
    assert hist[Verdict.PROVEN_SAFE] == 1 and hist[Verdict.REJECT] == 1
    text = rep.render()
    assert "good" in text and "bad" in text and "reject" in text


def test_verifier_matches_uninstrumented_sites():
    """Verifying before instrumentation yields the same site keys."""
    src = """
    int f() {
        int a[4];
        int s;
        s = 0;
        for (int i = 0; i < 4; i++) { s = s + a[i]; }
        return s;
    }
    """
    raw = parse(src)
    raw_rep = verify_program(raw)
    inst = parse(src)
    instrument(inst)
    inst_rep = verify_program(inst)
    assert raw_rep.proven_sites() == inst_rep.proven_sites()


# ------------------------------------------------------ KGCC integration

def test_optimize_drops_proven_checks():
    src = """
    int f(int n) {
        int a[8];
        int s;
        s = 0;
        for (int i = 0; i < 8; i++) { a[i] = i; }
        if (n >= 0 && n < 8) { s = a[n]; }
        return s;
    }
    """
    program = parse(src)
    instrument(program)
    vrep = verify_program(program)
    orep = optimize(program, verifier_report=vrep)
    assert orep.checks_removed_verified > 0
    # every site the verifier proved is now check-free
    from repro.cminus import ast_nodes as ast
    live = {n.site for n in ast.walk(program.funcs["f"].body)
            if isinstance(n, ast.Check)}
    assert not (live & vrep.proven_sites())


def test_optimize_without_verifier_unchanged():
    src = "int f(int n) { int a[8]; return a[n]; }"
    program = parse(src)
    instrument(program)
    orep = optimize(program)
    assert orep.checks_removed_verified == 0


def test_verifier_report_section_renders():
    program = parse("""
    int f() { int a[4]; a[1] = 2; return a[1]; }
    int g() { int a[4]; return a[9]; }
    """)
    instrument(program)
    vrep = verify_program(program)
    orep = optimize(program, verifier_report=vrep)
    text = verifier_report(vrep, optimize_report=orep)
    assert "load-time verifier" in text
    assert "PROVEN_SAFE" in text and "REJECT" in text
    assert "verifier (abstract interp)" in text
    assert "out of bounds" in text  # per-site reject reason surfaces


def test_load_time_verifier_caches_and_reports():
    v = LoadTimeVerifier()
    program = parse("int f() { int a[2]; a[0] = 1; return a[0]; }")
    r1 = v.verify(program)
    r2 = v.verify(program)
    assert r1 is r2  # cached by program identity
    assert v.verdict_for(program, "f").verdict is Verdict.PROVEN_SAFE

    # rewritten in place: the generation bump voids the cached verdict
    program.funcs["f"].body.stmts[1].expr.target.index.value = 9
    bump_generation(program)
    assert v.verdict_for(program, "f").verdict is Verdict.REJECT

    # a new program at a freed one's address is verified afresh (CPython
    # hands a freed object's memory to the next object of its size, so
    # each unsafe Program here lands where the safe one was)
    good = parse("int f() { int a[2]; a[0] = 1; return a[0]; }").funcs
    bad = parse("int f() { int a[4]; a[9] = 1; return a[0]; }").funcs
    for _ in range(5):
        safe = ast.Program(funcs=good)
        assert v.verdict_for(safe, "f").verdict is Verdict.PROVEN_SAFE
        del safe
        unsafe = ast.Program(funcs=bad)
        assert v.verdict_for(unsafe, "f").verdict is Verdict.REJECT
        del unsafe


# ------------------------------------------------------------- the corpus
#
# Programs representative of the tests/cminus and tests/safety suites:
# constant-bound loops, pointer walks, string buffers, struct access,
# helper calls, and a few deliberately-dynamic shapes that must stay
# checked.  The acceptance bar: the verifier statically proves at least
# half of all deref/arith check sites across the corpus.

CORPUS = [
    # tests/cminus style: arithmetic and control flow over local arrays
    """
    int main() {
        int a[10];
        int s;
        s = 0;
        for (int i = 0; i < 10; i++) { a[i] = i * i; }
        for (int i = 0; i < 10; i++) { s = s + a[i]; }
        return s;
    }
    """,
    """
    int fib() {
        int f[12];
        f[0] = 0;
        f[1] = 1;
        for (int i = 2; i < 12; i++) { f[i] = f[i - 1] + f[i - 2]; }
        return f[11];
    }
    """,
    # pointer walk (tests/cminus pointer tests)
    """
    int walk() {
        int a[8];
        int *p;
        int s;
        p = a;
        s = 0;
        for (int i = 0; i < 8; i++) { a[i] = i; }
        for (int i = 0; i < 8; i++) { s = s + *(p + i); }
        return s;
    }
    """,
    # char buffer fill (tests/safety kgcc style)
    """
    int fill() {
        char buf[32];
        for (int i = 0; i < 32; i++) { buf[i] = 65; }
        return buf[31];
    }
    """,
    # guarded dynamic index
    """
    int lookup(int n) {
        int table[16];
        for (int i = 0; i < 16; i++) { table[i] = i; }
        if (n >= 0 && n < 16) { return table[n]; }
        return 0 - 1;
    }
    """,
    # helper-call composition (tests/cosy style)
    """
    int helper(int v) { return v * 2 + 1; }
    int main() {
        int acc;
        acc = 0;
        for (int i = 0; i < 5; i++) { acc = acc + helper(i); }
        return acc;
    }
    """,
    # dynamic shapes that must stay checked
    """
    int dynamic(int *data, int n) {
        int s;
        s = 0;
        for (int i = 0; i < n; i++) { s = s + data[i]; }
        return s;
    }
    """,
    """
    int strsum(char *s, int n) {
        int total;
        total = 0;
        for (int i = 0; i < n; i++) { total = total + s[i]; }
        return total;
    }
    """,
]


def test_corpus_proves_at_least_half_of_sites():
    total_proven = total_sites = 0
    for src in CORPUS:
        program = parse(src)
        instrument(program)
        rep = verify_program(program)
        proven, unproven, violation = rep.site_stats()
        assert violation == 0, f"false violation in corpus:\n{rep.render()}"
        total_proven += proven
        total_sites += proven + unproven + violation
    assert total_sites > 0
    fraction = total_proven / total_sites
    assert fraction >= 0.5, (
        f"verifier proved only {total_proven}/{total_sites} "
        f"({100 * fraction:.0f}%) of corpus check sites")


# ------------------------------------------------- sites = checks

def _e9_sources() -> list[str]:
    """E9's extra corpus, read from its benchmark without importing it."""
    bench = (Path(__file__).resolve().parents[2] / "benchmarks"
             / "bench_kgcc_checks.py")
    for node in pyast.parse(bench.read_text()).body:
        if isinstance(node, pyast.Assign) \
                and getattr(node.targets[0], "id", None) == "EXTRA_SOURCES":
            return pyast.literal_eval(node.value)
    raise AssertionError("no EXTRA_SOURCES in bench_kgcc_checks.py")


def _sites(src: str) -> tuple[list[str], list[str]]:
    """The sites the verifier reports on the raw program, and the
    checks KGCC inserts, one entry per check."""
    raw = verify_program(parse(src), "t.c")
    report = instrument(parse(src), "t.c")
    return (sorted(f.site for f in raw.all_findings()),
            sorted(c.site for c in report.all_checks()))


def test_every_pointer_sum_is_an_arith_site():
    """Whatever its operands do, and whether or not its address is
    taken, a pointer ``+``/``-`` is one arith site for the verifier and
    one arith check for KGCC."""
    sites, checks = _sites("""
    struct t { int a; int b[4]; };
    int *id(int *p) { return p; }
    int f() {
        struct t v;
        int a[4];
        int *p = a;
        int **pp = &p;
        struct t *sp = &v;
        struct t **spp = &sp;
        int *w = v.b + 2;
        int *x = id(a) + 1;
        int *y = *pp + 1;
        int *z = sp->b + 1;
        int *u = &*(id(a) + 1);
        int *t = &(sp + 1)->a;
        int *r = &(*spp)->a;
        return 0;
    }
    """)
    arith = [site for site in sites if site.endswith(":arith")]
    assert arith == [f"t.c:{n}:arith" for n in range(11, 17)]
    assert "t.c:17:deref" in sites
    assert sites == checks


#: KgccFs, E9's extra corpus and the corpus above
CORPORA = {"kgccfs": MODULE_SOURCE,
           **{f"e9-{i}": src for i, src in enumerate(_e9_sources())},
           **{f"corpus-{i}": src for i, src in enumerate(CORPUS)}}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_verifier_and_instrumenter_agree_on_check_sites(name):
    sites, checks = _sites(CORPORA[name])
    assert sites == checks
