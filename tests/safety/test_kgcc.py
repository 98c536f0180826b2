"""KGCC: splay tree, address map, OOB peers, checked execution,
check elimination, dynamic deinstrumentation."""

import pytest

from repro.cminus import Interpreter, UserMemAccess, parse
from repro.errors import AllocatorMisuse, BoundsError, InvalidPointer
from repro.kernel import Kernel, Mode
from repro.kernel.fs import RamfsSuperBlock
from repro.safety.kgcc import (DynamicDeinstrumenter, KgccRuntime, ObjectMap,
                               SplayTree, eliminate_common_checks,
                               eliminate_safe_static_checks, instrument,
                               optimize)


# ------------------------------------------------------------------ splay tree

def test_splay_insert_find():
    t = SplayTree()
    for key in [50, 20, 80, 10, 60]:
        t.insert(key, key * 2)
    assert len(t) == 5
    for key in [50, 20, 80, 10, 60]:
        assert t.find(key) == key * 2
    assert t.find(99) is None


def test_splay_replaces_on_duplicate_insert():
    t = SplayTree()
    t.insert(5, "a")
    t.insert(5, "b")
    assert len(t) == 1
    assert t.find(5) == "b"


def test_splay_find_le():
    t = SplayTree()
    for key in [10, 20, 30]:
        t.insert(key, str(key))
    assert t.find_le(25) == (20, "20")
    assert t.find_le(30) == (30, "30")
    assert t.find_le(9) is None
    assert t.find_le(1000) == (30, "30")


def test_splay_remove():
    t = SplayTree()
    for key in range(10):
        t.insert(key, key)
    assert t.remove(5) == 5
    assert t.remove(5) is None
    assert t.find(5) is None
    assert len(t) == 9
    assert [k for k, _ in t.items()] == [0, 1, 2, 3, 4, 6, 7, 8, 9]


def test_splay_locality_brings_node_to_root():
    t = SplayTree()
    for key in range(64):
        t.insert(key, key)
    t.find(13)
    v0 = t.visits
    t.find(13)  # now at the root: one visit
    assert t.visits - v0 == 1


def test_splay_items_sorted():
    import random
    rng = random.Random(7)
    keys = rng.sample(range(1000), 100)
    t = SplayTree()
    for k in keys:
        t.insert(k, None)
    assert [k for k, _ in t.items()] == sorted(keys)


# ----------------------------------------------------------------- address map

def test_objectmap_lookup_containment():
    m = ObjectMap()
    m.register(100, 50, "heap", "a.c:1")
    m.register(200, 10, "stack", "a.c:2")
    assert m.lookup(100).base == 100
    assert m.lookup(149).base == 100
    assert m.lookup(150) is None
    assert m.lookup(205).kind == "stack"
    assert m.lookup(99) is None


def test_objectmap_unregister_kills_peers():
    m = ObjectMap()
    obj = m.register(100, 50, "heap")
    m.make_peer(400, obj)
    assert m.oob_at(400) is not None
    m.unregister(100)
    assert m.oob_at(400) is None
    assert m.lookup(100) is None


# ------------------------------------------------------------ cost of a check

_OBJ = 0x8000           # the middle one of 16 registered 64-byte objects
_PEER = _OBJ + 0x4000   # an out-of-bounds peer of it
_UNKNOWN = 0x10


@pytest.mark.parametrize("check, args, error, looks_up", [
    pytest.param("check_deref", (_OBJ + 8, 4), None, True, id="deref-hit"),
    pytest.param("check_deref", (_UNKNOWN, 4), InvalidPointer, True,
                 id="deref-unknown"),
    pytest.param("check_deref", (_OBJ + 60, 8), BoundsError, True,
                 id="deref-overrun"),
    pytest.param("check_deref", (_PEER, 4), BoundsError, False,
                 id="deref-of-peer"),
    pytest.param("check_index", (_OBJ, _OBJ + 8, 4), None, True,
                 id="index-hit"),
    pytest.param("check_index", (_UNKNOWN, _UNKNOWN + 8, 4), InvalidPointer,
                 True, id="index-unknown"),
    pytest.param("check_index", (_OBJ, _OBJ + 64, 4), BoundsError, True,
                 id="index-overrun"),
    pytest.param("check_index", (_PEER, _PEER + 4, 4), BoundsError, False,
                 id="index-through-peer"),
    pytest.param("check_arith", (_OBJ, _OBJ + 16), None, True,
                 id="arith-hit"),
    pytest.param("check_arith", (_UNKNOWN, _UNKNOWN + 8), InvalidPointer,
                 True, id="arith-unknown"),
    pytest.param("check_arith", (_OBJ, _OBJ + 200), None, True,
                 id="arith-creates-peer"),
    pytest.param("check_arith", (_PEER, _PEER + 8), None, False,
                 id="arith-from-peer"),
])
def test_check_costs_one_check_plus_its_splay_visits(check, args, error,
                                                      looks_up):
    """Every check advances the clock by exactly ``kgcc_check`` plus
    ``kgcc_splay_node`` per splay node its lookup touched; a check that
    finds an out-of-bounds peer does no lookup."""
    k = Kernel()
    runtime = KgccRuntime(k)
    for i in range(16):
        runtime.map.register(_OBJ + (i - 8) * 0x100, 64, "heap", f"o{i}")
    runtime.map.make_peer(_PEER, runtime.map.lookup(_OBJ))
    tree = runtime.map._tree
    clock0, visits0 = k.clock.now, tree.visits
    if error is None:
        getattr(runtime, check)(*args, "s")
    else:
        with pytest.raises(error):
            getattr(runtime, check)(*args, "s")
    visits = tree.visits - visits0
    assert (visits > 0) is looks_up
    costs = k.costs
    assert k.clock.now - clock0 == (costs.kgcc_check
                                    + visits * costs.kgcc_splay_node)
    assert runtime.checks_executed == 1
    assert runtime.check_failures == (error is not None)
    assert runtime.site_counts == {"s": 1}


# ------------------------------------------------------------ checked programs

@pytest.fixture
def checked():
    """Run KGCC-instrumented source; returns (result, runtime, report)."""
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("kgcc")
    mem = UserMemAccess(k, task)

    def _run(source: str, fn: str = "main", *args: int, optimize_first=False):
        program = parse(source)
        report = instrument(program)
        if optimize_first:
            optimize(program)
        runtime = KgccRuntime(k, mode=Mode.USER)
        interp = Interpreter(program, mem,
                             externs=runtime.make_externs(mem),
                             check_runtime=runtime, var_hooks=runtime)
        return interp.call(fn, *args), runtime, report

    return _run


def test_clean_program_passes(checked):
    src = """
    int main() {
        int a[10];
        for (int i = 0; i < 10; i++) a[i] = i;
        int s = 0;
        for (int i = 0; i < 10; i++) s += a[i];
        return s;
    }
    """
    result, runtime, _ = checked(src)
    assert result == 45
    assert runtime.check_failures == 0
    assert runtime.checks_executed > 0


def test_array_overflow_caught(checked):
    src = """
    int main() {
        int a[4];
        for (int i = 0; i <= 4; i++) a[i] = i;
        return 0;
    }
    """
    with pytest.raises(BoundsError):
        checked(src)


def test_overflow_into_adjacent_object_caught(checked):
    """Intended-referent semantics: landing in a neighbour is a violation."""
    src = """
    int main() {
        int a[2];
        int b[2];
        a[3] = 7;
        return 0;
    }
    """
    with pytest.raises(BoundsError):
        checked(src)


def test_negative_index_caught(checked):
    src = """
    int main() {
        int a[4];
        int i = -1;
        a[i] = 1;
        return 0;
    }
    """
    with pytest.raises(BoundsError):
        checked(src)


def test_pointer_walk_in_bounds_ok(checked):
    src = """
    int main() {
        int a[8];
        int *p = &a[0];
        int s = 0;
        for (int i = 0; i < 8; i++) { *p = i; s += *p; p = p + 1; }
        return s;
    }
    """
    result, runtime, _ = checked(src)
    assert result == 28
    assert runtime.check_failures == 0


def test_oob_pointer_arith_allowed_deref_caught(checked):
    """ptr+i-j: temporarily out of bounds is fine; dereferencing is not."""
    src = """
    int main() {
        int a[4];
        int *p = &a[0];
        int *q = p + 10;    // OOB: becomes a peer, no error
        int *r = q - 8;     // back in bounds via the peer
        *r = 5;             // fine: a[2]
        return a[2];
    }
    """
    result, runtime, _ = checked(src)
    assert result == 5
    assert runtime.check_failures == 0


def test_deref_of_oob_peer_caught(checked):
    src = """
    int main() {
        int a[4];
        int *p = &a[0];
        int *q = p + 10;
        return *q;
    }
    """
    with pytest.raises(BoundsError):
        checked(src)


def test_heap_malloc_free_checked(checked):
    src = """
    int main() {
        int *p = malloc(32);
        p[0] = 10;
        p[3] = 20;
        int s = p[0] + p[3];
        free(p);
        return s;
    }
    """
    result, runtime, _ = checked(src)
    assert result == 30


def test_heap_overflow_caught(checked):
    src = """
    int main() {
        int *p = malloc(16);
        p[2] = 1;
        return 0;
    }
    """
    with pytest.raises(BoundsError):
        checked(src)


def test_use_after_free_caught(checked):
    src = """
    int main() {
        int *p = malloc(16);
        free(p);
        return p[0];
    }
    """
    with pytest.raises((BoundsError, InvalidPointer)):
        checked(src)


def test_double_free_caught(checked):
    src = """
    int main() {
        int *p = malloc(16);
        free(p);
        free(p);
        return 0;
    }
    """
    with pytest.raises(AllocatorMisuse):
        checked(src)


def test_unregistered_scalars_skip_registration(checked):
    src = """
    int main() {
        int x = 1;
        int y = 2;
        int a[2];
        a[0] = x; a[1] = y;
        return a[0] + a[1];
    }
    """
    result, runtime, report = checked(src)
    assert result == 3
    unregistered = {b.name for b in report.unregistered}
    assert "x" in unregistered and "y" in unregistered
    assert "a" not in unregistered


# ---------------------------------------------------------------- optimization

def test_static_elimination_drops_literal_safe_checks():
    src = """
    int main() {
        int a[4];
        a[0] = 1; a[1] = 2; a[2] = 3;
        return a[0] + a[1] + a[2];
    }
    """
    program = parse(src)
    report = instrument(program)
    opt = eliminate_safe_static_checks(program)
    assert opt.checks_removed_static == report.checks_inserted
    assert opt.checks_after == 0


def test_static_elimination_keeps_escaped_arrays():
    src = """
    int use(int *p) { return *p; }
    int main() {
        int a[4];
        a[0] = 1;
        return use(a);
    }
    """
    program = parse(src)
    instrument(program)
    opt = eliminate_safe_static_checks(program)
    assert opt.checks_removed_static == 0


def test_cse_removes_duplicate_checks():
    src = """
    int main() {
        int a[8];
        int i = 3;
        a[i] = a[i] + a[i];
        return a[i];
    }
    """
    program = parse(src)
    report = instrument(program)
    opt = eliminate_common_checks(program)
    # four a[i] checks; the first survives per straight-line region
    assert opt.checks_removed_cse >= 2
    assert opt.checks_after < report.checks_inserted


def test_cse_respects_assignment_kill():
    src = """
    int main() {
        int a[8];
        int i = 0;
        a[i] = 1;
        i = 5;
        a[i] = 2;
        return 0;
    }
    """
    program = parse(src)
    instrument(program)
    opt = eliminate_common_checks(program)
    assert opt.checks_removed_cse == 0  # i changed between the checks


def test_optimized_program_still_catches_bugs():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("t")
    mem = UserMemAccess(k, task)
    src = """
    int main(int n) {
        int a[4];
        a[n] = a[n] + 1;
        return a[n];
    }
    """
    program = parse(src)
    instrument(program)
    optimize(program)
    runtime = KgccRuntime(k)
    interp = Interpreter(program, mem, check_runtime=runtime,
                         var_hooks=runtime)
    assert interp.call("main", 2) == 1
    with pytest.raises(BoundsError):
        interp.call("main", 9)


def test_checked_execution_is_slower():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("t")
    mem = UserMemAccess(k, task)
    src = """
    int main() {
        int a[64];
        int s = 0;
        for (int i = 0; i < 64; i++) { a[i] = i; s += a[i]; }
        return s;
    }
    """
    def run(checked: bool) -> int:
        program = parse(src)
        kwargs = {}
        if checked:
            instrument(program)
            runtime = KgccRuntime(k, mode=Mode.USER)
            kwargs = dict(check_runtime=runtime, var_hooks=runtime)
        before = k.clock.now
        def on_op_batch(n):
            k.clock.charge(n * k.costs.cminus_op, Mode.USER)
        Interpreter(program, mem, on_op_batch=on_op_batch,
                    **kwargs).call("main")
        return k.clock.now - before

    vanilla = run(False)
    checked = run(True)
    assert checked > vanilla * 1.5  # §3.4: instrumented code runs much slower


# ------------------------------------------------------------ deinstrumentation

def test_deinstrumentation_disables_hot_sites():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("t")
    mem = UserMemAccess(k, task)
    src = """
    int main() {
        int a[16];
        int s = 0;
        for (int i = 0; i < 16; i++) { a[i] = i; s += a[i]; }
        return s;
    }
    """
    program = parse(src)
    report = instrument(program)
    runtime = KgccRuntime(k)
    interp = Interpreter(program, mem, check_runtime=runtime,
                         var_hooks=runtime)
    deinst = DynamicDeinstrumenter(runtime, report, threshold=30)
    interp.call("main")
    checks_first = runtime.checks_executed
    assert deinst.sweep() > 0
    interp.call("main")
    # disabled sites no longer execute checks
    assert runtime.checks_executed - checks_first < checks_first


def test_deinstrumentation_pin_keeps_site_active():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("t")
    mem = UserMemAccess(k, task)
    program = parse("int main() { int a[4]; a[1] = 1; return a[1]; }")
    report = instrument(program)
    runtime = KgccRuntime(k)
    interp = Interpreter(program, mem, check_runtime=runtime,
                         var_hooks=runtime)
    deinst = DynamicDeinstrumenter(runtime, report, threshold=1)
    interp.call("main")
    some_site = next(iter(report.sites))
    deinst.pin(some_site)
    deinst.sweep()
    assert some_site not in deinst.disabled_sites
    deinst.enable_all()
    assert deinst.active_sites == len(report.sites)


# ------------------------------------------------- constant-folded elimination

def test_static_elimination_folds_arithmetic_indices():
    """Indices built from constant arithmetic are as safe as literals."""
    src = """
    int main() {
        int a[8];
        a[2 + 3] = 1;
        a[7 - 4] = 2;
        a[2 * 2] = 3;
        return a[14 / 2];
    }
    """
    program = parse(src)
    report = instrument(program)
    opt = eliminate_safe_static_checks(program)
    assert opt.checks_removed_static == report.checks_inserted
    assert opt.checks_after == 0


def test_static_elimination_folds_sizeof_indices():
    src = """
    int main() {
        char buf[16];
        buf[sizeof(int)] = 1;
        buf[sizeof(int) * 2 - 1] = 2;
        return buf[sizeof(char)];
    }
    """
    program = parse(src)
    report = instrument(program)
    opt = eliminate_safe_static_checks(program)
    assert opt.checks_removed_static == report.checks_inserted


def test_static_elimination_keeps_folded_oob_index():
    """A constant-folded index that is out of bounds must stay checked."""
    src = """
    int main() {
        int a[4];
        a[2 + 2] = 1;
        return 0;
    }
    """
    program = parse(src)
    report = instrument(program)
    opt = eliminate_safe_static_checks(program)
    assert opt.checks_removed_static == 0
    assert opt.checks_after == report.checks_inserted


def test_static_elimination_folds_with_c_wraparound(checked):
    """The folded index is the one the engine computes: 1 << 63 wraps to
    the most negative int, so the index is -8 and the check must stay.
    Folding without the wrap gives 8, in bounds, and the optimized
    program would read b[8] unchecked."""
    src = """
    int main() {
        int a[16];
        int b[16];
        a[0] = 1;
        b[8] = 77;
        return a[(1 << 63) >> 60];
    }
    """
    for optimize_first in (False, True):
        with pytest.raises(BoundsError):
            checked(src, optimize_first=optimize_first)


def test_static_elimination_keeps_nonconstant_index():
    src = """
    int main() {
        int a[4];
        int i = 1;
        a[i + 1] = 1;
        return 0;
    }
    """
    program = parse(src)
    instrument(program)
    opt = eliminate_safe_static_checks(program)
    assert opt.checks_removed_static == 0


def test_const_fold_division_by_zero_is_not_constant():
    from repro.safety.kgcc import const_fold
    from repro.cminus import ast_nodes as ast
    expr = ast.BinOp(op="/", left=ast.IntLit(value=4), right=ast.IntLit(value=0))
    assert const_fold(expr) is None
    expr = ast.BinOp(op="/", left=ast.IntLit(value=-7), right=ast.IntLit(value=2))
    assert const_fold(expr) == -3  # C truncates toward zero


def test_const_fold_divides_in_exact_integers():
    from repro.safety.kgcc import const_fold
    from repro.cminus import ast_nodes as ast
    big = (1 << 62) + 1        # a float quotient would round it
    expr = ast.BinOp(op="/", left=ast.IntLit(value=big),
                     right=ast.IntLit(value=1))
    assert const_fold(expr) == big
    expr = ast.BinOp(op="%", left=ast.IntLit(value=big),
                     right=ast.IntLit(value=-2))
    assert const_fold(expr) == 1
