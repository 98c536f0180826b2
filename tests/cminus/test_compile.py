"""The compiled C-minus engine against the tree-walking oracle.

The tree-walker charges one ``cminus_op`` per AST tick as it goes; the
generated code counts pending ops in a local and charges them at flush
points (slow memory accesses, checks, hooks, calls).  Everything observable —
return values, memory, the simulated clock, op counts at the instant a
limit trips — must be bit-identical, or batching has changed semantics.
"""

import pytest

from repro.cminus import (CodeCache, CompiledEngine, ExecLimits, Interpreter,
                          UserMemAccess, bump_generation, compile_program,
                          generation_of, parse)
from repro.errors import CMinusError, ReproError
from repro.kernel import Kernel
from repro.kernel.clock import Mode
from repro.kernel.fs import RamfsSuperBlock
from repro.safety.kgcc import (DynamicDeinstrumenter, KgccRuntime, instrument)
from repro.safety.kgcc.hotpatch import HotPatcher

WORK_SRC = """
int total = 0;

int mix(int seed, int iters) {
    int x = seed;
    int acc = 0;
    for (int i = 0; i < iters; i++) {
        x = (x * 1103515245 + 12345) % 2147483648;
        if (x < 0) x = -x;
        acc = acc + (x % 97) - (x % 13);
        acc = acc ^ (x >> 7);
    }
    return acc;
}

int sum_array(int n) {
    int a[32];
    for (int i = 0; i < n; i++) a[i] = i * i;
    int *p = a;
    int s = 0;
    for (int i = 0; i < n; i++) { s += *p; p++; }
    return s;
}

int main(int n) {
    total = mix(7, n) + sum_array(20);
    return total;
}
"""


def _fresh():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("t")
    return k, UserMemAccess(k, task)


def _run_engine(engine: str, src: str, func: str, *args,
                max_ops: int | None = 200_000):
    """Run one engine on a fresh kernel; returns (result-or-exc, clock,
    ops_executed, charged_ops).  The default op limit is far above what
    any case reaches, so a runaway engine fails instead of hanging."""
    k, mem = _fresh()
    program = parse(src)
    charged = 0

    def on_op_batch(n):
        nonlocal charged
        charged += n
        k.clock.charge(n * k.costs.cminus_op, Mode.SYSTEM)

    limits = ExecLimits(max_ops=max_ops)
    cls = Interpreter if engine == "tree" else CompiledEngine
    interp = cls(program, mem, on_op_batch=on_op_batch, limits=limits)
    try:
        outcome = ("ok", interp.call(func, *args))
    except CMinusError as exc:
        outcome = ("err", str(exc))
    return outcome, k.clock.now, interp.ops_executed, charged


# ------------------------------------------------------------- differential

def test_differential_result_and_cycles():
    """Same return value, same simulated cycles, same op count."""
    for n in (0, 1, 17, 400):
        tree = _run_engine("tree", WORK_SRC, "main", n)
        comp = _run_engine("compiled", WORK_SRC, "main", n)
        assert tree == comp


def test_batched_accounting_uses_on_op_batch():
    """The compiled engine's on_op_batch sees the same total as the
    tree-walker's one call per op, in fewer calls."""
    k, mem = _fresh()
    program = parse(WORK_SRC)
    batches: list[int] = []
    CompiledEngine(program, mem,
                   on_op_batch=batches.append).call("main", 50)
    ref, _, ref_ops, ref_charged = _run_engine("tree", WORK_SRC, "main", 50)
    assert ref[0] == "ok"
    assert sum(batches) == ref_charged == ref_ops
    assert len(batches) < ref_charged   # batching actually batched


# ----------------------------------------------------- max_ops enforcement

@pytest.mark.parametrize("max_ops", [1, 7, 50, 333, 1000])
def test_max_ops_exact_parity(max_ops):
    """Both engines stop on exactly the same op with the same error.

    The tree-walker charges the crossing op's tick and then raises; the
    batched engine must land on the identical ops_executed and charge
    count — anything else means preemption/watchdog deadlines would
    observe different clocks depending on the engine.
    """
    tree = _run_engine("tree", WORK_SRC, "main", 400, max_ops=max_ops)
    comp = _run_engine("compiled", WORK_SRC, "main", 400, max_ops=max_ops)
    assert tree[0][0] == "err"
    assert f"exceeded {max_ops} operations" in tree[0][1]
    assert tree == comp
    # the crossing op is charged, then the error fires: m+1 total
    assert tree[2] == max_ops + 1


def test_max_ops_not_hit_runs_to_completion():
    tree = _run_engine("tree", WORK_SRC, "main", 3, max_ops=10_000_000)
    comp = _run_engine("compiled", WORK_SRC, "main", 3, max_ops=10_000_000)
    assert tree[0][0] == "ok"
    assert tree == comp


WALK_SRC = """
int main() {
    char s[8];
    int n = 0;
    for (char *k = s; k < s + 8; k++) n++;
    return n;
}
"""


def _run_checked(engine: str, max_ops: int | None):
    k, mem = _fresh()
    program = parse(WALK_SRC)
    instrument(program)
    runtime = KgccRuntime(k)
    cls = Interpreter if engine == "tree" else CompiledEngine
    interp = cls(program, mem, limits=ExecLimits(max_ops=max_ops),
                 check_runtime=runtime, var_hooks=runtime)
    try:
        outcome = ("ok", interp.call("main"))
    except ReproError as exc:
        outcome = (type(exc).__name__, str(exc))
    return outcome, interp.ops_executed, runtime.checks_executed


def test_max_ops_inside_a_kgcc_arith_check():
    """A limit that trips inside KGCC's ``s + 8`` check, while its
    operands are evaluated, ends the run on both engines at the same op;
    it must not leave the check with no pointer, which once raised
    ``InvalidPointer`` on the tree-walker alone."""
    total = _run_checked("tree", None)[1]
    for max_ops in range(1, total):
        tree = _run_checked("tree", max_ops)
        assert tree[0] == (
            "CMinusError", f"execution exceeded {max_ops} operations")
        assert tree[1] == max_ops + 1
        assert tree == _run_checked("compiled", max_ops)


# ---------------------------------------------------------------- the cache

def test_code_cache_miss_then_hit():
    k, mem = _fresh()
    cache = CodeCache()
    program = parse(WORK_SRC)
    e1 = CompiledEngine(program, mem, cache=cache)
    e2 = CompiledEngine(program, mem, cache=cache)
    assert (cache.hits, cache.misses) == (1, 1)
    assert e1._compiled is e2._compiled
    assert e1.call("main", 5) == e2.call("main", 5)


def test_generation_bump_invalidates():
    k, mem = _fresh()
    cache = CodeCache()
    program = parse(WORK_SRC)
    first = cache.lookup(program)
    bump_generation(program)
    second = cache.lookup(program)
    assert second is not first
    assert second.generation == generation_of(program)
    assert cache.invalidations == 1
    assert cache.misses == 2


def test_explicit_invalidate_bumps_generation():
    cache = CodeCache()
    program = parse(WORK_SRC)
    gen = generation_of(program)
    cache.lookup(program)
    cache.invalidate(program)
    assert generation_of(program) == gen + 1
    assert cache.invalidations == 1


def test_stale_compiled_code_is_rejected():
    """A generation bump makes previously-compiled code unusable."""
    k, mem = _fresh()
    program = parse(WORK_SRC)
    stale = compile_program(program)
    bump_generation(program)
    with pytest.raises(CMinusError, match="stale compiled code"):
        CompiledEngine(program, mem, compiled=stale)


def test_cache_eviction_is_bounded():
    cache = CodeCache(max_entries=4)
    programs = [parse(f"int main() {{ return {i}; }}") for i in range(10)]
    for p in programs:
        cache.lookup(p)
    assert len(cache._entries) <= 4


# ----------------------------------------------- invalidation by KGCC tools

def test_hotpatch_invalidates_cached_code():
    """After a hotpatch the stale compiled body never executes."""
    k, mem = _fresh()
    cache = CodeCache()
    src = "int scale(int v) { return v * 2; }\n" \
          "int main(int v) { return scale(v); }"
    program = parse(src)
    assert CompiledEngine(program, mem, cache=cache).call("main", 10) == 20
    HotPatcher(program).patch_function(
        "scale", "int scale(int v) { return v * 3; }")
    # a fresh engine through the same cache must see the new body
    assert CompiledEngine(program, mem, cache=cache).call("main", 10) == 30
    assert cache.invalidations >= 1


def test_hotpatch_rollback_also_invalidates():
    k, mem = _fresh()
    cache = CodeCache()
    src = "int scale(int v) { return v * 2; }\n" \
          "int main(int v) { return scale(v); }"
    program = parse(src)
    patcher = HotPatcher(program)
    record = patcher.patch_function(
        "scale", "int scale(int v) { return 0; }")
    assert CompiledEngine(program, mem, cache=cache).call("main", 9) == 0
    patcher.rollback(record)
    assert CompiledEngine(program, mem, cache=cache).call("main", 9) == 18
    assert cache.invalidations >= 1


def test_deinstrument_sweep_stops_check_execution():
    """A deinstrumentation sweep stops checks firing in compiled code."""
    k, mem = _fresh()
    cache = CodeCache()
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

    def run() -> int:
        before = runtime.checks_executed
        engine = CompiledEngine(program, mem, cache=cache,
                                check_runtime=runtime, var_hooks=runtime)
        assert engine.call("main") == 120
        return runtime.checks_executed - before

    assert run() > 0
    deins = DynamicDeinstrumenter(runtime, report, threshold=1)
    assert deins.sweep() > 0
    assert run() == 0                      # checks no longer execute
    assert cache.invalidations >= 1        # and the cached code was stale


def test_instrumentation_bumps_generation():
    program = parse(WORK_SRC)
    gen = generation_of(program)
    instrument(program)
    assert generation_of(program) > gen


# ------------------------------------------------ shapes the generator risks

def _nested_loops(depth: int, inner: str) -> str:
    body = inner
    for d in reversed(range(depth)):
        bound = 2 if d < 3 else 1
        body = (f"for (int i{d} = 0; i{d} < {bound}; i{d}++) "
                f"{{ int d{d} = i{d} + {d}; {body} }}")
    return f"int main() {{ int s = 0; {body} return s; }}"


@pytest.mark.parametrize("depth,inner", [
    (12, "s += d11;"),
    # deeper than one Python function may nest: break, continue and
    # return leave the cut-out parts
    (40, "if (i0 == 1) continue; s += d39; if (s > 60) break;"),
    (40, "s += d0 + d39; if (i1 == 1) return s;"),
], ids=["12", "40-break-continue", "40-return"])
def test_deeply_nested_loops(depth, inner):
    """Nested loops whose bodies declare run identically on both
    engines, however deep the parser lets them go."""
    src = _nested_loops(depth, inner)
    tree = _run_engine("tree", src, "main")
    comp = _run_engine("compiled", src, "main")
    assert tree[0][0] == "ok"
    assert tree == comp


def test_deeply_nested_expression():
    src = ("int main() { int x = 1; return "
           + "x && (" * 90 + "x" + ")" * 90 + "; }")
    tree = _run_engine("tree", src, "main")
    assert tree == _run_engine("compiled", src, "main")
    assert tree[0] == ("ok", 1)


HOOKED_SRC = """
int g = 5;

int fill(int *a, int n) {
    for (int i = 0; i < n; i++) a[i] = i * g;
    return n;
}

int main() {
    int a[8];
    int *p = a;
    fill(p, 8);
    int s = 0;
    for (int i = 0; i < 8; i++) { s += *(p + i); }
    return s;
}
"""


def _hooked_run(cls, program, report, hooks: set, cache=None):
    """One engine with the given hooks on a fresh kernel: (result,
    clock, ops, clock stamps at every statement)."""
    k, mem = _fresh()
    stamps: list[int] = []
    kwargs = {}
    if "step" in hooks:
        kwargs["step_hook"] = lambda: stamps.append(k.clock.now)
    if "limit" in hooks:
        kwargs["limits"] = ExecLimits(max_ops=150)
    if "checks" in hooks:
        runtime = KgccRuntime(k)
        kwargs.update(check_runtime=runtime, var_hooks=runtime)
    if cache is not None:
        kwargs["cache"] = cache
    engine = cls(program, mem,
                 on_op_batch=lambda n: k.clock.charge(n * k.costs.cminus_op,
                                                      Mode.SYSTEM),
                 **kwargs)
    try:
        outcome = ("ok", engine.call("main"))
    except CMinusError as exc:
        outcome = ("err", str(exc))
    return outcome, k.clock.now, engine.ops_executed, stamps


def test_one_cached_program_serves_every_hook_mix():
    """Hooks are read when the code runs, not when it is generated: one
    cached program matches the tree-walker under every mix of hooks."""
    program = parse(HOOKED_SRC)
    report = instrument(program)
    cache = CodeCache()
    mixes = [set(), {"step"}, {"limit"}, {"checks"},
             {"step", "limit", "checks"}]
    for hooks in mixes:
        tree = _hooked_run(Interpreter, program, report, hooks)
        comp = _hooked_run(CompiledEngine, program, report, hooks, cache)
        assert tree == comp, hooks
        assert bool(tree[3]) == ("step" in hooks)
    assert (cache.misses, cache.hits) == (1, 4)


def test_generated_source_is_kept_and_named():
    program = parse(WORK_SRC)
    compiled = compile_program(program, "work.c")
    mix = compiled.funcs["mix"]
    assert "def _c_mix(rt, " in mix.source
    assert mix.fn.__code__.co_filename == "<cminus:work.c:mix>"
