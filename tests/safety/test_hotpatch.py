"""Run-time code patching (§3.5's planned technology, implemented)."""

import pytest

from repro.cminus import CompiledEngine, Interpreter, UserMemAccess, parse
from repro.errors import BoundsError, CMinusError
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.safety.kgcc import KgccRuntime, instrument
from repro.safety.kgcc.hotpatch import HotPatcher

BASE_SRC = """
int counter = 0;
int scale(int v) { return v * 2; }
int bump() { counter += 1; return counter; }
int main(int v) { return scale(v) + bump(); }
"""


@pytest.fixture
def live():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("patch")
    program = parse(BASE_SRC)
    interp = Interpreter(program, UserMemAccess(k, task))
    return k, program, interp


def test_patch_takes_effect_on_next_call(live):
    k, program, interp = live
    patcher = HotPatcher(program)
    assert interp.call("main", 10) == 21   # 10*2 + counter(1)
    patcher.patch_function("scale", "int scale(int v) { return v * 3; }")
    assert interp.call("main", 10) == 32   # 10*3 + counter(2)


def test_module_state_survives_patching(live):
    """Globals keep their values across patches — like a running kernel."""
    k, program, interp = live
    patcher = HotPatcher(program)
    interp.call("main", 1)
    interp.call("main", 1)  # counter is now 2
    patcher.patch_function("bump",
                           "int bump() { counter += 10; return counter; }")
    assert interp.call("main", 0) == 12  # 0*2 + (2+10)


def test_rollback_restores_old_code(live):
    k, program, interp = live
    patcher = HotPatcher(program)
    record = patcher.patch_function("scale",
                                    "int scale(int v) { return 0; }")
    assert interp.call("scale", 5) == 0
    patcher.rollback(record)
    assert interp.call("scale", 5) == 10
    with pytest.raises(CMinusError):
        patcher.rollback()  # nothing left


def test_rollback_rejects_stale_record(live):
    k, program, interp = live
    patcher = HotPatcher(program)
    first = patcher.patch_function("scale", "int scale(int v) { return 1; }")
    patcher.patch_function("scale", "int scale(int v) { return 2; }")
    with pytest.raises(CMinusError):
        patcher.rollback(first)  # a newer patch supersedes it


def test_patch_validation(live):
    k, program, interp = live
    patcher = HotPatcher(program)
    with pytest.raises(CMinusError):
        patcher.patch_function("ghost", "int ghost() { return 0; }")
    with pytest.raises(CMinusError):
        patcher.patch_function("scale", "int other() { return 0; }")
    with pytest.raises(CMinusError):  # arity change would break callers
        patcher.patch_function("scale",
                               "int scale(int a, int b) { return a; }")
    with pytest.raises(CMinusError):  # two functions in one patch
        patcher.patch_function(
            "scale", "int scale(int v) { return v; } int x() { return 0; }")


def test_patched_code_is_instrumented():
    """A patch into a KGCC-built module gets checks like compiled-in code."""
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("patch")
    mem = UserMemAccess(k, task)
    src = """
    int fill(int *buf, int n) {
        for (int i = 0; i < n; i++) buf[i] = i;
        return 0;
    }
    int main() {
        int data[8];
        fill(data, 8);
        return data[7];
    }
    """
    program = parse(src)
    report = instrument(program)
    runtime = KgccRuntime(k)
    interp = Interpreter(program, mem, check_runtime=runtime,
                         var_hooks=runtime)
    assert interp.call("main") == 7
    patcher = HotPatcher(program, report)
    # the patch has an off-by-one; KGCC must catch it at run time
    record = patcher.patch_function("fill", """
    int fill(int *buf, int n) {
        for (int i = 0; i <= n; i++) buf[i] = i;
        return 0;
    }
    """)
    assert record.checks_added > 0
    with pytest.raises(BoundsError):
        interp.call("main")
    patcher.rollback()
    assert interp.call("main") == 7  # healthy again


def test_patch_uses_live_struct_table():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("patch")
    src = """
    struct pt { int x; int y; };
    int norm1(struct pt *p) { return p->x + p->y; }
    int main() {
        struct pt p;
        p.x = 3; p.y = 4;
        return norm1(&p);
    }
    """
    program = parse(src)
    interp = Interpreter(program, UserMemAccess(k, task))
    assert interp.call("main") == 7
    HotPatcher(program).patch_function(
        "norm1", "int norm1(struct pt *p) { return p->x * p->y; }")
    assert interp.call("main") == 12


@pytest.mark.parametrize("engine", [Interpreter, CompiledEngine])
def test_patch_is_checked_like_compiled_in_code(engine):
    """A patch's identifiers resolve against the live program, globals
    included: ``gp + i`` is pointer arithmetic whether ``poke`` was
    compiled in or patched in, so its arith check makes ``q`` an OOB peer
    instead of letting the store land in ``h[1]``."""
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    mem = UserMemAccess(k, k.spawn("patch"))
    src = """
    int g[2]; int h[2]; int *gp;
    int poke(int i) { %s }
    int main(int i) { gp = g; h[1] = 5; poke(i); return h[1]; }
    """
    body = "int *q = gp + i; *q = 99; return 0;"
    compiled_in = parse(src % body)
    instrument(compiled_in)
    live = parse(src % "return 0;")
    patcher = HotPatcher(live, instrument(live))
    engines = []
    for program in (compiled_in, live):
        runtime = KgccRuntime(k)
        engines.append(engine(program, mem, check_runtime=runtime,
                              var_hooks=runtime))
    patcher.patch_function("poke", "int poke(int i) { %s }" % body)
    for eng in engines:
        with pytest.raises(BoundsError):
            eng.call("main", 3)
