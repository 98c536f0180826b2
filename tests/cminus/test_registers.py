"""Registers: address-free integer and pointer locals and parameters
live outside simulated memory, in both engines.

Each ``run_both`` case executes on the tree-walker and on the compiled
engine (see ``conftest.py``) and requires the same result, clock and op
count from both; the memory traffic each engine makes is counted by
wrapping the backend's methods before the engine binds them.
"""

from collections import Counter
from unittest import mock

import pytest

from repro.cminus import (CompiledEngine, Interpreter, UserMemAccess,
                          compile_program, parse)
from repro.cminus import compile as compile_module
from repro.cminus.resolve import resolve
from repro.errors import BoundsError
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.safety.kgcc import KgccRuntime, instrument
from repro.safety.kgcc.modulefs import _DirTable, _ModuleEngine
from repro.workloads.dbapp import _CHECKSUM_FUNC, RECORD_SIZE

_METHODS = ("read", "write", "try_read_int", "try_write_int",
            "alloc_stack", "free_stack")


def _count(mem) -> Counter:
    """Count the calls ``mem`` receives, per method."""
    calls: Counter = Counter()

    def wrap(name, method):
        def counted(*args):
            calls[name] += 1
            return method(*args)
        return counted

    for name in _METHODS:
        setattr(mem, name, wrap(name, getattr(mem, name)))
    return calls


@pytest.fixture
def traffic(run_both):
    """``traffic(source)``: run ``main`` on both engines; returns the
    result and each engine's calls into the memory backend."""

    def run(source: str):
        counts: list[Counter] = []

        def build(k, mem, program):
            counts.append(_count(mem))
            return {}

        return run_both(build, source), counts

    return run


def test_registers_make_no_memory_traffic(traffic):
    src = """
    int sum(int n, char c) {
        int s = 0;
        for (int i = 0; i < n; i++) { s += i * c; c++; }
        return s;
    }
    int main() { int a = 3; int b = sum(a + 1, 2); a += b; return a; }
    """
    result, (tree, comp) = traffic(src)
    assert result == 29
    assert tree == comp == Counter()


def test_address_taken_variable_stays_in_memory(traffic):
    src = """
    int main() {
        int x = 1;
        int y = 2;
        int *p = &x;
        *p += 5;
        y += x;
        return y;
    }
    """
    result, (tree, comp) = traffic(src)
    assert result == 8
    # x (its address is taken) is in memory; y and the pointer p are not
    assert tree["alloc_stack"] == comp["alloc_stack"] == 1
    assert tree["free_stack"] == comp["free_stack"] == 1


def test_char_register_wraps_on_store(traffic):
    src = """
    int main() {
        char c = 100;
        c += 100;
        int a = c;
        c = 127;
        c++;
        return a * 1000 + c;
    }
    """
    result, (tree, comp) = traffic(src)
    assert result == -56 * 1000 - 128
    assert tree == comp == Counter()


def test_callee_writes_its_integer_parameters(traffic):
    src = """
    int f(int n, char c) {
        n = n * 2;
        n += 1;
        c = c + 200;
        n++;
        return n * 1000 + c;
    }
    int main() { int n = 5; int r = f(n, 10); return r + n + f(1, 300); }
    """
    result, (tree, comp) = traffic(src)
    # f(5, 10) = 12 * 1000 - 46; f(1, 300) truncates 300 to char 44 on
    # entry: 4 * 1000 - 12; the caller's n is untouched
    assert result == 11954 + 5 + 3988
    assert tree == comp == Counter()


def test_shadowed_register_and_memory_pairs(traffic):
    src = """
    int main() {
        int s = 0;
        int x = 1;
        { int x = 10; int *p = &x; *p += 1; s += x; }
        s += x;
        int y = 100;
        int *q = &y;
        { int y = 1000; y++; s += y; }
        *q += 1;
        s += y;
        for (int i = 0; i < 3; i++) { int x = i; x *= 2; s += x; }
        return s * 10 + x;
    }
    """
    result, (tree, comp) = traffic(src)
    assert result == (11 + 1 + 1001 + 101 + 6) * 10 + 1
    # in memory: the inner x and the outer y; the pointers p and q are
    # registers
    assert tree["alloc_stack"] == comp["alloc_stack"] == 2


def test_self_initializing_register_reads_zero(run_both):
    src = "int main() { int x = 5; { int x = x + 1; return x; } }"
    assert run_both(lambda k, mem, program: {}, src) == 1


def _fresh_user_mem():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("db")
    return task, UserMemAccess(k, task)


@pytest.mark.parametrize("engine", [Interpreter, CompiledEngine])
def test_dbapp_checksum_traffic(engine):
    """One checksum of a 128-byte record: the loop reads only ``p[i]``,
    once per byte, and stores nothing; ``p``, ``n``, ``s``, ``i`` and
    ``b`` are registers."""
    task, mem = _fresh_user_mem()
    buf = task.mem.malloc(RECORD_SIZE)
    mem.write(buf, bytes(range(RECORD_SIZE)))
    calls = _count(mem)
    interp = engine(parse(_CHECKSUM_FUNC), mem)
    assert interp.call("checksum", buf, RECORD_SIZE) == sum(range(128))
    if engine is CompiledEngine:
        assert (calls["try_read_int"], calls["try_write_int"]) == (128, 0)
        assert (calls["read"], calls["write"]) == (0, 0)
    else:
        assert (calls["read"], calls["write"]) == (128, 0)
    assert calls["alloc_stack"] == calls["free_stack"] == 0


def test_kgccfs_find_entry_traffic():
    """One checked ``find_entry`` that matches the third of three
    entries; the counts cover ``streq`` calls too."""
    k = Kernel()
    module = _ModuleEngine(k, checked=True)
    table = _DirTable(module)
    for ino, name in enumerate(("alpha", "beta", "gamma")):
        table.add(name, 100 + ino)
    calls: Counter = Counter()
    engine = module.interp
    load, store = engine.load, engine.store

    def counted_load(*args):
        calls["try_read_int"] += 1
        return load(*args)

    def counted_store(*args):
        calls["try_write_int"] += 1
        return store(*args)

    engine.load, engine.store = counted_load, counted_store
    checks = module.runtime.checks_executed
    assert table.find("gamma") == 2
    # loads: slot[0] per slot scanned, and a[i], b[i] (and a[i] again
    # while they match) per byte streq compares; no stores, as every
    # pointer parameter and slot is a register
    assert (calls["try_read_int"], calls["try_write_int"]) == (25, 0)
    assert module.runtime.checks_executed - checks == 31


@pytest.mark.parametrize("expr,expected", [
    ("x + (x = 5)", 1 + 5),
    ("(x = 5) + x", 5 + 5),
    ("x * 10 + x++", 10 + 1),
    ("f(x, ++x)", 1 * 100 + 2),
    ("a[x] + (x = 0) + a[x]", 20 + 0 + 10),
], ids=["assign", "assign-first", "postinc", "call-args", "index"])
def test_register_read_is_sequenced_before_a_later_write(run_both, expr,
                                                         expected):
    """Operands are evaluated left to right: a register read keeps its
    value when an operand after it writes the register."""
    src = f"""
    int f(int a, int b) {{ return a * 100 + b; }}
    int main() {{
        int a[2];
        a[0] = 10;
        a[1] = 20;
        int x = 1;
        return {expr};
    }}
    """
    assert run_both(lambda k, mem, program: {}, src) == expected


# --------------------------------------------------------- pointer registers

_STEPPED = {
    # pointee declaration, a store through p, the element it lands in
    "char": ("char v[6];", "*p = 7;", "v[1]"),
    "int": ("int v[6];", "*p = 7;", "v[1]"),
    "long": ("long v[6];", "*p = 7;", "v[1]"),
    "struct": ("struct s v[6];", "p->f = 7;", "v[1].f"),
}


@pytest.mark.parametrize("kind", _STEPPED)
def test_pointer_register_steps_by_the_pointee_size(traffic, kind):
    """Prefix and postfix ``++``/``--`` and ``+=``/``-=`` on a pointer
    register move it by whole elements: ``p - v`` divides by the
    element size, so a step of one byte would read 0 here."""
    decl, store, elem = _STEPPED[kind]
    ctype = decl.split(" v")[0]
    src = f"""
    struct s {{ int a; char c; int f; }};
    int main() {{
        {decl}
        {ctype} *p = v;
        int r = p++ - v;
        r = r * 10 + (++p - v);
        p += 3;
        r = r * 10 + (p-- - v);
        r = r * 10 + (--p - v);
        p -= 2;
        r = r * 10 + (p - v);
        {store}
        return r * 10 + {elem};
    }}
    """
    result, (tree, comp) = traffic(src)
    assert result == 25317
    # only the array is in memory
    assert tree["alloc_stack"] == comp["alloc_stack"] == 1


def test_pointer_register_difference_and_member_access(traffic):
    src = """
    struct s { int a; char c; int f; };
    int total(struct s *p, struct s *end) {
        int t = 0;
        while (p < end) { t += p->f; p->a = t; p++; }
        return t;
    }
    int main() {
        struct s v[4];
        struct s *q = v;
        for (int i = 0; i < 4; i++) { q->f = i + 1; q++; }
        struct s *p = v + 1;
        return (q - p) * 100 + total(p, q) * 10 + v[3].a - (p - q);
    }
    """
    result, (tree, comp) = traffic(src)
    # q - p = 3; total adds f = 2, 3, 4 and leaves v[3].a = 9
    assert result == 300 + 90 + 9 + 3
    assert tree["alloc_stack"] == comp["alloc_stack"] == 1


def test_address_taken_pointer_stays_in_memory(traffic):
    src = """
    int main() {
        int a[3];
        a[0] = 1; a[1] = 2; a[2] = 3;
        int *p = a;
        int **pp = &p;
        **pp = 10;
        *pp = *pp + 2;
        **pp += 5;
        p--;
        return a[0] * 100 + a[2] * 10 + *p;
    }
    """
    result, (tree, comp) = traffic(src)
    assert result == 1000 + 80 + 2
    # a and p are in memory; pp is a register
    assert tree["alloc_stack"] == comp["alloc_stack"] == 2
    b = {b.name: b for b in resolve(parse(src))["main"]}
    assert not b["p"].register and b["pp"].register


def test_outlined_helper_hands_back_a_pointer_register(run_both):
    """With the nesting budget forced small, the inner loop moves into a
    helper, which must hand the stepped pointer back to its caller."""
    src = """
    int main() {
        int a[8];
        for (int i = 0; i < 8; i++) a[i] = i * 3;
        int *p = a;
        for (int i = 0; i < 2; i++) {
            for (int j = 0; j < 2; j++) {
                if (j == 1) { p++; ++p; }
            }
        }
        return (p - a) * 100 + *p;
    }
    """
    with mock.patch.object(compile_module, "_MAX_BLOCKS", 2), \
            mock.patch.object(compile_module, "_MAX_INDENT", 4):
        assert "def _h" in compile_program(parse(src)).funcs["main"].source
        assert run_both(lambda k, mem, program: {}, src) == 400 + 12


def test_kgcc_checks_pointer_registers_without_registering_them(run_both):
    """An OOB peer held in a register still fails at its dereference,
    and KGCC's ``on_decl`` only ever sees the array."""
    src = """
    int main() {
        int a[4];
        int *p = a + 6;
        int s = 0;
        for (int *q = a; q < a + 4; q++) { *q = 1; s += *q; }
        p = p - 1;
        return s + *p;
    }
    """
    declared = []

    def build(k, mem, program):
        instrument(program)
        runtime = KgccRuntime(k)
        on_decl = runtime.on_decl

        def spy(binding, addr, site):
            declared.append(binding.name)
            on_decl(binding, addr, site)

        runtime.on_decl = spy
        return dict(check_runtime=runtime, var_hooks=runtime)

    with pytest.raises(BoundsError, match="out-of-bounds pointer"):
        run_both(build, src)
    assert declared == ["a", "a"]         # once per engine
