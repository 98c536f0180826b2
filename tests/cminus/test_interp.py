"""C-subset semantics over real simulated memory.

Each ``run`` executes the case on the tree-walker and on the compiled
engine (see ``conftest.py``) and requires the same result, clock and op
count from both.
"""

import pytest

from repro.cminus import ExecLimits, Interpreter, UserMemAccess, parse
from repro.errors import BoundsError, CMinusError
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.safety.kgcc import KgccRuntime, instrument


@pytest.fixture
def run(run_both):
    """Returns run(source, fn='main', *args) -> int.  ``externs`` may be
    a function returning the table, called once per engine."""

    def _run(source: str, fn: str = "main", *args: int,
             externs=None, limits=None) -> int:
        def build(k, mem, program):
            table = externs() if callable(externs) else externs
            return dict(externs=table, limits=limits)

        return run_both(build, source, fn, *args)

    return _run


def test_arithmetic(run):
    assert run("int main() { return 2 + 3 * 4; }") == 14
    assert run("int main() { return (2 + 3) * 4; }") == 20
    assert run("int main() { return 7 / 2; }") == 3
    assert run("int main() { return -7 / 2; }") == -3  # C truncation
    assert run("int main() { return 7 % 3; }") == 1
    assert run("int main() { return -7 % 3; }") == -1  # C remainder sign


@pytest.mark.parametrize("a,b,quotient,remainder", [
    (7, 2, 3, 1), (-7, 2, -3, -1), (7, -2, -3, 1), (-7, -2, 3, -1),
    (0, -5, 0, 0),
    # past 2**53, where a float quotient rounds
    ((1 << 62) + 1, 1, (1 << 62) + 1, 0),
    ((1 << 62) + 3, -2, -((1 << 61) + 1), 1),
    (-(1 << 62) - 7, 1 << 40, -(1 << 22), -7),
])
def test_division_truncates_in_exact_integers(run, a, b, quotient,
                                              remainder):
    decls = f"int a = {a}; int b = {b};"
    assert run(f"int main() {{ {decls} return a / b; }}") == quotient
    assert run(f"int main() {{ {decls} return a % b; }}") == remainder


def test_division_past_float_precision(run):
    src = """
    int main() {
        int x = 4611686018427387905;
        return x / 1 - 4611686018427387904;
    }
    """
    assert run(src) == 1


def test_bitwise_and_shifts(run):
    assert run("int main() { return (12 & 10) | (1 << 4); }") == 24
    assert run("int main() { return 255 >> 4; }") == 15
    assert run("int main() { return 5 ^ 3; }") == 6
    assert run("int main() { return ~0; }") == -1


def test_comparisons_and_logic(run):
    assert run("int main() { return 1 < 2 && 3 >= 3; }") == 1
    assert run("int main() { return 1 == 2 || 0 != 0; }") == 0
    assert run("int main() { return !5; }") == 0


def test_short_circuit_does_not_evaluate(run):
    src = """
    int hits;
    int bump() { hits = hits + 1; return 1; }
    int main() { 0 && bump(); 1 || bump(); return hits; }
    """
    assert run(src) == 0


def test_variables_and_assignment(run):
    assert run("int main() { int x = 5; x += 3; x *= 2; return x; }") == 16


def test_char_truncates(run):
    assert run("int main() { char c = 300; return c; }") == 300 - 256
    assert run("int main() { char c = 200; return c; }") == 200 - 256  # signed


def test_return_value_takes_the_return_type(run):
    assert run("char f() { return 300; } int main() { return f(); }") == 44
    assert run("char f() { return 300; }", "f") == 44
    assert run("char f(int x) { if (x) return x; return 1; }", "f", 200) \
        == 200 - 256
    assert run("int main() { return 18446744073709551615; }") == -1
    src = """
    char *next(char *p) { return p + 1; }
    int main() { char b[2]; b[1] = 7; char *q = next(b); return *q; }
    """
    assert run(src) == 7


def test_a_call_has_its_callees_type(run):
    """A pointer-returning call can be dereferenced and indexed in place,
    and ``sizeof`` sees each call's type."""
    src = """
    char *next(char *p) { return p + 1; }
    int main() {
        char b[3];
        b[0] = 1; b[1] = 7; b[2] = 9;
        return *next(b) * 10 + next(b)[1];
    }
    """
    assert run(src) == 79
    src = """
    char c() { return 1; }
    char *next(char *p) { return p + 1; }
    void v() { }
    int main() {
        char b[2];
        return sizeof(c()) * 1000 + sizeof(next(b)) * 100
            + sizeof(*next(b)) * 10 + sizeof(v());
    }
    """
    assert run(src) == 1000 + 800 + 10 + 8


@pytest.mark.parametrize("access", ["*next(b + 3)", "next(b)[5]"])
def test_an_out_of_bounds_call_result_fails_its_check(run_both, access):
    """Under KGCC, an access through a call's out-of-bounds result is
    checked like any pointer's."""
    src = f"""
    char *next(char *p) {{ return p + 1; }}
    int main() {{ char b[2]; b[0] = 1; b[1] = 2; return {access}; }}
    """

    def build(k, mem, program):
        instrument(program)
        runtime = KgccRuntime(k)
        return dict(check_runtime=runtime, var_hooks=runtime)

    with pytest.raises(BoundsError):
        run_both(build, src)


def test_if_else_chain(run):
    src = """
    int sign(int x) { if (x > 0) return 1; else if (x < 0) return -1; return 0; }
    int main() { return sign(-5) + 10 * sign(7) + 100 * sign(0); }
    """
    assert run(src) == 9


def test_while_and_for(run):
    assert run("int main() { int s = 0; int i = 0; while (i < 5) { s += i; i++; } return s; }") == 10
    assert run("int main() { int s = 0; for (int i = 1; i <= 4; i++) s += i; return s; }") == 10


def test_break_continue(run):
    src = """
    int main() {
        int s = 0;
        for (int i = 0; i < 10; i++) {
            if (i == 7) break;
            if (i % 2) continue;
            s += i;
        }
        return s;
    }
    """
    assert run(src) == 0 + 2 + 4 + 6


def test_functions_and_recursion(run):
    src = """
    int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }
    int main() { return fib(12); }
    """
    assert run(src) == 144


def test_pointers_roundtrip(run):
    src = """
    int main() {
        int x = 11;
        int *p = &x;
        *p = 42;
        return x + *p;
    }
    """
    assert run(src) == 84


def test_pointer_arithmetic_scales(run):
    src = """
    int main() {
        int a[4];
        int *p = &a[0];
        *(p + 2) = 7;
        return a[2] + (sizeof(int) == 8);
    }
    """
    assert run(src) == 8


def test_pointer_difference(run):
    src = """
    int main() {
        int a[10];
        int *p = &a[2];
        int *q = &a[9];
        return q - p;
    }
    """
    assert run(src) == 7


def test_arrays_and_indexing(run):
    src = """
    int main() {
        int a[8];
        for (int i = 0; i < 8; i++) a[i] = i * i;
        int s = 0;
        for (int i = 0; i < 8; i++) s += a[i];
        return s;
    }
    """
    assert run(src) == sum(i * i for i in range(8))


def test_char_buffer_and_string(run):
    src = """
    int len(char *s) { int n = 0; while (s[n]) n++; return n; }
    int main() { return len("hello"); }
    """
    assert run(src) == 5


def test_pre_post_increment(run):
    src = """
    int main() {
        int i = 5;
        int a = i++;
        int b = ++i;
        return a * 100 + b * 10 + i;
    }
    """
    assert run(src) == 5 * 100 + 7 * 10 + 7


def test_pointer_increment_scales(run):
    src = """
    int main() {
        int a[3];
        a[0] = 1; a[1] = 2; a[2] = 3;
        int *p = a;
        p++;
        return *p;
    }
    """
    assert run(src) == 2


def test_globals_and_init(run):
    src = """
    int counter = 100;
    int bump(int by) { counter += by; return counter; }
    int main() { bump(5); bump(5); return counter; }
    """
    assert run(src) == 110


def test_sizeof(run):
    assert run("int main() { return sizeof(char); }") == 1
    assert run("int main() { return sizeof(int); }") == 8
    assert run("int main() { return sizeof(int*); }") == 8
    assert run("int main() { char buf[10]; return sizeof(buf); }") == 10


def test_externs_called(run):
    calls = []

    def externs():
        log = []
        calls.append(log)

        def record(x):
            log.append(x)
            return x * 2

        return {"host": record}

    assert run("int main() { return host(21); }", "main",
               externs=externs) == 42
    assert calls == [[21], [21]]     # once on each engine


def test_division_by_zero_raises(run):
    with pytest.raises(CMinusError):
        run("int main() { int z = 0; return 1 / z; }")


def test_undefined_variable_raises(run):
    with pytest.raises(CMinusError):
        run("int main() { return nope; }")


def test_undefined_function_raises(run):
    with pytest.raises(CMinusError):
        run("int main() { return nope(); }")


def test_wrong_arity_raises(run):
    with pytest.raises(CMinusError):
        run("int f(int a) { return a; } int main() { return f(); }")


def test_exec_limit_stops_infinite_loop(run):
    with pytest.raises(CMinusError):
        run("int main() { while (1) {} return 0; }",
            limits=ExecLimits(max_ops=10_000))


def test_scopes_shadowing(run):
    src = """
    int main() {
        int x = 1;
        { int x = 2; }
        return x;
    }
    """
    assert run(src) == 1


def test_on_op_hook_counts():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("t")
    mem = UserMemAccess(k, task)
    count = [0]
    interp = Interpreter(parse("int main() { return 1 + 2; }"), mem,
                         on_op_batch=lambda n: count.__setitem__(
                             0, count[0] + n))
    interp.call("main")
    assert count[0] == interp.ops_executed > 0
