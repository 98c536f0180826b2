"""struct support: layout, member access, KGCC interaction.

Each ``run`` executes the case on both engines (see ``conftest.py``).
"""

import pytest

from repro.cminus import parse
from repro.cminus.ctypes import StructType, CHAR, INT
from repro.errors import BoundsError, CMinusError, InvalidPointer
from repro.safety.kgcc import KgccRuntime, instrument


@pytest.fixture
def run(run_both):
    def _run(source, fn="main", *args, checked=False):
        def build(k, mem, program):
            if not checked:
                return dict(externs={"malloc": mem.malloc, "free": mem.free})
            instrument(program)
            runtime = KgccRuntime(k)
            return dict(check_runtime=runtime, var_hooks=runtime,
                        externs=runtime.make_externs(mem))

        return run_both(build, source, fn, *args)

    return _run


# ---------------------------------------------------------------------- layout

def test_struct_layout_natural_alignment():
    s = StructType("point", [("tag", CHAR), ("x", INT), ("y", INT)])
    assert s.field("tag") == (0, CHAR)
    assert s.field("x")[0] == 8   # int aligned to 8
    assert s.field("y")[0] == 16
    assert s.size == 24


def test_struct_layout_packed_chars():
    s = StructType("s", [("a", CHAR), ("b", CHAR), ("c", CHAR)])
    assert [s.field(n)[0] for n in "abc"] == [0, 1, 2]
    assert s.size == 3


def test_struct_duplicate_field_rejected():
    with pytest.raises(ValueError):
        StructType("bad", [("x", INT), ("x", INT)])


def test_unknown_field_keyerror():
    s = StructType("s", [("a", INT)])
    with pytest.raises(KeyError):
        s.field("nope")


# ------------------------------------------------------------------- execution

def test_member_store_load(run):
    src = """
    struct pair { int a; int b; };
    int main() {
        struct pair p;
        p.a = 7;
        p.b = 35;
        return p.a + p.b;
    }
    """
    assert run(src) == 42


def test_arrow_through_pointer(run):
    src = """
    struct node { int value; int weight; };
    int set(struct node *n, int v) { n->value = v; n->weight = v * 2; return 0; }
    int main() {
        struct node n;
        set(&n, 11);
        return n.value + n.weight;
    }
    """
    assert run(src) == 33


def test_struct_with_array_field(run):
    src = """
    struct buf { int len; char data[16]; };
    int main() {
        struct buf b;
        b.len = 3;
        b.data[0] = 120;
        b.data[2] = 122;
        return b.len + b.data[0] + b.data[2];
    }
    """
    assert run(src) == 3 + 120 + 122


def test_sizeof_struct(run):
    src = """
    struct pair { int a; int b; };
    int main() { return sizeof(struct pair); }
    """
    assert run(src) == 16


def test_struct_fields_independent(run):
    src = """
    struct trio { char a; char b; char c; };
    int main() {
        struct trio t;
        t.a = 1; t.b = 2; t.c = 3;
        t.b = 20;
        return t.a * 100 + t.b + t.c;
    }
    """
    assert run(src) == 123


def test_pointer_to_struct_in_heap(run):
    src = """
    struct rec { int id; int score; };
    int main() {
        struct rec *r = malloc(sizeof(struct rec));
        r->id = 5;
        r->score = 90;
        int total = r->id + r->score;
        free(r);
        return total;
    }
    """
    assert run(src, checked=True) == 95


def test_errors(run):
    with pytest.raises(CMinusError):
        run("int main() { struct ghost g; return 0; }")
    with pytest.raises(CMinusError):
        run("struct s { int a; }; int main() { int x; return x.a; }")
    with pytest.raises(CMinusError):
        run("struct s { int a; }; int main() { struct s v; return v.nope; }")
    with pytest.raises(CMinusError):
        parse("struct e { }; int main() { return 0; }")
    with pytest.raises(CMinusError):
        parse("struct d { int a; int a; }; int main() { return 0; }")


# ----------------------------------------------------------------- KGCC checks

def test_kgcc_checks_arrow_accesses(run):
    """p->field through a dangling pointer is caught in the checked build."""
    src = """
    struct rec { int id; int score; };
    int main() {
        struct rec *r = malloc(sizeof(struct rec));
        free(r);
        return r->score;
    }
    """
    run(src)  # unchecked: silent garbage
    with pytest.raises((BoundsError, InvalidPointer)):
        run(src, checked=True)


def test_kgcc_member_overflow_caught(run):
    """An arrow access past a too-small allocation is a bounds error."""
    src = """
    struct rec { int id; int score; };
    int main() {
        struct rec *r = malloc(8);
        r->score = 1;
        return 0;
    }
    """
    with pytest.raises((BoundsError, InvalidPointer)):
        run(src, checked=True)


def test_kgcc_registers_a_struct_whose_member_address_escapes(run):
    """``&v.b[0]`` takes ``v``'s address, so KGCC registers ``v`` and the
    callee's index check finds the element."""
    src = """
    struct s { int a; int b[2]; };
    int f(int *p) { return p[1]; }
    int main() {
        struct s v;
        v.b[0] = 3;
        v.b[1] = 4;
        return f(&v.b[0]);
    }
    """
    assert run(src) == 4
    assert run(src, checked=True) == 4


def test_render_roundtrip_with_structs():
    from repro.cminus.render import render_program
    src = """
    struct pt { int x; int y; };
    int main() {
        struct pt p;
        struct pt *q = &p;
        p.x = 3;
        q->y = 4;
        return p.x + p.y;
    }
    """
    rendered = render_program(parse(src))
    assert "struct pt {" in rendered
    reparsed = render_program(parse(rendered))
    assert rendered == reparsed
