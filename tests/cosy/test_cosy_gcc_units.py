"""Cosy-GCC unit behaviour: slots, dependencies, zero-copy, literals."""

import pytest

from repro.core.cosy import Arg, ArgKind, CosyGCC, OpCode, UnsupportedConstruct
from repro.core.cosy.cosy_gcc import RETURN_SLOT_NAME
from repro.errors import CosyError


def _compile(src: str):
    return CosyGCC().compile(src)


def test_dependency_resolution_fd_flows_through_slot():
    """'resolves dependencies among parameters': open's output slot is
    read's fd input."""
    region = _compile("""
    int main() {
        COSY_START();
        int fd = open("/f", 0);
        char buf[16];
        int n = read(fd, buf, 16);
        close(fd);
        COSY_END();
        return 0;
    }
    """)
    ops = region.ops
    sys_ops = [op for op in ops if op.opcode is OpCode.SYSCALL]
    open_op, read_op, close_op = sys_ops
    fd_slot = region.slot_map["fd"]
    # open's result reaches the fd variable's slot (directly or via a MOV)...
    if open_op.dst != fd_slot:
        movs = [op for op in ops if op.opcode is OpCode.MOV
                and op.dst == fd_slot
                and op.args[0] == Arg.slot(open_op.dst)]
        assert movs, "open's result must flow into fd's slot"
    # ...and both consumers read that slot: the dependency is resolved.
    assert read_op.args[0] == Arg.slot(fd_slot)
    assert close_op.args[0] == Arg.slot(fd_slot)


def test_zero_copy_buffer_shared_between_ops():
    """'automatically identifies and encodes zero-copy opportunities':
    the read and the write reference the same shared-buffer range."""
    region = _compile("""
    int main() {
        COSY_START();
        int a = open("/in", 0);
        int b = open("/out", 1);
        char buf[512];
        int n = read(a, buf, 512);
        write(b, buf, n);
        COSY_END();
        return 0;
    }
    """)
    sys_ops = [op for op in region.ops if op.opcode is OpCode.SYSCALL]
    read_op = sys_ops[2]
    write_op = sys_ops[3]
    assert read_op.args[1].kind is ArgKind.SHARED
    assert write_op.args[1] == read_op.args[1]  # identical range: no copy
    assert region.shared_layout["buf"][1] == 512


def test_string_literals_deduplicated():
    region = _compile("""
    int main() {
        COSY_START();
        int a = open("/same", 0);
        close(a);
        int b = open("/same", 0);
        close(b);
        COSY_END();
        return 0;
    }
    """)
    assert len(region.shared_literals) == 1


def test_inputs_detected_and_prologue_reserved():
    region = _compile("""
    int main() {
        int outer;
        int other;
        COSY_START();
        int r = outer + other;
        return r;
        COSY_END();
        return 0;
    }
    """)
    assert set(region.input_prologue) == {"outer", "other"}
    encoded = region.encode({"outer": 1, "other": 2})
    assert encoded  # both bound
    with pytest.raises(CosyError):
        region.encode({"outer": 1})  # missing input
    with pytest.raises(CosyError):
        region.encode({"outer": 1, "other": 2, "bogus": 3})


def test_return_slot_always_present():
    region = _compile("""
    int main() {
        COSY_START();
        int x = 0;
        COSY_END();
        return 0;
    }
    """)
    assert RETURN_SLOT_NAME in region.slot_map


def test_break_continue_compile_to_jumps():
    region = _compile("""
    int main() {
        COSY_START();
        int s = 0;
        for (int i = 0; i < 10; i++) {
            if (i == 7) break;
            if (i == 2) continue;
            s += i;
        }
        return s;
        COSY_END();
        return 0;
    }
    """)
    jumps = [op for op in region.ops if op.opcode in (OpCode.JMP, OpCode.JZ)]
    assert len(jumps) >= 4


def test_break_outside_loop_rejected():
    with pytest.raises(UnsupportedConstruct):
        _compile("""
        int main() {
            COSY_START();
            break;
            COSY_END();
            return 0;
        }
        """)


def test_buffer_assignment_rejected():
    with pytest.raises(UnsupportedConstruct):
        _compile("""
        int main() {
            COSY_START();
            char buf[8];
            buf = 1;
            COSY_END();
            return 0;
        }
        """)


def test_non_char_array_rejected():
    with pytest.raises(UnsupportedConstruct):
        _compile("""
        int main() {
            COSY_START();
            int nums[8];
            COSY_END();
            return 0;
        }
        """)


def test_unknown_function_rejected():
    with pytest.raises(UnsupportedConstruct):
        _compile("""
        int main() {
            COSY_START();
            int x = mystery();
            COSY_END();
            return 0;
        }
        """)


def test_syscall_outside_compound_table_rejected():
    """A syscall the kernel extension cannot run fails at compile time,
    not when the compound reaches it."""
    with pytest.raises(UnsupportedConstruct, match="rename"):
        _compile("""
        int main() {
            COSY_START();
            int rc = rename("/a", "/b");
            COSY_END();
            return rc;
        }
        """)


def test_helper_functions_collected():
    region = _compile("""
    int sq(int v) { return v * v; }
    int cube(int v) { return v * sq(v); }
    int main() {
        COSY_START();
        int r = cube(3);
        return r;
        COSY_END();
        return 0;
    }
    """)
    assert "cube" in region.functions
