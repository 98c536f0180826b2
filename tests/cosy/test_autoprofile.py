"""Cosy auto-profiling: automatic region discovery and marking (§2.4)."""

import pytest

from repro.core.cosy import (CosyKernelExtension, CosyLib, auto_compile,
                             auto_mark, find_candidate_regions)
from repro.errors import CosyError
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.vfs import O_CREAT, O_WRONLY

HOT_LOOP_SRC = """
int main() {
    int warmup = 1 + 2;
    int fd = open("/data", 0);
    char buf[4096];
    int total = 0;
    int n = read(fd, buf, 4096);
    while (n > 0) {
        total += n;
        n = read(fd, buf, 4096);
    }
    close(fd);
    return total;
}
"""


def test_candidates_found_and_scored():
    candidates = find_candidate_regions(HOT_LOOP_SRC)
    assert candidates
    best = candidates[0]
    # the best region must include the read loop (high syscall density)
    assert best.syscall_weight > 10
    # and it beats trivial single-syscall regions
    assert best.syscall_weight >= max(c.syscall_weight for c in candidates)


def test_no_region_in_pure_compute():
    with pytest.raises(CosyError):
        auto_mark("int main() { int s = 0; for (int i = 0; i < 9; i++) s += i; return s; }")


def test_auto_mark_produces_valid_marked_source():
    marked = auto_mark(HOT_LOOP_SRC)
    assert "COSY_START()" in marked and "COSY_END()" in marked
    assert marked.index("COSY_START()") < marked.index("COSY_END()")
    from repro.core.cosy import CosyGCC
    CosyGCC().compile(marked)  # must compile cleanly


def test_auto_compiled_region_runs_correctly():
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("auto")
    payload = b"q" * 10_000
    fd = k.sys.open("/data", O_CREAT | O_WRONLY)
    k.sys.write(fd, payload)
    k.sys.close(fd)
    region = auto_compile(HOT_LOOP_SRC)
    ext = CosyKernelExtension(k)
    installed = CosyLib(k, ext).install(task, region)
    with k.measure() as m:
        result = installed.run()
    assert result.value == len(payload)
    assert m.syscalls == 1  # the whole read loop became one compound


def test_dynamic_profile_overrides_static_heuristic():
    src = """
    int main() {
        int a = getpid();
        int b = getpid();
        return a + b;
    }
    """
    # the profile says line 3 (second getpid) is the hot one
    prog_lines = {4: 500}
    candidates = find_candidate_regions(src, profile=prog_lines,
                                        min_weight=100)
    assert candidates
    assert all(c.syscall_weight >= 100 for c in candidates)


def test_regions_with_non_compound_syscalls_are_skipped():
    src = """
    int main() {
        int a = getpid();
        int b = getpid();
        rename("/a", "/b");
        return a + b;
    }
    """
    candidates = find_candidate_regions(src)
    assert candidates
    # statement 2 is the rename: no candidate may include it
    assert all(c.end_index <= 2 for c in candidates)
