"""KgccFs: a filesystem module whose hot paths are real C-subset code,
compiled either "with vanilla GCC" or "with KGCC" (§3.4's evaluation
subject — the paper instruments Reiserfs; we instrument this stackable
module over the same lower filesystem in both configurations).

What runs as C code (per directory, in kernel memory):

* a directory-entry table of fixed 64-byte slots
  (``flag u8 | ino u8[8] | name char[55]``);
* ``find_entry`` — the linear dirent scan every lookup/create/unlink does
  (this is where a metadata-heavy workload like PostMark lives);
* ``add_entry`` / ``clear_entry`` — slot updates on create/delete;
* ``grow`` — table reallocation with an element-copy loop.

In the KGCC build the same AST is instrumented (deref/index/arith checks
against the splay-tree address map) and then optimized with the check
eliminations of §3.4; the module's heap objects (tables, the name scratch
buffer) are registered with the runtime, exactly as KGCC registers a
module's allocations.

Bulk file data (read/write) is charged analytically in the KGCC build:
a compiled copy loop executes one bounds check per word, and every
iteration's check is identical, so its cost is
``words x (check + splay-root touch)`` — charging that directly avoids
interpreting megabytes of copy loop while preserving the measured cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.cminus import parse
from repro.cminus.compile import CompiledEngine
from repro.cminus.memaccess import KernelMemAccess
from repro.kernel.clock import Mode
from repro.kernel.vfs.inode import DirEntry, Inode
from repro.kernel.vfs.super import SuperBlock
from repro.safety.kgcc.instrument import instrument
from repro.safety.kgcc.optimize import optimize
from repro.safety.kgcc.runtime import KgccRuntime

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel

SLOT_SIZE = 64
NAME_MAX = 54
INITIAL_SLOTS = 16

MODULE_SOURCE = """
int streq(char *a, char *b, int maxlen) {
    for (int i = 0; i < maxlen; i++) {
        if (a[i] != b[i]) return 0;
        if (a[i] == 0) return 1;
    }
    return 1;
}

int find_entry(char *table, int nslots, char *name) {
    for (int i = 0; i < nslots; i++) {
        char *slot = table + i * 64;
        if (slot[0]) {
            if (streq(slot + 9, name, 55)) return i;
        }
    }
    return -1;
}

int add_entry(char *table, int nslots, char *name, int ino) {
    for (int i = 0; i < nslots; i++) {
        char *slot = table + i * 64;
        if (slot[0] == 0) {
            slot[0] = 1;
            int v = ino;
            for (int j = 0; j < 8; j++) {
                slot[1 + j] = v % 256;
                v = v / 256;
            }
            int k = 0;
            while (name[k] && k < 54) {
                slot[9 + k] = name[k];
                k++;
            }
            slot[9 + k] = 0;
            return i;
        }
    }
    return -1;
}

int clear_entry(char *table, int idx) {
    char *slot = table + idx * 64;
    slot[0] = 0;
    return 0;
}

int entry_ino(char *table, int idx) {
    char *slot = table + idx * 64;
    int v = 0;
    for (int j = 7; j >= 0; j--) {
        int b = slot[1 + j];
        if (b < 0) b += 256;
        v = v * 256 + b;
    }
    return v;
}

int count_entries(char *table, int nslots) {
    int n = 0;
    for (int i = 0; i < nslots; i++) {
        char *slot = table + i * 64;
        if (slot[0]) n++;
    }
    return n;
}

int copy_table(char *dst, char *src, int nbytes) {
    for (int i = 0; i < nbytes; i++) dst[i] = src[i];
    return nbytes;
}
"""


class _ModuleEngine:
    """The compiled module: one interpreter + optional KGCC runtime."""

    def __init__(self, kernel: "Kernel", checked: bool):
        self.kernel = kernel
        self.checked = checked
        self.mem = KernelMemAccess(kernel)
        program = parse(MODULE_SOURCE)
        self.runtime: KgccRuntime | None = None
        kwargs = {}
        if checked:
            report = instrument(program, filename="kgccfs.c")
            optimize(program)
            self.runtime = KgccRuntime(kernel, mode=Mode.SYSTEM)
            self.report = report
            kwargs = dict(check_runtime=self.runtime, var_hooks=self.runtime)
        else:
            self.report = None
        cminus_op = kernel.costs.cminus_op
        charge_system = kernel.clock.charge_system
        self.interp = CompiledEngine(
            program, self.mem,
            on_op_batch=lambda n: charge_system(n * cminus_op),
            cache=kernel.code_cache,
            **kwargs)
        # shared scratch buffer for passing names into module code
        self.scratch = self.mem.malloc(NAME_MAX + 2)
        self._register(self.scratch, NAME_MAX + 2, "kgccfs:scratch")

    def _register(self, addr: int, size: int, site: str) -> None:
        if self.runtime is not None:
            self.runtime.map.register(addr, size, "heap", site)

    def _unregister(self, addr: int) -> None:
        if self.runtime is not None:
            self.runtime.map.unregister(addr)

    def alloc_table(self, nslots: int) -> int:
        addr = self.mem.malloc(nslots * SLOT_SIZE)
        self.mem.write(addr, b"\0" * (nslots * SLOT_SIZE))
        self._register(addr, nslots * SLOT_SIZE, "kgccfs:dir_table")
        return addr

    def free_table(self, addr: int) -> None:
        self._unregister(addr)
        self.mem.free(addr)

    def put_name(self, name: str) -> int:
        raw = name.encode()[:NAME_MAX] + b"\0"
        self.mem.write(self.scratch, raw)
        return self.scratch

    #: checks a compiled block-mapping routine executes per 4 KiB block
    #: (indirect-block array indexing, inode field accesses).  Bulk data
    #: copying itself happens in the *uninstrumented* core kernel's page
    #: cache, exactly as with a KGCC-compiled Reiserfs, so data volume
    #: contributes only this per-block metadata cost.
    CHECKS_PER_BLOCK = 12

    def charge_data_checks(self, nbytes: int) -> None:
        """Analytic check cost for the module's per-block mapping logic."""
        if self.runtime is None:
            return
        nblocks = max(1, (nbytes + 4095) // 4096)
        nchecks = nblocks * self.CHECKS_PER_BLOCK
        costs = self.kernel.costs
        self.kernel.clock.charge(
            nchecks * (costs.kgcc_check + 2 * costs.kgcc_splay_node),
            Mode.SYSTEM)
        self.runtime.checks_executed += nchecks


class _DirTable:
    """Per-directory slot table living in module kernel memory."""

    def __init__(self, engine: _ModuleEngine):
        self.engine = engine
        self.nslots = INITIAL_SLOTS
        self.addr = engine.alloc_table(self.nslots)

    def find(self, name: str) -> int:
        return self.engine.interp.call(
            "find_entry", self.addr, self.nslots, self.engine.put_name(name))

    def add(self, name: str, ino: int) -> None:
        idx = self.engine.interp.call(
            "add_entry", self.addr, self.nslots,
            self.engine.put_name(name), ino)
        if idx < 0:
            self._grow()
            self.add(name, ino)

    def remove(self, name: str) -> bool:
        idx = self.find(name)
        if idx < 0:
            return False
        self.engine.interp.call("clear_entry", self.addr, idx)
        return True

    def count(self) -> int:
        return self.engine.interp.call("count_entries", self.addr, self.nslots)

    def _grow(self) -> None:
        new_nslots = self.nslots * 2
        new_addr = self.engine.alloc_table(new_nslots)
        self.engine.mem.write(
            new_addr, b"\0" * (new_nslots * SLOT_SIZE))
        self.engine.interp.call("copy_table", new_addr, self.addr,
                                self.nslots * SLOT_SIZE)
        self.engine.free_table(self.addr)
        self.addr = new_addr
        self.nslots = new_nslots

    def release(self) -> None:
        self.engine.free_table(self.addr)


class KgccFsInode(Inode):
    """Wraps a lower inode; directory metadata flows through module code."""

    PRIVATE_SIZE = 64

    def __init__(self, sb: "KgccFsSuperBlock", lower: Inode):
        super().__init__(sb, lower.ino, lower.mode)
        self.lower = lower
        self.ksb: "KgccFsSuperBlock" = sb
        # per-inode private data, registered in the KGCC address map like
        # every other module allocation (these are what populate the splay
        # tree under real workloads)
        self.private = sb.engine.mem.malloc(self.PRIVATE_SIZE)
        sb.engine._register(self.private, self.PRIVATE_SIZE,
                            "kgccfs:inode_private")
        self.table = _DirTable(sb.engine) if lower.is_dir else None
        if self.table is not None:
            # adopt any entries that already exist on the lower FS
            for entry in lower.readdir():
                self.table.add(entry.name, entry.ino)

    # ------------------------------------------------- namespace operations

    def lookup(self, name: str) -> "KgccFsInode | None":
        if self.table is not None and self.table.find(name) < 0:
            return None
        return self.ksb.wrap_inode(self.lower.lookup(name))

    def create(self, name: str, mode: int) -> "KgccFsInode":
        inode = self.lower.create(name, mode)
        self.table.add(name, inode.ino)
        return self.ksb.wrap_inode(inode)

    def mkdir(self, name: str) -> "KgccFsInode":
        inode = self.lower.mkdir(name)
        self.table.add(name, inode.ino)
        return self.ksb.wrap_inode(inode)

    def unlink(self, name: str) -> None:
        lower_child = self.lower.lookup(name)
        self.lower.unlink(name)
        self.table.remove(name)
        if lower_child is not None:
            self.ksb.unwrap_inode(lower_child)

    def rmdir(self, name: str) -> None:
        lower_child = self.lower.lookup(name)
        self.lower.rmdir(name)
        self.table.remove(name)
        if lower_child is not None:
            self.ksb.unwrap_inode(lower_child)

    def rename(self, old_name: str, new_dir: Inode, new_name: str) -> None:
        if not isinstance(new_dir, KgccFsInode):
            raise TypeError("rename target must be a KgccFs directory")
        child_ino_idx = self.table.find(old_name)
        self.lower.rename(old_name, new_dir.lower, new_name)
        self.table.remove(old_name)
        new_dir.table.remove(new_name)
        if child_ino_idx >= 0:
            lower_child = new_dir.lower.lookup(new_name)
            new_dir.table.add(new_name,
                              lower_child.ino if lower_child else 0)

    def readdir(self) -> list[DirEntry]:
        # the module walks its table (charged), then serves entries
        if self.table is not None:
            self.table.count()
        return self.lower.readdir()

    # -------------------------------------------------------- data operations

    def read(self, offset: int, size: int) -> bytes:
        data = self.lower.read(offset, size)
        self.ksb.engine.charge_data_checks(len(data))
        return data

    def write(self, offset: int, data: bytes) -> int:
        self.ksb.engine.charge_data_checks(len(data))
        n = self.lower.write(offset, data)
        self.size = self.lower.size
        return n

    def truncate(self, size: int) -> None:
        self.lower.truncate(size)
        self.size = self.lower.size

    def getattr(self):
        return self.lower.getattr()


class KgccFsSuperBlock(SuperBlock):
    """A KgccFs instance stacked over ``lower_sb``.

    ``checked=False`` is the "vanilla GCC" build; ``checked=True`` the
    KGCC build with all runtime checks live.
    """

    def __init__(self, kernel: "Kernel", lower_sb: SuperBlock, *,
                 checked: bool, name: str = "kgccfs"):
        super().__init__(kernel, name)
        self.engine = _ModuleEngine(kernel, checked)
        self.lower_sb = lower_sb
        self._wrappers: dict[int, KgccFsInode] = {}
        if lower_sb.root_inode is None:
            raise ValueError("lower filesystem has no root")
        self.root_inode = self.wrap_inode(lower_sb.root_inode)

    def wrap_inode(self, lower: Inode | None) -> KgccFsInode | None:
        if lower is None:
            return None
        wrapper = self._wrappers.get(lower.ino)
        if wrapper is None:
            wrapper = KgccFsInode(self, lower)
            self._wrappers[lower.ino] = wrapper
            self.register_inode(wrapper)
        return wrapper

    def unwrap_inode(self, lower: Inode) -> None:
        wrapper = self._wrappers.pop(lower.ino, None)
        if wrapper is not None:
            if wrapper.table is not None:
                wrapper.table.release()
            if wrapper.private is not None:
                self.engine._unregister(wrapper.private)
                self.engine.mem.free(wrapper.private)
                wrapper.private = None
            super().drop_inode(wrapper)

    def sync(self) -> None:
        self.lower_sb.sync()

    def statfs(self) -> dict:
        return self.lower_sb.statfs()
