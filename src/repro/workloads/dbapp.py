"""A record-store database with sequential and random access patterns.

This is the §2.3 application study: "we modified popular user
applications that exhibit sequential or random access patterns (e.g., a
database) to use Cosy."  :class:`RecordStore` is the unmodified
application — every record access is a full lseek/read or pread syscall
round trip plus user-level processing.  :class:`CosyRecordStore` is the
"minimal code changes" port: the scan/lookup loops are marked Cosy regions
compiled into compounds, so the whole loop runs kernel-side with the data
staying in the shared buffer.

Both variants compute the same checksums, so results are comparable and
correctness is testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.cminus import UserMemAccess, parse
from repro.cminus.compile import CompiledEngine
from repro.core.cosy import CosyGCC, CosyKernelExtension, CosyLib
from repro.kernel.clock import USER
from repro.kernel.vfs.file import O_CREAT, O_RDONLY, O_WRONLY

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.process import Task

RECORD_SIZE = 128


@dataclass
class DBWorkloadConfig:
    nrecords: int = 400
    db_path: str = "/db.dat"
    seed: int = 77
    #: parameters of the in-compound LCG that drives random access
    lcg_a: int = 1103515245
    lcg_c: int = 12345


def build_database(kernel: "Kernel", config: DBWorkloadConfig) -> None:
    """Write nrecords fixed-size records (deterministic content)."""
    rng = np.random.default_rng(config.seed)
    fd = kernel.sys.open(config.db_path, O_CREAT | O_WRONLY)
    for _ in range(config.nrecords):
        kernel.sys.write(
            fd, bytes(rng.integers(0, 256, RECORD_SIZE, dtype=np.uint8)))
    kernel.sys.close(fd)


#: the record-processing routine BOTH variants execute, so their compute
#: cost is identical by construction: the unmodified app runs it at user
#: level, the Cosy port runs the very same function inside the compound.
_CHECKSUM_FUNC = """
int checksum(char *p, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int b = p[i];
        if (b < 0) b += 256;
        s += b;
    }
    return s;
}
"""


class RecordStore:
    """The unmodified application: one syscall round trip per record,
    user-level processing of each record."""

    def __init__(self, kernel: "Kernel", config: DBWorkloadConfig | None = None):
        self.kernel = kernel
        self.config = config or DBWorkloadConfig()
        task = kernel.current
        self._mem = UserMemAccess(kernel, task)
        self._buf = task.mem.malloc(RECORD_SIZE)
        cminus_op = kernel.costs.cminus_op
        charge = kernel.clock.charge
        self._interp = CompiledEngine(
            parse(_CHECKSUM_FUNC), self._mem,
            on_op_batch=lambda n: charge(n * cminus_op, USER),
            cache=kernel.code_cache)

    def _process(self, rec: bytes) -> int:
        """User-level checksum of one record (real interpreted code)."""
        self._mem.write(self._buf, rec)
        return self._interp.call("checksum", self._buf, len(rec))

    def sequential_scan(self) -> int:
        """Checksum every record in order; returns the combined checksum."""
        sys = self.kernel.sys
        fd = sys.open(self.config.db_path, O_RDONLY)
        total = 0
        try:
            for _ in range(self.config.nrecords):
                rec = sys.read(fd, RECORD_SIZE)
                if len(rec) < RECORD_SIZE:
                    break
                total = (total + self._process(rec)) & 0xFFFFFFFF
        finally:
            sys.close(fd)
        return total

    def random_lookups(self, nlookups: int) -> int:
        """Checksum records in LCG order (same sequence as the Cosy port)."""
        cfg = self.config
        sys = self.kernel.sys
        fd = sys.open(cfg.db_path, O_RDONLY)
        total = 0
        state = cfg.seed
        try:
            for _ in range(nlookups):
                state = (state * cfg.lcg_a + cfg.lcg_c) & 0x7FFFFFFF
                idx = state % cfg.nrecords
                rec = sys.pread(fd, RECORD_SIZE, idx * RECORD_SIZE)
                total = (total + self._process(rec)) & 0xFFFFFFFF
        finally:
            sys.close(fd)
        return total


#: the marked sources for the Cosy port.  The checksum helper runs as an
#: isolated user function; record I/O stays in the shared buffer.
_SEQ_SCAN_SRC = """
int checksum(char *p, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int b = p[i];
        if (b < 0) b += 256;
        s += b;
    }
    return s;
}
int main() {
    int nrecords;
    COSY_START();
    int fd = open("%(path)s", 0);
    char rec[%(recsize)d];
    int total = 0;
    int i = 0;
    while (i < nrecords) {
        int n = read(fd, rec, %(recsize)d);
        if (n < %(recsize)d) break;
        total = total + checksum(rec, n);
        i++;
    }
    close(fd);
    return total;
    COSY_END();
    return 0;
}
"""

_RANDOM_SRC = """
int checksum(char *p, int n) {
    int s = 0;
    for (int i = 0; i < n; i++) {
        int b = p[i];
        if (b < 0) b += 256;
        s += b;
    }
    return s;
}
int main() {
    int nlookups;
    int nrecords;
    int seed;
    COSY_START();
    int fd = open("%(path)s", 0);
    char rec[%(recsize)d];
    int total = 0;
    int state = seed;
    int i = 0;
    while (i < nlookups) {
        state = (state * %(lcg_a)d + %(lcg_c)d) %% 2147483648;
        int idx = state %% nrecords;
        int n = pread(fd, rec, %(recsize)d, idx * %(recsize)d);
        total = total + checksum(rec, n);
        i++;
    }
    close(fd);
    return total;
    COSY_END();
    return 0;
}
"""


class CosyRecordStore:
    """The Cosy port: marked loops compiled to compounds."""

    def __init__(self, kernel: "Kernel", task: "Task",
                 config: DBWorkloadConfig | None = None,
                 ext: CosyKernelExtension | None = None):
        self.kernel = kernel
        self.task = task
        self.config = config or DBWorkloadConfig()
        self.ext = ext or CosyKernelExtension(kernel)
        self.lib = CosyLib(kernel, self.ext)
        gcc = CosyGCC()
        params = {"path": self.config.db_path, "recsize": RECORD_SIZE,
                  "lcg_a": self.config.lcg_a, "lcg_c": self.config.lcg_c}
        self._seq = self.lib.install(task, gcc.compile(_SEQ_SCAN_SRC % params))
        self._rand = self.lib.install(task, gcc.compile(_RANDOM_SRC % params))

    def sequential_scan(self) -> int:
        result = self._seq.run({"nrecords": self.config.nrecords})
        return result.value & 0xFFFFFFFF

    def random_lookups(self, nlookups: int) -> int:
        result = self._rand.run({
            "nlookups": nlookups,
            "nrecords": self.config.nrecords,
            "seed": self.config.seed,
        })
        return result.value & 0xFFFFFFFF
