"""Differential suite across syscall entry paths.

read, pread, write, pwrite, lseek, stat, fstat and getdents run through a
classic trap and a one-op Cosy compound; pread and pwrite also run as a
uring READ/WRITE SQE, submitted both by ``uring_enter`` and through the
sqpoll poller.  Every path runs the same kernel body, so each must return
the same bytes or result, leave the same file positions and file contents,
and fail a bad argument with the same errno.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cosy import (Arg, CompoundBuilder, CosyKernelExtension,
                             SharedBuffer)
from repro.errors import EBADF, EINVAL, EISDIR, ENOENT, ENOTDIR, Errno
from repro.kernel import Kernel
from repro.kernel.fs import Disk, Ext2SuperBlock, RamfsSuperBlock
from repro.kernel.uring import OP_READ, OP_WRITE, Sqe, UringLayer, UringQueue
from repro.kernel.vfs import O_APPEND, O_RDONLY, O_RDWR, O_WRONLY
from repro.kernel.vfs.stat import STAT_SIZE, Stat

#: bytes in each shared-buffer or ring window
BUF = 1024
#: compound windows: inputs (paths, data to write) and outputs
IN, OUT = 0, BUF
#: entries of the directory /d
NAMES = ("a", "bb", "ccc", "dddd")
BAD_FD = 99

#: entry paths per operation
PATHS = {
    "read": ("trap", "compound"),
    "write": ("trap", "compound"),
    "pread": ("trap", "compound", "uring", "sqpoll"),
    "pwrite": ("trap", "compound", "uring", "sqpoll"),
    "lseek": ("trap", "compound"),
    "stat": ("trap", "compound"),
    "fstat": ("trap", "compound"),
    "getdents": ("trap", "compound"),
}


class World:
    """A fresh kernel holding ``/f`` (``content``) and the directory
    ``/d``: ``/f`` is open with ``flags`` at ``pos``, ``/d`` read-only."""

    def __init__(self, fs: str, content: bytes, flags: int, pos: int):
        k = Kernel()
        if fs == "ramfs":
            k.mount_root(RamfsSuperBlock(k))
        else:
            k.mount_root(Ext2SuperBlock(k, Disk(k, nblocks=256),
                                        cache_blocks=16))
        self.k = k
        self.task = k.spawn("paths")
        k.sys.open_write_close("/f", content)
        k.sys.mkdir("/d")
        for name in NAMES:
            k.sys.close(k.sys.creat(f"/d/{name}"))
        self.fds = {"f": k.sys.open("/f", flags), "d": k.sys.open("/d", 0)}
        k.sys.lseek(self.fds["f"], pos)

    def fd(self, target):
        """The fd of "f" or "d"; any other target (a raw fd, a path) as is."""
        return self.fds.get(target, target)

    def compound(self, name: str, *args, put: bytes = b""):
        """Run ``name(*args)`` as a one-op compound whose input window
        holds ``put``; returns its result and the shared buffer."""
        shared = SharedBuffer(self.k, self.task, 2 * BUF)
        if put:
            shared.write_user(IN, put)
        b = CompoundBuilder()
        out = b.slot("out")
        b.syscall(name, *(a if isinstance(a, Arg) else Arg.lit(a)
                          for a in args), out=out)
        ext = CosyKernelExtension(self.k)
        try:
            return ext.execute(self.task, b.encode(), shared)[out], shared
        finally:
            ext.unload()

    def sqe(self, sqpoll: bool, opcode: int, fd: int, count: int,
            offset: int, data: bytes = b"") -> bytes | int:
        """Run one READ/WRITE SQE; raises its errno like the other paths."""
        UringLayer(self.k)
        q = UringQueue(self.k, self.k.sys.uring_setup(4, sqpoll=sqpoll))
        addr = q.alloc(BUF)
        if data:
            q.shared.write_user(addr, data)
        q.prep(Sqe(opcode, fd=fd, addr=addr, off=offset, len=count))
        q.submit()
        (cqe,) = q.harvest()
        if cqe.res < 0:
            raise Errno(-cqe.res, "", "uring")
        return q.read_data(addr, cqe.res) if opcode == OP_READ else cqe.res


def _stat_fields(st: Stat) -> tuple:
    """What every path must agree on; the times move with each path's
    own cost."""
    return st.ino, st.mode, st.nlink, st.size, st.blocks


def _dirents(raw: bytes) -> list[tuple[int, int, str]]:
    """Decode packed linux_dirent64 records."""
    out = []
    while raw:
        ino, _, reclen, dtype = struct.unpack_from("<QqHB", raw)
        assert 20 <= reclen <= len(raw) and raw[reclen - 1] == 0, raw
        out.append((ino, dtype, raw[19:reclen - 1].decode()))
        raw = raw[reclen:]
    return out


def _run(w: World, path: str, op: str, target, *args):
    """``op`` on ``path``; ``target`` is a path for stat, else "f", "d"
    or a raw fd.  A write's data may be a bare (bad) count."""
    sys = w.k.sys
    fd = w.fd(target)
    if op in ("read", "pread"):
        if path in ("uring", "sqpoll"):
            return w.sqe(path == "sqpoll", OP_READ, fd, *args)
        if path == "trap":
            return getattr(sys, op)(fd, *args)
        count, *offset = args
        n, shared = w.compound(op, fd, Arg.shared(OUT, BUF), count, *offset)
        return shared.read_user(OUT, n)
    if op in ("write", "pwrite"):
        data, *offset = args
        count = data if isinstance(data, int) else len(data)
        put = b"" if isinstance(data, int) else data
        if path in ("uring", "sqpoll"):
            return w.sqe(path == "sqpoll", OP_WRITE, fd, count, *offset,
                         data=put)
        if path == "trap":
            return getattr(sys, op)(fd, data, *offset)
        return w.compound(op, fd, Arg.shared(IN, BUF), count, *offset,
                          put=put)[0]
    if op == "lseek":
        if path == "trap":
            return sys.lseek(fd, *args)
        return w.compound("lseek", fd, *args)[0]
    if op in ("stat", "fstat"):
        if path == "trap":
            return _stat_fields(getattr(sys, op)(fd))
        if op == "stat":
            rc, shared = w.compound("stat", Arg.shared(IN, BUF),
                                    Arg.shared(OUT, STAT_SIZE),
                                    put=target.encode() + b"\0")
        else:
            rc, shared = w.compound("fstat", fd, Arg.shared(OUT, STAT_SIZE))
        assert rc == 0
        return _stat_fields(Stat.unpack(shared.read_user(OUT, STAT_SIZE)))
    (bufsize,) = args
    if path == "trap":
        return [(e.ino, e.dtype, e.name) for e in sys.getdents(fd, bufsize)]
    used, shared = w.compound("getdents", fd, Arg.shared(OUT, bufsize))
    return _dirents(shared.read_user(OUT, used))


def _observe(fs: str, content: bytes, flags: int, pos: int, path: str,
             op: str, target, *args) -> tuple:
    """Result (or errno), both file positions and /f's bytes afterwards."""
    w = World(fs, content, flags, pos)
    try:
        result = ("ok", _run(w, path, op, target, *args))
    except Errno as e:
        result = ("errno", e.errno)
    positions = tuple(w.task.get_file(fd).pos for fd in w.fds.values())
    return result, positions, w.k.sys.open_read_close("/f")


def _agree(fs: str, content: bytes, flags: int, pos: int, op: str,
           target, *args, paths=None) -> tuple:
    """Every path's observation of ``op``; asserts they are one."""
    seen = {path: _observe(fs, content, flags, pos, path, op, target, *args)
            for path in paths or PATHS[op]}
    first = next(iter(seen.values()))
    assert all(s == first for s in seen.values()), seen
    return first


FS = st.sampled_from(("ramfs", "ext2"))
CONTENT = st.binary(max_size=600)
POS = st.integers(0, 700)


@settings(max_examples=30, deadline=None)
@given(fs=FS, content=CONTENT, pos=POS, count=st.integers(0, BUF),
       offset=POS)
def test_reads_agree(fs, content, pos, count, offset):
    result, _, _ = _agree(fs, content, O_RDWR, pos, "read", "f", count)
    assert result == ("ok", content[pos:pos + count])
    result, _, _ = _agree(fs, content, O_RDWR, pos, "pread", "f", count,
                          offset)
    assert result == ("ok", content[offset:offset + count])


@settings(max_examples=30, deadline=None)
@given(fs=FS, content=CONTENT, pos=POS, data=st.binary(max_size=BUF),
       offset=POS, append=st.booleans())
def test_writes_agree(fs, content, pos, data, offset, append):
    flags = O_RDWR | (O_APPEND if append else 0)
    result, _, _ = _agree(fs, content, flags, pos, "write", "f", data)
    assert result == ("ok", len(data))
    result, _, _ = _agree(fs, content, flags, pos, "pwrite", "f", data,
                          offset)
    assert result == ("ok", len(data))


@settings(max_examples=30, deadline=None)
@given(fs=FS, content=CONTENT, pos=POS, offset=st.integers(-800, 800),
       whence=st.integers(0, 3))
def test_lseek_agrees(fs, content, pos, offset, whence):
    _agree(fs, content, O_RDWR, pos, "lseek", "f", offset, whence)


@pytest.mark.parametrize("fs", ["ramfs", "ext2"])
@pytest.mark.parametrize("op,target,expected", [
    ("stat", "/f", None), ("stat", "/d", None),
    ("stat", "/missing", ENOENT), ("stat", "/f/x", ENOTDIR),
    ("fstat", "f", None), ("fstat", "d", None), ("fstat", BAD_FD, EBADF),
])
def test_stats_agree(fs, op, target, expected):
    result, _, _ = _agree(fs, b"0123456789", O_RDWR, 0, op, target)
    assert result[0] == ("errno" if expected else "ok")
    if expected:
        assert result[1] == expected


@pytest.mark.parametrize("fs", ["ramfs", "ext2"])
@pytest.mark.parametrize("bufsize", [1, 22, 23, 24, 46, 47, 71, BUF])
def test_getdents_agrees(fs, bufsize):
    """A buffer returns the entries that fit whole, none if the next
    one does not."""
    result, positions, _ = _agree(fs, b"", O_RDWR, 0, "getdents", "d",
                                  bufsize)
    assert result[0] == "ok"
    assert positions[1] == len(result[1])


#: (op, flags of /f, target, args, errno) — each one bad argument
BAD_ARGS = [
    ("read", O_RDWR, "f", (-1,), EINVAL),
    ("pread", O_RDWR, "f", (-1, 0), EINVAL),
    ("pread", O_RDWR, "f", (4, -3), EINVAL),
    ("write", O_RDWR, "f", (-1,), EINVAL),
    ("pwrite", O_RDWR, "f", (-1, 0), EINVAL),
    ("pwrite", O_RDWR, "f", (b"xy", -3), EINVAL),
    ("read", O_RDWR, BAD_FD, (4,), EBADF),
    ("pread", O_RDWR, BAD_FD, (4, 0), EBADF),
    ("write", O_RDWR, BAD_FD, (b"xy",), EBADF),
    ("pwrite", O_RDWR, BAD_FD, (b"xy", 0), EBADF),
    ("lseek", O_RDWR, BAD_FD, (0, 0), EBADF),
    ("getdents", O_RDWR, BAD_FD, (BUF,), EBADF),
    ("read", O_WRONLY, "f", (4,), EBADF),
    ("pread", O_WRONLY, "f", (4, 0), EBADF),
    ("write", O_RDONLY, "f", (b"xy",), EBADF),
    ("pwrite", O_RDONLY, "f", (b"xy", 0), EBADF),
    ("getdents", O_RDWR, "f", (BUF,), ENOTDIR),
    ("getdents", O_RDWR, "d", (0,), EINVAL),
    ("read", O_RDWR, "d", (4,), EISDIR),
]


@pytest.mark.parametrize("fs", ["ramfs", "ext2"])
@pytest.mark.parametrize("op,flags,target,args,errno", BAD_ARGS)
def test_bad_arguments_fail_alike(fs, op, flags, target, args, errno):
    paths = PATHS[op]
    if isinstance(args[0], int) and op in ("write", "pwrite"):
        paths = paths[1:]          # a trap's count is its data's length
    result, positions, contents = _agree(fs, b"0123456789", flags, 5, op,
                                         target, *args, paths=paths)
    assert result == ("errno", errno)
    assert positions[0] == 5 and contents == b"0123456789"
