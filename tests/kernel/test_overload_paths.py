"""Overload edges the scenario suite stresses, pinned as unit regressions.

Each test isolates one hostile path the multi-tenant overload scenarios
(`repro.workloads.scenario`) drive at scale:

* listen-backlog overflow while the accept loop is stalled — every
  refusal must be accounted (overflow -> RST -> ECONNREFUSED) and the
  backlog itself must still drain;
* ``accept`` hitting the caller's fd limit (EMFILE) — the half-accepted
  child must be torn down, not stranded in sockfs;
* descriptor reuse against an epoll interest set (close *without*
  ``EPOLL_CTL_DEL``) — the dead registration must neither report the new
  socket's readiness nor block re-registration;
* buffer-cache eviction write-back failing under failpoint pressure —
  retries must eventually land every byte, with nothing dropped.
"""

import pytest

from repro.errors import (EAGAIN, EBADF, ECONNREFUSED, ECONNRESET, EINVAL,
                          EIO, EMFILE, ENOMEM, Errno)
from repro.kernel import Kernel
from repro.kernel.fs import Ext2SuperBlock, RamfsSuperBlock, WrapfsSuperBlock
from repro.kernel.net import EPOLL_CTL_ADD, EPOLL_CTL_MOD, EPOLLIN, SocketLayer
from repro.kernel.vfs import O_CREAT, O_RDWR


@pytest.fixture
def k():
    kern = Kernel()
    kern.mount_root(RamfsSuperBlock(kern))
    kern.spawn("srv")
    return kern


@pytest.fixture
def stack(k):
    return SocketLayer(k)


# ------------------------------------------------- backlog overflow accounting

def test_backlog_overflow_accounting_under_stalled_accept_loop(k, stack):
    """8 connects against backlog 3 with the accept loop stalled: exactly
    5 refusals, each counted once at every layer of the accounting chain."""
    backlog, attempts = 3, 8
    lfd = k.sys.socket(blocking=False)
    k.sys.bind(lfd, 80)
    k.sys.listen(lfd, backlog)

    established, refused = [], 0
    for _ in range(attempts):
        cfd = k.sys.socket(blocking=False)
        try:
            k.sys.connect(cfd, 80)
            established.append(cfd)
        except Errno as exc:
            assert exc.errno == ECONNREFUSED
            refused += 1
            k.sys.close(cfd)

    overflow = attempts - backlog
    assert len(established) == backlog and refused == overflow
    # the chain: overflow detected -> RST transmitted -> connect refused
    assert stack.backlog_overflows == overflow
    assert stack.refused == overflow
    assert stack.rst_tx >= overflow
    metrics = k.metrics.snapshot()
    assert metrics["net.backlog_overflow"] == overflow
    assert metrics["net.conn_refused"] == overflow

    # the accept loop un-stalls: the backlog drains exactly, then EAGAIN
    conns = [k.sys.accept(lfd) for _ in range(backlog)]
    with pytest.raises(Errno) as exc:
        k.sys.accept(lfd)
    assert exc.value.errno == EAGAIN

    for fd in conns + established + [lfd]:
        k.sys.close(fd)
    assert len(stack.sockfs.inodes) == 0


def test_closing_a_full_backlog_strands_no_inodes(k, stack):
    """A listener closed with connections still queued must reset AND
    close every queued child (the sockfs leak the churn mix exposed)."""
    lfd = k.sys.socket(blocking=False)
    k.sys.bind(lfd, 80)
    k.sys.listen(lfd, 4)
    clients = []
    for _ in range(4):
        cfd = k.sys.socket(blocking=False)
        k.sys.connect(cfd, 80)
        clients.append(cfd)
    k.sys.close(lfd)  # 4 children queued, never accepted
    for cfd in clients:
        with pytest.raises(Errno) as exc:
            k.sys.read(cfd, 16)
        assert exc.value.errno == ECONNRESET
        k.sys.close(cfd)
    assert len(stack.sockfs.inodes) == 0


# ----------------------------------------------------- accept under fd limits

def test_accept_emfile_tears_the_child_down(k, stack):
    lfd = k.sys.socket(blocking=False)
    k.sys.bind(lfd, 80)
    k.sys.listen(lfd, 8)
    cfd = k.sys.socket(blocking=False)
    k.sys.connect(cfd, 80)

    k.current.rlimit_nofile = len(k.current.fds)  # no room for the conn fd
    with pytest.raises(Errno) as exc:
        k.sys.accept(lfd)
    assert exc.value.errno == EMFILE
    assert stack.accept_emfile == 1
    assert k.metrics.snapshot()["net.accept_emfile"] == 1
    # the child endpoint was reset and closed, and the peer can tell
    with pytest.raises(Errno) as exc:
        k.sys.read(cfd, 16)
    assert exc.value.errno == ECONNRESET

    # with the limit restored the listener still works
    k.current.rlimit_nofile = 64
    cfd2 = k.sys.socket(blocking=False)
    k.sys.connect(cfd2, 80)
    conn = k.sys.accept(lfd)
    k.sys.write(cfd2, b"hi")
    assert k.sys.read(conn, 16) == b"hi"

    for fd in (cfd, cfd2, conn, lfd):
        k.sys.close(fd)
    assert len(stack.sockfs.inodes) == 0


def test_socket_emfile_registers_no_inode(k, stack):
    k.current.rlimit_nofile = len(k.current.fds)
    with pytest.raises(Errno) as exc:
        k.sys.socket()
    assert exc.value.errno == EMFILE
    assert len(stack.sockfs.inodes) == 0


# -------------------------------------------------- epoll vs descriptor reuse

def _connected_pair(k, port=80):
    lfd = k.sys.socket(blocking=False)
    k.sys.bind(lfd, port)
    k.sys.listen(lfd, 8)
    cfd = k.sys.socket(blocking=False)
    k.sys.connect(cfd, port)
    conn = k.sys.accept(lfd)
    return lfd, cfd, conn


def test_epoll_ignores_reused_descriptor_after_close_without_del(k, stack):
    lfd, cfd, conn = _connected_pair(k)
    epfd = k.sys.epoll_create()
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, conn, EPOLLIN)
    assert k.sys.epoll_wait(epfd, timeout=0) == []  # idle: off the ready list
    # allocate the second client while `conn` still holds its descriptor,
    # so the accepted child (not the client) lands on the freed number
    cfd2 = k.sys.socket(blocking=False)
    k.sys.connect(cfd2, 80)
    k.sys.close(conn)  # no EPOLL_CTL_DEL: the churn servers do this

    # the descriptor number is reused for a brand-new connection...
    conn2 = k.sys.accept(lfd)
    assert conn2 == conn, "fd not reused; test premise broken"
    k.sys.write(cfd2, b"x")  # ...which IS readable

    epinode = k.current.fds[epfd].inode
    # the stale registration must not leak the stranger's readiness
    assert k.sys.epoll_wait(epfd, timeout=0) == []
    assert epinode.stale_skipped >= 1
    # nor can it be MODified — it names a dead socket
    with pytest.raises(Errno) as exc:
        k.sys.epoll_ctl(epfd, EPOLL_CTL_MOD, conn2, EPOLLIN)
    assert exc.value.errno == EBADF

    # re-ADD replaces the dead entry and the new socket reports normally
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, conn2, EPOLLIN)
    assert epinode.stale_replaced == 1
    assert k.sys.epoll_wait(epfd, timeout=0) == [(conn2, EPOLLIN)]
    # a duplicate ADD of the *live* registration is still an error
    with pytest.raises(Errno) as exc:
        k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, conn2, EPOLLIN)
    assert exc.value.errno == EINVAL

    for fd in (conn2, cfd, cfd2, lfd, epfd):
        k.sys.close(fd)
    assert len(stack.sockfs.inodes) == 0  # epoll inode unregistered too


def test_epoll_del_then_readd_reports_once(k, stack):
    """A DEL tombstone revived by re-ADD must not make collect() report
    the descriptor twice per scan."""
    from repro.kernel.net import EPOLL_CTL_DEL
    lfd, cfd, conn = _connected_pair(k)
    epfd = k.sys.epoll_create()
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, conn, EPOLLIN)
    k.sys.epoll_ctl(epfd, EPOLL_CTL_DEL, conn, 0)
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, conn, EPOLLIN)
    k.sys.write(cfd, b"x")
    assert k.sys.epoll_wait(epfd, timeout=0) == [(conn, EPOLLIN)]
    for fd in (conn, cfd, lfd, epfd):
        k.sys.close(fd)


# ------------------------------------------- buffer-cache eviction under load

def test_eviction_writeback_retries_until_every_byte_lands():
    """Probabilistic disk.write failpoint pressure against a 2-block
    cache: every eviction-forced write-back that fails is retried by the
    caller, and the file is byte-exact once the storm passes."""
    k = Kernel()
    sb = Ext2SuperBlock(k, cache_blocks=2)
    k.mount_root(sb)
    k.spawn("init")
    fd = k.sys.open("/f", O_CREAT | O_RDWR)
    blocks = [bytes([65 + i]) * 4096 for i in range(6)]
    failures = 0
    with k.faults.inject("disk.write", probability=0.5, seed=99):
        for i, data in enumerate(blocks):
            for _ in range(64):  # the schedule is seeded: this terminates
                try:
                    k.sys.lseek(fd, i * 4096)
                    k.sys.write(fd, data)
                    break
                except Errno as exc:
                    assert exc.errno == EIO
                    failures += 1
            else:  # pragma: no cover - schedule pathology
                pytest.fail("write never succeeded under pressure")
    assert failures > 0, "failpoint never fired; pressure test is vacuous"
    while True:  # drain the dirty set (faults are cleared now)
        try:
            k.sys.sync()
            break
        except Errno:  # pragma: no cover - no faults remain
            pass
    assert not sb.bcache._dirty
    k.sys.close(fd)
    assert k.sys.open_read_close("/f") == b"".join(blocks)


def test_open_retry_under_kmalloc_pressure_with_tiny_cache():
    """kmalloc failpoint pressure on the wrapfs name-buffer path while the
    lower ext2 runs a 2-block cache: ENOMEMs are retryable, allocator
    bookkeeping stays balanced, and eviction still lands the data."""
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    k.spawn("init")
    k.sys.mkdir("/mnt")
    lower = Ext2SuperBlock(k, cache_blocks=2)
    k.vfs.mount("/mnt", WrapfsSuperBlock(k, lower, k.kma))
    live_before = len(k.kmalloc.live)
    enomems = 0
    with k.faults.inject("kmalloc", probability=0.4, seed=7,
                         site="wrapfs:name"):
        for i in range(8):
            for _ in range(64):
                try:
                    fd = k.sys.open(f"/mnt/f{i}", O_CREAT | O_RDWR)
                    break
                except Errno as exc:
                    assert exc.errno == ENOMEM
                    enomems += 1
            else:  # pragma: no cover - schedule pathology
                pytest.fail("open never succeeded under pressure")
            k.sys.write(fd, bytes([97 + i]) * 4096)
            k.sys.close(fd)
    assert enomems > 0, "kmalloc failpoint never fired"
    k.sys.sync()
    for i in range(8):
        assert k.sys.open_read_close(f"/mnt/f{i}") == bytes([97 + i]) * 4096
    # every failed open freed what it had allocated (files keep only the
    # long-lived per-inode private area, one per created file)
    assert len(k.kmalloc.live) == live_before + 8
