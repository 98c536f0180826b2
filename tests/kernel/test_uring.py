"""Async syscall rings (docs/URING.md): ring mechanics, backpressure,
armed ops, linked chains, fixed files, the sqpoll lifecycle, partial-batch
fault semantics, epoll-on-a-ring integration, and the bit-identity
contract for kernels that install the layer but never use it."""

import pytest

from repro.errors import (EAGAIN, EBADF, ECANCELED, EDEADLK, EINVAL,
                          EOPNOTSUPP, Errno)
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.net import (EPOLL_CTL_ADD, EPOLLIN, SocketLayer)
from repro.kernel.uring import (CQE_F_MORE, F_FIXED_FILE, F_LINK,
                                F_MULTISHOT, OP_ACCEPT, OP_CLOSE, OP_NOP,
                                OP_OPENAT, OP_RECV, OP_SEND, OP_SENDFILE,
                                URING_INO_BASE, Sqe, UringLayer, UringQueue)
from repro.kernel.vfs import O_CREAT, O_RDONLY, O_WRONLY
from repro.workloads import HttpBenchConfig, run_http_bench

#: mirrors tests/kernel/test_smp.py::HTTP_ORACLE — the pre-SMP (and now
#: pre-uring) epoll serving totals that must not move when a UringLayer
#: is merely installed.
HTTP_ORACLE = {
    "user": 214_820,
    "system": 2_145_685,
    "iowait": 0,
    "elapsed": 1_179_221,
    "digest": "1ecb4521f1a712b9752bf866b214b90c76133a29a1a7724592a51b16ee92840b",
}


@pytest.fixture
def k():
    kern = Kernel()
    kern.mount_root(RamfsSuperBlock(kern))
    kern.spawn("srv")
    return kern


@pytest.fixture
def stack(k):
    return SocketLayer(k)


@pytest.fixture
def layer(k):
    return UringLayer(k)


def _queue(k, sq=8, **kwargs):
    fd = k.sys.uring_setup(sq, **kwargs)
    return fd, UringQueue(k, fd)


def _listener(k, port=80, backlog=8):
    fd = k.sys.socket(blocking=False)
    k.sys.bind(fd, port)
    k.sys.listen(fd, backlog)
    return fd


def _connected_pair(k, port=80):
    lfd = _listener(k, port)
    cfd = k.sys.socket(blocking=False)
    k.sys.connect(cfd, port)
    conn = k.sys.accept(lfd)
    return lfd, cfd, conn


def _mkfile(k, path, payload):
    fd = k.sys.open(path, O_CREAT | O_WRONLY)
    k.sys.write(fd, payload)
    k.sys.close(fd)


# ------------------------------------------------------------------ setup


def test_setup_returns_ring_fd_in_uringfs(k, layer):
    fd, q = _queue(k, sq=8)
    assert q.ring.sq_entries == 8 and q.ring.cq_entries == 16
    assert k.current.get_file(fd).inode.ino >= URING_INO_BASE
    assert k.metrics.counter("uring.rings").value == 1


def test_setup_validates_arguments(k, layer):
    with pytest.raises(Errno) as ei:
        k.sys.uring_setup(0)
    assert ei.value.errno == EINVAL
    with pytest.raises(Errno) as ei:
        k.sys.uring_setup(8, sq_cpu=5)
    assert ei.value.errno == EINVAL


def test_enter_rejects_non_uring_fd(k, stack, layer):
    fd = k.sys.socket()
    with pytest.raises(Errno) as ei:
        k.sys.uring_enter(fd)
    assert ei.value.errno == EINVAL
    with pytest.raises(ValueError):
        UringQueue(k, fd)


def test_nop_roundtrip_charges_one_trap(k, layer):
    fd, q = _queue(k)
    with k.measure() as m:
        q.prep(Sqe(OP_NOP, user_data=42))
        assert q.submit() == 1
        cqes = q.harvest()
    assert [(c.user_data, c.res) for c in cqes] == [(42, 0)]
    assert m.syscalls == 1          # the single uring_enter


# ------------------------------------------------- wraparound/backpressure


def test_ring_indices_wrap_free_running(k, layer):
    """5 full generations through a 4-slot SQ / 8-slot CQ: free-running
    u32 indices mean slot reuse is invisible to correctness."""
    fd, q = _queue(k, sq=4)
    seen = []
    for gen in range(5):
        for i in range(4):
            assert q.prep(Sqe(OP_NOP, user_data=gen * 4 + i))
        assert q.submit() == 4
        seen += [c.user_data for c in q.harvest()]
    assert seen == list(range(20))
    assert q.sq_tail == 20 and q.ring.sq_head == 20
    assert q.cq_head == 20 and q.ring.cq_tail == 20


def test_sq_full_backpressure(k, layer):
    fd, q = _queue(k, sq=4)
    for i in range(4):
        assert q.prep(Sqe(OP_NOP, user_data=i))
    assert not q.prep(Sqe(OP_NOP, user_data=99))    # full: refused
    with pytest.raises(Errno) as ei:
        q.require_space(1)
    assert ei.value.errno == EAGAIN
    q.submit()
    assert q.sq_space() == 4                        # kernel consumed all
    assert q.prep(Sqe(OP_NOP, user_data=4))
    q.submit()
    assert [c.user_data for c in q.harvest()] == [0, 1, 2, 3, 4]


def test_cq_overflow_backlog_is_lossless(k, layer):
    """More completions than CQ slots: the surplus waits in the kernel
    backlog and drains — in order — as the user harvests."""
    fd, q = _queue(k, sq=4, cq_entries=2)
    for i in range(4):
        q.prep(Sqe(OP_NOP, user_data=i))
    q.submit()
    assert k.metrics.counter("uring.cq_overflows").value == 2
    assert q.cq_pending() == 2                      # published portion
    assert q.ring.cq_pending() == 4                 # includes the backlog
    got = [c.user_data for c in q.harvest()]
    q.enter()                                       # flush the backlog
    got += [c.user_data for c in q.harvest()]
    assert got == [0, 1, 2, 3]
    assert not q.ring.overflow


# ----------------------------------------------------------- socket ops


def test_multishot_accept_drains_and_stays_armed(k, stack, layer):
    lfd = _listener(k)
    fd, q = _queue(k)
    q.prep(Sqe(OP_ACCEPT, fd=lfd, flags=F_MULTISHOT, user_data=7))
    q.submit()
    for _ in range(3):
        c = k.sys.socket(blocking=False)
        k.sys.connect(c, 80)
    q.enter()
    cqes = q.harvest()
    assert len(cqes) == 3
    assert all(c.res >= 0 and c.flags & CQE_F_MORE for c in cqes)
    # still armed: a later connection completes without re-submitting
    c = k.sys.socket(blocking=False)
    k.sys.connect(c, 80)
    q.enter()
    assert len(q.harvest()) == 1


def test_multishot_valid_only_for_accept_recv(k, layer):
    fd, q = _queue(k)
    q.prep(Sqe(OP_NOP, flags=F_MULTISHOT, user_data=1))
    q.submit()
    assert [c.res for c in q.harvest()] == [-EINVAL]


def test_linked_chain_serves_a_request(k, stack, layer):
    """The server's whole request pipeline as one chain: RECV the path,
    OPENAT it into fixed slot 0, SENDFILE from the slot, CLOSE it."""
    payload = b"x" * 600
    _mkfile(k, "/f", payload)
    lfd, cfd, conn = _connected_pair(k)
    fd, q = _queue(k)
    buf = q.place(b"\0" * 16)
    k.sys.write(cfd, b"/f\0".ljust(16, b"\0"))
    q.prep(Sqe(OP_RECV, flags=F_LINK, fd=conn, addr=buf, len=16,
               user_data=1))
    q.prep(Sqe(OP_OPENAT, flags=F_LINK, fd=0, off=O_RDONLY, addr=buf,
               len=16, user_data=2))
    q.prep(Sqe(OP_SENDFILE, flags=F_LINK | F_FIXED_FILE, fd=conn,
               addr=0, off=0, len=1 << 20, user_data=3))
    q.prep(Sqe(OP_CLOSE, flags=F_FIXED_FILE, fd=0, user_data=4))
    q.submit()
    cqes = q.harvest()
    assert [c.user_data for c in cqes] == [1, 2, 3, 4]
    assert cqes[0].res == 16
    assert cqes[1].res >= 0
    assert cqes[2].res == len(payload)
    assert cqes[3].res == 0
    assert q.ring.fixed[0] == -1                    # slot released
    assert k.sys.read(cfd, 4096) == payload


def test_recv_eof_cancels_chain_followers(k, stack, layer):
    lfd, cfd, conn = _connected_pair(k)
    fd, q = _queue(k)
    buf = q.alloc(16)
    q.prep(Sqe(OP_RECV, flags=F_LINK, fd=conn, addr=buf, len=16,
               user_data=1))
    q.prep(Sqe(OP_NOP, user_data=2))
    q.submit()
    assert q.harvest() == []                        # armed, peer silent
    k.sys.close(cfd)
    q.enter()
    cqes = q.harvest()
    assert [(c.user_data, c.res) for c in cqes] == [(1, 0), (2, -ECANCELED)]


def test_send_writes_from_data_area(k, stack, layer):
    lfd, cfd, conn = _connected_pair(k)
    fd, q = _queue(k)
    off = q.place(b"pong")
    q.prep(Sqe(OP_SEND, fd=conn, addr=off, len=4, user_data=1))
    q.submit()
    assert [c.res for c in q.harvest()] == [4]
    assert k.sys.read(cfd, 16) == b"pong"


def test_accept_without_network_stack(k, layer):
    fd, q = _queue(k)
    q.prep(Sqe(OP_ACCEPT, fd=3, user_data=1))
    q.submit()
    assert [c.res for c in q.harvest()] == [-EOPNOTSUPP]


def test_enter_min_complete_deadlock_detected(k, stack, layer):
    fd, q = _queue(k)
    with pytest.raises(Errno) as ei:
        q.enter(min_complete=1)                     # nothing in flight
    assert ei.value.errno == EDEADLK


# ---------------------------------------------------------- fixed files


def test_openat_fills_and_replaces_fixed_slot(k, layer):
    _mkfile(k, "/a", b"A")
    _mkfile(k, "/b", b"B")
    fd, q = _queue(k, files=2)
    pa = q.place(b"/a\0")
    pb = q.place(b"/b\0")
    q.prep(Sqe(OP_OPENAT, fd=1, off=O_RDONLY, addr=pa, len=3, user_data=1))
    q.submit()
    first = q.harvest()[0].res
    assert q.ring.fixed[1] == first
    q.prep(Sqe(OP_OPENAT, fd=1, off=O_RDONLY, addr=pb, len=3, user_data=2))
    q.submit()
    second = q.harvest()[0].res
    # the replaced fd was closed for the owner
    assert q.ring.fixed[1] == second
    assert k.current.get_file(first) is None


def test_openat_slot_out_of_range_closes_fd(k, layer):
    _mkfile(k, "/a", b"A")
    fd, q = _queue(k, files=2)
    pa = q.place(b"/a\0")
    before = {i for i in range(64) if k.current.get_file(i) is not None}
    q.prep(Sqe(OP_OPENAT, fd=9, off=O_RDONLY, addr=pa, len=3, user_data=1))
    q.submit()
    assert [c.res for c in q.harvest()] == [-EBADF]
    after = {i for i in range(64) if k.current.get_file(i) is not None}
    assert after == before                          # no leaked fd


def test_close_empty_fixed_slot_is_ebadf(k, layer):
    fd, q = _queue(k)
    q.prep(Sqe(OP_CLOSE, flags=F_FIXED_FILE, fd=3, user_data=1))
    q.submit()
    assert [c.res for c in q.harvest()] == [-EBADF]


def test_ring_close_releases_fixed_files(k, layer):
    _mkfile(k, "/a", b"A")
    fd, q = _queue(k)
    pa = q.place(b"/a\0")
    q.prep(Sqe(OP_OPENAT, fd=0, off=O_RDONLY, addr=pa, len=3, user_data=1))
    q.submit()
    real = q.harvest()[0].res
    assert k.current.get_file(real) is not None
    k.sys.close(fd)
    assert q.ring.closed
    assert k.current.get_file(real) is None         # died with the ring
    assert q.ring not in k.uring_layer.rings


# ------------------------------------------------- fault injection (§3.3)


def test_dispatch_fault_partial_batch_semantics(k, layer):
    """An injected dispatch fault errors its SQE, cancels the rest of
    the chain, and leaves the *rest of the batch* queued — mirroring
    CompoundFault's partial-batch contract."""
    fd, q = _queue(k)
    q.prep(Sqe(OP_NOP, flags=F_LINK, user_data=1))
    q.prep(Sqe(OP_NOP, user_data=2))
    q.prep(Sqe(OP_NOP, user_data=3))                # a second chain
    from repro.errors import EIO
    with k.faults.inject("uring.dispatch", errno=EIO, every=1, times=1):
        assert q.submit() == 2                      # batch stopped early
    cqes = q.harvest()
    assert [(c.user_data, c.res) for c in cqes] == \
        [(1, -EIO), (2, -ECANCELED)]
    assert k.metrics.counter("uring.dispatch_errors").value == 1
    assert q.enter() == 1                           # the survivor runs now
    assert [(c.user_data, c.res) for c in q.harvest()] == [(3, 0)]


def test_fault_through_armed_op_keeps_cqe_order(k, stack, layer):
    """A dispatch fault on a link *behind* an armed RECV must wait for
    the RECV: CQEs land in submission order even though the fault was
    detected at fetch time."""
    lfd, cfd, conn = _connected_pair(k)
    fd, q = _queue(k)
    buf = q.alloc(16)
    from repro.errors import EIO
    q.prep(Sqe(OP_RECV, flags=F_LINK, fd=conn, addr=buf, len=16,
               user_data=1))
    q.prep(Sqe(OP_NOP, flags=F_LINK, user_data=2))
    q.prep(Sqe(OP_NOP, user_data=3))
    with k.faults.inject("uring.dispatch", errno=EIO, every=1, times=1,
                         site="nop"):
        q.submit()
    assert q.harvest() == []                        # recv still armed
    k.sys.write(cfd, b"late data")
    q.enter()
    cqes = q.harvest()
    assert [c.user_data for c in cqes] == [1, 2, 3]
    assert cqes[0].res == 9
    assert cqes[1].res == -EIO
    assert cqes[2].res == -ECANCELED


# -------------------------------------------------------------- sqpoll


def test_sqpoll_submit_and_harvest_without_traps(k, layer):
    fd, q = _queue(k, sqpoll=True, sq_idle=64)
    with k.measure() as m:
        q.prep(Sqe(OP_NOP, user_data=1))
        q.submit()
        cqes = q.harvest()
    assert [c.user_data for c in cqes] == [1]
    assert m.syscalls == 0                          # zero crossings
    assert k.metrics.counter("uring.sqpoll_polls").value >= 1


def test_sqpoll_idle_parks_and_wakeup_trap_unparks(k, layer):
    fd, q = _queue(k, sqpoll=True, sq_idle=3)
    ring = q.ring
    for _ in range(3):                              # idle polls
        q.harvest()
    assert ring.parked
    assert k.metrics.counter("uring.sqpoll_parks").value == 1
    # parked poller does not consume published SQEs...
    q.prep(Sqe(OP_NOP, user_data=1))
    with k.measure() as m:
        q.submit()                                  # sees NEED_WAKEUP
        cqes = q.harvest()
    # ...so the library paid exactly one wakeup trap
    assert m.syscalls == 1
    assert [c.user_data for c in cqes] == [1]
    assert not ring.parked
    assert k.metrics.counter("uring.wakeups").value == 1


def test_sqpoll_charges_the_designated_cpu():
    k = Kernel(cpus=2)
    k.mount_root(RamfsSuperBlock(k))
    k.spawn("srv")
    UringLayer(k)
    fd = k.sys.uring_setup(8, sqpoll=True, sq_cpu=1, sq_idle=64)
    q = UringQueue(k, fd)
    before = k.clock.local_now(1)
    q.prep(Sqe(OP_NOP, user_data=1))
    q.submit()
    assert q.harvest()[0].user_data == 1
    assert k.clock.local_now(1) > before            # poller ran on cpu1


# ----------------------------------------------------- epoll integration


def test_epoll_reports_ring_readiness(k, stack, layer):
    """A uring fd in an epoll set: EPOLLIN exactly when CQEs are
    pending; polling gives armed ops their completion chance."""
    lfd, cfd, conn = _connected_pair(k)
    fd, q = _queue(k)
    epfd = k.sys.epoll_create()
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, fd, EPOLLIN)
    assert k.sys.epoll_wait(epfd, timeout=0) == []
    buf = q.alloc(16)
    q.prep(Sqe(OP_RECV, fd=conn, addr=buf, len=16, user_data=1))
    q.submit()
    assert k.sys.epoll_wait(epfd, timeout=0) == []  # armed, not ready
    k.sys.write(cfd, b"now")
    # the poll itself flushes the armed recv into a CQE
    assert k.sys.epoll_wait(epfd, timeout=0) == [(fd, EPOLLIN)]
    assert [c.res for c in q.harvest()] == [3]
    assert k.sys.epoll_wait(epfd, timeout=0) == []  # harvested: idle


def test_epoll_ring_poll_readies_a_later_fd_in_the_same_wait(k, stack,
                                                             layer):
    """Polling the ring completes its armed RECV, whose linked SEND makes
    a socket registered after the ring readable: one epoll_wait reports
    both, as a scan of the whole interest set would."""
    lfd, cfd, conn = _connected_pair(k)
    fd, q = _queue(k)
    epfd = k.sys.epoll_create()
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, fd, EPOLLIN)
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, cfd, EPOLLIN)
    buf = q.alloc(16)
    pong = q.place(b"pong")
    q.prep(Sqe(OP_RECV, flags=F_LINK, fd=conn, addr=buf, len=16,
               user_data=1))
    q.prep(Sqe(OP_SEND, fd=conn, addr=pong, len=4, user_data=2))
    q.submit()
    assert k.sys.epoll_wait(epfd, timeout=0) == []  # armed, not ready
    k.sys.write(cfd, b"ping")
    assert k.sys.epoll_wait(epfd, timeout=0) == [(fd, EPOLLIN),
                                                 (cfd, EPOLLIN)]
    assert [c.res for c in q.harvest()] == [4, 4]
    assert k.sys.read(cfd, 16) == b"pong"


def test_epoll_uring_fd_reuse_after_close_without_del(k, stack, layer):
    """PR-6 regression, uring edition: close a registered ring fd
    *without* EPOLL_CTL_DEL, let the fd number be reused by a fresh
    ring — the stale registration must not report the new ring, and a
    fresh ADD must succeed."""
    fd, q = _queue(k)
    q.prep(Sqe(OP_NOP, user_data=1))
    q.submit()                                      # one pending CQE
    epfd = k.sys.epoll_create()
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, fd, EPOLLIN)
    assert k.sys.epoll_wait(epfd, timeout=0) == [(fd, EPOLLIN)]
    k.sys.close(fd)                                 # no EPOLL_CTL_DEL
    fd2 = k.sys.uring_setup(8)
    assert fd2 == fd                                # number reused
    q2 = UringQueue(k, fd2)
    q2.prep(Sqe(OP_NOP, user_data=2))
    q2.submit()
    # stale registration is for the dead ring's identity: silent
    assert k.sys.epoll_wait(epfd, timeout=0) == []
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, fd2, EPOLLIN)   # not EEXIST
    assert k.sys.epoll_wait(epfd, timeout=0) == [(fd2, EPOLLIN)]


# ------------------------------------------------------- bit identity


def test_http_oracle_unchanged_with_uring_installed():
    """Installing (but never using) a UringLayer must not move a single
    cycle of the pre-uring epoll serving oracle."""
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    k.spawn("bench")
    SocketLayer(k)
    UringLayer(k)
    r = run_http_bench(k, "epoll", HttpBenchConfig(nclients=50))
    got = {"user": k.clock.user, "system": k.clock.system,
           "iowait": k.clock.iowait, "elapsed": r.elapsed,
           "digest": r.digest}
    assert got == HTTP_ORACLE
