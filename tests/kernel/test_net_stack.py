"""The simulated network stack: connections, NIC delivery, readiness,
blocking semantics, failure paths, and lifecycle events."""

import pytest

from repro.errors import (EADDRINUSE, EAGAIN, ECONNREFUSED, ECONNRESET,
                          EDEADLK, EINVAL, EMFILE, EPIPE, Errno)
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.interrupts import TimerInterrupt
from repro.kernel.net import (EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD,
                              EPOLLHUP, EPOLLIN, EPOLLOUT, EV_SOCK_ACCEPT,
                              EV_SOCK_CLOSE, EV_SOCK_DROP, MTU, SHUT_RD,
                              SHUT_WR, SocketLayer, SockState)
from repro.kernel.vfs import O_CREAT, O_WRONLY
from repro.safety.monitor import EventDispatcher, SocketMonitor


@pytest.fixture
def k():
    kern = Kernel()
    kern.mount_root(RamfsSuperBlock(kern))
    kern.spawn("srv")
    return kern


@pytest.fixture
def stack(k):
    return SocketLayer(k)


def _listener(k, port=80, backlog=8, blocking=False):
    fd = k.sys.socket(blocking=blocking)
    k.sys.bind(fd, port)
    k.sys.listen(fd, backlog)
    return fd


def _connected_pair(k, port=80):
    """listener + one established (client_fd, conn_fd) pair."""
    lfd = _listener(k, port)
    cfd = k.sys.socket(blocking=False)
    k.sys.connect(cfd, port)
    conn = k.sys.accept(lfd)
    return lfd, cfd, conn


# ------------------------------------------------------ connection plumbing


def test_connect_accept_data_roundtrip(k, stack):
    lfd, cfd, conn = _connected_pair(k)
    k.sys.write(cfd, b"request")
    assert k.sys.read(conn, 64) == b"request"
    k.sys.write(conn, b"response")
    assert k.sys.read(cfd, 64) == b"response"
    assert stack.accepts == 1 and stack.connections == 1


def test_connect_unbound_port_refused(k, stack):
    cfd = k.sys.socket(blocking=False)
    with pytest.raises(Errno) as ei:
        k.sys.connect(cfd, 9999)
    assert ei.value.errno == ECONNREFUSED


def test_backlog_overflow_refuses_connections(k, stack):
    _listener(k, backlog=2)
    ok = []
    for _ in range(2):
        fd = k.sys.socket(blocking=False)
        k.sys.connect(fd, 80)
        ok.append(fd)
    fd = k.sys.socket(blocking=False)
    with pytest.raises(Errno) as ei:
        k.sys.connect(fd, 80)
    assert ei.value.errno == ECONNREFUSED


def test_bind_conflicts_and_listen_requires_bind(k, stack):
    a = k.sys.socket()
    k.sys.bind(a, 80)
    b = k.sys.socket()
    with pytest.raises(Errno) as ei:
        k.sys.bind(b, 80)
    assert ei.value.errno == EADDRINUSE
    with pytest.raises(Errno) as ei:
        k.sys.listen(b)          # never bound
    assert ei.value.errno == EINVAL
    # closing the bound socket releases the port for rebinding
    k.sys.close(a)
    k.sys.bind(b, 80)


def test_listener_close_resets_unaccepted_backlog(k, stack):
    lfd = _listener(k)
    cfd = k.sys.socket(blocking=False)
    k.sys.connect(cfd, 80)
    k.sys.close(lfd)  # queued, never-accepted connection gets reset
    with pytest.raises(Errno) as ei:
        k.sys.write(cfd, b"x")
    assert ei.value.errno == ECONNRESET


def test_shutdown_wr_gives_peer_eof_then_epipe(k, stack):
    lfd, cfd, conn = _connected_pair(k)
    k.sys.write(cfd, b"last")
    k.sys.shutdown(cfd, SHUT_WR)
    assert k.sys.read(conn, 64) == b"last"
    assert k.sys.read(conn, 64) == b""   # FIN: EOF after drain
    with pytest.raises(Errno) as ei:
        k.sys.write(cfd, b"more")
    assert ei.value.errno == EPIPE
    # the read half still works
    k.sys.write(conn, b"reply")
    assert k.sys.read(cfd, 64) == b"reply"


def test_lowest_free_fd_reused(k, stack):
    fds = [k.sys.socket() for _ in range(3)]
    k.sys.close(fds[0])
    assert k.sys.socket() == fds[0]   # POSIX lowest-free rule


def test_rlimit_nofile_enforced(k, stack):
    k.current.rlimit_nofile = 2
    k.sys.socket()
    k.sys.socket()
    with pytest.raises(Errno) as ei:
        k.sys.socket()
    assert ei.value.errno == EMFILE


# ------------------------------------------------------ blocking semantics


def test_nonblocking_accept_eagain(k, stack):
    lfd = _listener(k)
    with pytest.raises(Errno) as ei:
        k.sys.accept(lfd)
    assert ei.value.errno == EAGAIN


def test_blocking_accept_deadlock_detected(k, stack):
    lfd = _listener(k, blocking=True)
    with pytest.raises(Errno) as ei:
        k.sys.accept(lfd)  # nothing in flight can ever wake us
    assert ei.value.errno == EDEADLK


def test_blocking_read_deadlock_detected(k, stack):
    lfd = _listener(k, blocking=True)
    cfd = k.sys.socket(blocking=True)
    k.sys.connect(cfd, 80)
    conn = k.sys.accept(lfd)
    with pytest.raises(Errno) as ei:
        k.sys.read(conn, 64)    # peer never sends; no packets in flight
    assert ei.value.errno == EDEADLK


def test_blocking_read_pumps_deferred_delivery(k):
    stack = SocketLayer(k, deliver="tick")
    lfd = _listener(k, blocking=True)
    cfd = k.sys.socket(blocking=False)
    k.sys.connect(cfd, 80)
    conn = k.sys.accept(lfd)
    k.sys.write(cfd, b"deferred")
    # tick mode: the bytes are still sitting in the NIC rings
    assert stack.nic.pending > 0
    sock = k.current.get_file(conn).inode
    assert k.sys.read(conn, 64) == b"deferred"  # sleep + pump delivered it
    assert sock.wq.sleeps >= 1


def test_tick_mode_timer_drives_softirq(k):
    stack = SocketLayer(k, deliver="tick")
    lfd, cfd, conn = _connected_pair(k)
    k.sys.write(cfd, b"ping")
    assert k.sys.read(conn, 64) == b""      # not delivered yet
    timer = TimerInterrupt(k, stack.nic.irq)
    stack.attach_timer(timer)
    timer.fire()                            # NET_RX runs off the tick
    assert k.sys.read(conn, 64) == b"ping"
    assert stack.nic.interrupts >= 1


# ----------------------------------------------------------- failure paths


def test_net_tx_fault_resets_connection(k, stack):
    lfd, cfd, conn = _connected_pair(k)
    with k.faults.inject("net.tx", every=1):
        with pytest.raises(Errno) as ei:
            k.sys.write(cfd, b"doomed")
    assert ei.value.errno == ECONNRESET
    with pytest.raises(Errno) as ei:        # the peer sees the reset too
        k.sys.read(conn, 64)
    assert ei.value.errno == ECONNRESET


def test_net_rx_fault_resets_connection(k, stack):
    lfd, cfd, conn = _connected_pair(k)
    with k.faults.inject("net.rx", site="data", every=1):
        with pytest.raises(Errno) as ei:
            k.sys.write(cfd, b"dropped in softirq")
    assert ei.value.errno == ECONNRESET


def test_tx_ring_overflow_drops_and_resets(k):
    stack = SocketLayer(k, deliver="tick")   # no kick between transmits
    stack.nic.tx_slots = 2
    lfd, cfd, conn = _connected_pair(k)
    with pytest.raises(Errno) as ei:
        k.sys.write(cfd, b"x" * (MTU * 3))   # 3 packets into 2 slots
    assert ei.value.errno == ECONNRESET
    assert stack.nic.dropped >= 1


def test_sendfile_nonblocking_eagain_when_tx_ring_full(k):
    """Regression: sendfile on a *non-blocking* socket whose TX ring
    cannot take the next chunk must return EAGAIN — not reset the
    connection or drop packets like the blocking overflow path does."""
    stack = SocketLayer(k, deliver="tick")   # no kick between transmits
    stack.nic.tx_slots = 2
    lfd, cfd, conn = _connected_pair(k)
    fd = k.sys.open("/f", O_CREAT | O_WRONLY)
    k.sys.write(fd, b"e" * (MTU * 3))        # 3 packets into 2 slots
    k.sys.close(fd)
    src = k.sys.open("/f", 0)
    with pytest.raises(Errno) as ei:
        k.sys.sendfile(cfd, src, 0, MTU * 3)
    assert ei.value.errno == EAGAIN
    assert stack.nic.dropped == 0            # refused up front, not dropped
    k.sys.write(cfd, b"still alive")         # connection untouched
    timer = TimerInterrupt(k, stack.nic.irq)
    stack.attach_timer(timer)
    timer.fire()
    assert k.sys.read(conn, 64) == b"still alive"


def test_sendfile_nonblocking_short_write_when_ring_fills_mid_file(k):
    """Same regression, partial-progress flavour: once at least one chunk
    is in flight a full TX ring ends the sendfile with a short count."""
    stack = SocketLayer(k, deliver="tick")
    lfd, cfd, conn = _connected_pair(k)
    chunk = 65536                            # sendfile's internal chunking
    stack.nic.tx_slots = (chunk + MTU - 1) // MTU + 5   # 1 chunk + slack
    payload = b"s" * (chunk * 2)
    fd = k.sys.open("/f", O_CREAT | O_WRONLY)
    k.sys.write(fd, payload)
    k.sys.close(fd)
    src = k.sys.open("/f", 0)
    sent = k.sys.sendfile(cfd, src, 0, len(payload))
    assert sent == chunk                     # second chunk refused cleanly
    assert stack.nic.dropped == 0
    timer = TimerInterrupt(k, stack.nic.irq)
    stack.attach_timer(timer)
    timer.fire()
    drained = b""
    while True:
        try:
            got = k.sys.read(conn, chunk)
        except Errno as e:
            assert e.errno == EAGAIN
            break
        if not got:
            break
        drained += got
        timer.fire()
    assert drained == payload[:sent]         # exactly the short count


def test_sendfile_epipe_when_peer_closes_mid_transfer(k, stack):
    """Regression: a peer that disappears mid-sendfile must raise EPIPE,
    not silently short-write the remainder."""
    payload = b"s" * 200_000                 # 4 sendfile chunks
    fd = k.sys.open("/big", O_CREAT | O_WRONLY)
    k.sys.write(fd, payload)
    k.sys.close(fd)
    a, b = k.sys.socketpair()
    src_inode = k.current.get_file(a).inode
    dst_inode = k.current.get_file(b).inode

    def close_reader_after_first_chunk(task):
        if src_inode.bytes_sent >= 65536 and not dst_inode.closed:
            dst_inode.close_endpoint()

    k.sched.add_preempt_hook(close_reader_after_first_chunk)
    try:
        src = k.sys.open("/big", 0)
        with k.faults.inject("sched.preempt", every=1):
            with pytest.raises(Errno) as ei:
                k.sys.sendfile(a, src, 0, len(payload))
        assert ei.value.errno == EPIPE
        assert 0 < src_inode.bytes_sent < len(payload)  # truly mid-transfer
    finally:
        k.sched.remove_preempt_hook(close_reader_after_first_chunk)


# -------------------------------------------------------------- readiness


def test_select_reports_ready_sockets(k, stack):
    lfd, cfd, conn = _connected_pair(k)
    assert k.sys.select([lfd, cfd, conn]) == []
    k.sys.write(cfd, b"hello")
    assert k.sys.select([lfd, cfd, conn]) == [conn]
    k.sys.read(conn, 64)
    assert k.sys.select([lfd, cfd, conn]) == []   # level-triggered: drained
    with pytest.raises(Errno):
        k.sys.select([])


def test_select_sees_listener_backlog(k, stack):
    lfd = _listener(k)
    assert k.sys.select([lfd]) == []
    cfd = k.sys.socket(blocking=False)
    k.sys.connect(cfd, 80)
    assert k.sys.select([lfd]) == [lfd]


def test_epoll_readiness_and_hup(k, stack):
    lfd, cfd, conn = _connected_pair(k)
    epfd = k.sys.epoll_create()
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, conn, EPOLLIN)
    assert k.sys.epoll_wait(epfd, timeout=0) == []
    k.sys.write(cfd, b"data")
    events = k.sys.epoll_wait(epfd, timeout=0)
    assert events == [(conn, EPOLLIN)]
    k.sys.read(conn, 64)
    assert k.sys.epoll_wait(epfd, timeout=0) == []
    k.sys.close(cfd)                       # FIN -> EPOLLIN (EOF) + HUP
    (fd, mask), = k.sys.epoll_wait(epfd, timeout=0)
    assert fd == conn and mask & EPOLLHUP and mask & EPOLLIN


def test_epoll_del_and_closed_fd_forgotten(k, stack):
    lfd, cfd, conn = _connected_pair(k)
    lfd2, cfd2, conn2 = _connected_pair(k, port=81)
    epfd = k.sys.epoll_create()
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, conn, EPOLLIN)
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, conn2, EPOLLIN)
    k.sys.write(cfd, b"x")
    k.sys.write(cfd2, b"y")
    k.sys.epoll_ctl(epfd, EPOLL_CTL_DEL, conn, 0)
    assert k.sys.epoll_wait(epfd, timeout=0) == [(conn2, EPOLLIN)]
    k.sys.close(conn2)                     # closed without CTL_DEL
    assert k.sys.epoll_wait(epfd, timeout=0) == []
    with pytest.raises(Errno):             # double-del
        k.sys.epoll_ctl(epfd, EPOLL_CTL_DEL, conn, 0)


def test_epoll_reports_shut_rd(k, stack):
    """shutdown(SHUT_RD) makes a socket readable (EOF) without a packet."""
    lfd, cfd, conn = _connected_pair(k)
    epfd = k.sys.epoll_create()
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, conn, EPOLLIN)
    assert k.sys.epoll_wait(epfd, timeout=0) == []
    k.sys.shutdown(conn, SHUT_RD)
    assert k.sys.epoll_wait(epfd, timeout=0) == [(conn, EPOLLIN)]


def test_epoll_mod_admits_readiness_already_present(k, stack):
    lfd, cfd, conn = _connected_pair(k)
    epfd = k.sys.epoll_create()
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, conn, EPOLLIN)
    assert k.sys.epoll_wait(epfd, timeout=0) == []  # writable, not wanted
    k.sys.epoll_ctl(epfd, EPOLL_CTL_MOD, conn, EPOLLIN | EPOLLOUT)
    assert k.sys.epoll_wait(epfd, timeout=0) == [(conn, EPOLLOUT)]


def test_epoll_reports_epollout_once_peer_drains_full_buffer(k):
    """A reader making room in its full receive buffer raises the
    writer's EPOLLOUT; no packet announces it."""
    SocketLayer(k, default_rcvbuf=8)
    lfd, cfd, conn = _connected_pair(k)
    epfd = k.sys.epoll_create()
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, conn, EPOLLOUT)
    k.sys.write(conn, b"x" * 8)             # the client's buffer is full
    assert k.sys.epoll_wait(epfd, timeout=0) == []
    assert k.sys.read(cfd, 3) == b"xxx"
    assert k.sys.epoll_wait(epfd, timeout=0) == [(conn, EPOLLOUT)]


def test_closing_epoll_fd_removes_only_its_poll_entries(k, stack):
    lfd, cfd, conn = _connected_pair(k)
    socks = [k.current.fds[fd].inode for fd in (lfd, cfd, conn)]
    ep1, ep2 = k.sys.epoll_create(), k.sys.epoll_create()
    for ep in (ep1, ep2):
        for fd in (lfd, cfd, conn):
            k.sys.epoll_ctl(ep, EPOLL_CTL_ADD, fd, EPOLLIN)
        assert k.sys.epoll_wait(ep, timeout=0) == []
    k.sys.close(cfd)                        # registered, closed without DEL
    # both ready lists now hold the same fds: closing ep2 must still take
    # off ep2's entries, not ep1's
    k.sys.close(ep2)
    assert [len(s.wq.polls) for s in socks] == [1, 1, 1]
    k.sys.connect(k.sys.socket(blocking=False), 80)
    assert k.sys.epoll_wait(ep1, timeout=0) == [(lfd, EPOLLIN),
                                                (conn, EPOLLIN | EPOLLHUP)]
    k.sys.close(ep1)
    assert not any(s.wq.polls for s in socks)


def test_epoll_wait_blocking_deadlock_detected(k, stack):
    lfd, cfd, conn = _connected_pair(k)
    epfd = k.sys.epoll_create()
    k.sys.epoll_ctl(epfd, EPOLL_CTL_ADD, conn, EPOLLIN)
    with pytest.raises(Errno) as ei:
        k.sys.epoll_wait(epfd)             # timeout=-1, nothing in flight
    assert ei.value.errno == EDEADLK


# ------------------------------------------------------- lifecycle events


def test_socket_lifecycle_events_emitted(k, stack):
    seen = []
    k.attach_event_dispatcher(lambda obj, et, site: seen.append(et))
    lfd, cfd, conn = _connected_pair(k)
    k.sys.close(conn)
    types = set(seen)
    assert EV_SOCK_ACCEPT in types and EV_SOCK_CLOSE in types


def test_socket_monitor_tracks_accepts_and_drops(k, stack):
    dispatcher = EventDispatcher(k).attach()
    mon = SocketMonitor()
    dispatcher.register_callback(mon)
    lfd, cfd, conn = _connected_pair(k)
    assert mon.accepts == 1 and mon.leaked() != {}
    with k.faults.inject("net.tx", every=1):
        with pytest.raises(Errno):
            k.sys.write(cfd, b"x")
    assert sum(mon.drops.values()) == 1    # EV_SOCK_DROP accounted
    k.sys.close(conn)
    assert mon.closes >= 1 and mon.leaked() == {}
    assert mon.report_leaks() == []


def test_socket_monitor_reports_leaks(k, stack):
    dispatcher = EventDispatcher(k).attach()
    mon = SocketMonitor()
    dispatcher.register_callback(mon)
    lfd, cfd, conn = _connected_pair(k)
    violations = mon.report_leaks()
    assert len(violations) == 1
    assert violations[0].rule == "socket-accept-close"
