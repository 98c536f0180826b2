"""Property test: the epoll ready list reports what a full scan would.

``EpollInode.collect`` visits only the ready list, which wait-queue poll
entries and explicit notifies keep a superset of the ready
registrations.  The oracle below is the rotating scan of the whole
interest set that ``collect`` replaced.  Before every ``epoll_wait`` it
predicts the events, their order and the next fairness cursor, and the
kernel must match all three, over random sequences of registrations,
descriptor reuse, data, FIN, RST, ``shutdown(SHUT_RD)``, accepts and
reads that drain a bounded receive buffer.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import Errno
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.net import (EPOLL_CTL_ADD, EPOLL_CTL_DEL, EPOLL_CTL_MOD,
                              EPOLLIN, EPOLLOUT, SHUT_RD, SHUT_WR,
                              SocketInode, SocketLayer)
from repro.kernel.net.epoll import EPOLLERR, EPOLLHUP, socket_events

RCVBUF = 32
#: data moves are listed twice: filling and draining a buffer takes several
OPS = ("connect", "accept", "add", "mod", "del", "close", "write", "read",
       "fin", "shut_rd", "rst", "write", "read")


def scan_oracle(ep, resolve, maxevents):
    """The full rotating scan: every registration in registration order
    from the cursor.  Returns ``(events, next_cursor)``; mutates nothing."""
    order = list(ep._order)
    n = len(order)
    if n == 0:
        return [], ep._cursor
    found = []
    start = ep._cursor % n
    last_idx = None
    for i in range(n):
        idx = (start + i) % n
        fd = order[idx]
        want = ep.interest.get(fd)
        if want is None:
            continue                    # deregistered slot
        sock = resolve(fd)
        if sock is None or sock.ino != ep._identity[fd]:
            continue                    # closed, or reused by a stranger
        ready = socket_events(sock) & (want | EPOLLERR | EPOLLHUP)
        if ready:
            found.append((fd, ready))
            last_idx = idx
            if len(found) >= maxevents:
                break
    cursor = ep._cursor if last_idx is None else (last_idx + 1) % n
    return found, cursor


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_ready_list_matches_full_scan(data):
    k = Kernel()
    k.mount_root(RamfsSuperBlock(k))
    task = k.spawn("srv")
    stack = SocketLayer(k, default_rcvbuf=RCVBUF)
    sys = k.sys
    lfd = sys.socket(blocking=False)
    sys.bind(lfd, 80)
    sys.listen(lfd, 4)
    epfd = sys.epoll_create()
    ep = task.fds[epfd].inode
    sys.epoll_ctl(epfd, EPOLL_CTL_ADD, lfd, EPOLLIN)

    def resolve(fd):
        file = task.get_file(fd)
        return file.inode if file is not None else None

    def wait():
        maxevents = data.draw(st.integers(min_value=1, max_value=8),
                              label="maxevents")
        every, _ = scan_oracle(ep, resolve, len(ep._order) + 1)
        assert {fd for fd, _ in every} <= ep._ready
        expected, cursor = scan_oracle(ep, resolve, maxevents)
        assert sys.epoll_wait(epfd, maxevents, timeout=0) == expected
        assert ep._cursor == cursor

    def connect():
        cfd = sys.socket(blocking=False)
        try:
            sys.connect(cfd, 80)
        except Errno:
            sys.close(cfd)              # refused: the backlog is full
        return cfd

    def ctl(op, fd, arg):
        sys.epoll_ctl(epfd, op, fd, EPOLLIN | (EPOLLOUT if arg % 2 else 0))

    # start from registered connections, so most ops touch the epoll set
    for _ in range(data.draw(st.integers(min_value=1, max_value=3),
                             label="pairs")):
        for fd in (connect(), sys.accept(lfd)):
            ctl(EPOLL_CTL_ADD, fd, data.draw(st.integers(0, 1), label="mask"))
    seen: set[SocketInode] = set()
    for _ in range(data.draw(st.integers(min_value=8, max_value=40),
                             label="nops")):
        socks = sorted(fd for fd, f in task.fds.items()
                       if isinstance(f.inode, SocketInode))
        seen.update(resolve(fd) for fd in socks)
        op = data.draw(st.sampled_from(OPS), label="op") if socks \
            else "connect"
        fd = data.draw(st.sampled_from(socks), label="fd") if socks else -1
        sock = resolve(fd)
        arg = data.draw(st.integers(min_value=0, max_value=63), label="arg")
        try:
            if op == "connect":
                connect()
            elif op == "accept":
                sys.accept(lfd)
            elif op == "add":
                ctl(EPOLL_CTL_ADD, fd, arg)
            elif op == "mod":
                ctl(EPOLL_CTL_MOD, fd, arg)
            elif op == "del":
                sys.epoll_ctl(epfd, EPOLL_CTL_DEL, fd, 0)
            elif op == "close":
                sys.close(fd)           # never EPOLL_CTL_DEL first
            elif op == "write":
                # half the writes fill the peer's receive buffer exactly
                peer = sock.peer
                room = peer.rcvbuf - peer.rx_bytes if peer else 0
                sys.write(fd, b"w" * (room if room and arg % 2 else 8))
            elif op == "read":
                sys.read(fd, 1 + arg % RCVBUF)
            elif op == "fin":
                sys.shutdown(fd, SHUT_WR)
            elif op == "shut_rd":
                sys.shutdown(fd, SHUT_RD)
            else:
                stack.reset_connection(sock, site="prop")
        except Errno:
            pass                        # a refused op is a legitimate outcome
        if data.draw(st.booleans(), label="then wait"):
            wait()
    wait()

    sys.close(epfd)
    assert not any(sock.wq.polls for sock in seen)
