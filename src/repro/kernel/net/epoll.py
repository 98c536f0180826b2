"""epoll-style readiness: O(ready) event collection for event-loop servers.

select(2) makes the kernel rescan the *entire* interest set on every call
— cost proportional to open connections, paid per request.  epoll keeps
the interest set registered in the kernel across calls, so ``epoll_wait``
pays only for the events it reports.  The cost model mirrors that split
(``select_per_fd`` × interest size vs ``epoll_wait_base`` +
``epoll_per_event`` × ready count), which is exactly the curve
``benchmarks/bench_net.py`` measures.

The host work follows the same split, built the way Linux builds it.
Registering a socket hangs a poll entry on its wait queue (Linux's
``ep_poll_callback``), and every wakeup of that queue puts the fd on the
epoll's ready list (``rdllist``).  The invariant: the ready list holds
every registered fd whose readiness meets its mask.  It may hold more;
``collect`` re-checks each fd it visits and drops the ones not ready.
Readiness changes that wake no queue notify the poll entries explicitly:
the socket's own ``shutdown(SHUT_RD)`` or close, and room made in a full
peer receive buffer (EPOLLOUT).  Other pollables (uring fds) stay on the
ready list while they live, because polling one completes armed work and
so must happen exactly when a scan of the interest set would reach it.

``collect`` visits the ready list in registration order from a rotating
fairness cursor.  It therefore reports exactly the events, order and
next cursor of a scan of the whole interest set from that cursor, at
O(ready) host cost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import EBADF, EINVAL, raise_errno
from repro.kernel.net.socket import SocketInode
from repro.kernel.sched import WaitQueue
from repro.kernel.vfs.inode import Inode

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.net.socket import SockFS

#: event mask bits (subset of <sys/epoll.h>)
EPOLLIN = 0x001
EPOLLOUT = 0x004
EPOLLERR = 0x008
EPOLLHUP = 0x010

#: epoll_ctl ops
EPOLL_CTL_ADD = 1
EPOLL_CTL_DEL = 2
EPOLL_CTL_MOD = 3

#: bytes copied to user per reported event (fd + mask, packed)
EVENT_BYTES = 12


def socket_events(sock: SocketInode) -> int:
    """Current level-triggered readiness mask for one socket."""
    mask = 0
    if sock.readable_ready:
        mask |= EPOLLIN
    if sock.writable_ready:
        mask |= EPOLLOUT
    if sock.reset:
        mask |= EPOLLERR
    if sock.peer_closed or sock.closed:
        mask |= EPOLLHUP
    return mask


class EpollInode(Inode):
    """The anonymous inode behind an epoll fd: the interest set."""

    def __init__(self, sb: "SockFS"):
        super().__init__(sb, sb.alloc_ino(), 0o600)
        self.interest: dict[int, int] = {}      # fd -> requested mask
        #: fd -> ino of the inode registered under that fd.  Descriptor
        #: numbers are reused (POSIX lowest-free rule), so after a close
        #: without EPOLL_CTL_DEL the same fd can name a *different* socket;
        #: the ino pins which endpoint the registration was for.
        self._identity: dict[int, int] = {}
        #: fd -> the socket wait queue holding this epoll's poll entry
        self._polled: dict[int, WaitQueue] = {}
        #: fd -> slot in registration order.  Deregistered fds keep their
        #: slot until :meth:`_compact`; the fairness cursor counts slots.
        self._order: dict[int, int] = {}
        self._cursor = 0
        #: the ready list (a superset of the ready registrations).  Poll
        #: entries add to it from softirq context without a lock: a lock
        #: would charge cycles, and the simulation runs one CPU at a time.
        self._ready: set[int] = set()
        self.waits = 0
        self.events_reported = 0
        self.stale_replaced = 0
        #: stale registrations (fd closed and reused) met on the ready list
        self.stale_skipped = 0
        #: blocking epoll_wait callers sleep here until delivery wakes them
        self.wq = WaitQueue(sb.kernel, f"epoll:{self.ino}")

    # ----------------------------------------------------------- interest

    def ctl_add(self, fd: int, mask: int, inode: Inode) -> None:
        if fd in self.interest:
            if self._identity[fd] == inode.ino:
                raise_errno(EINVAL, f"fd {fd} already in epoll set")
            # The registered socket is gone and the descriptor number was
            # reused: the dead entry must not block the new registration.
            self._forget(fd)
            self.stale_replaced += 1
        self.interest[fd] = mask
        self._identity[fd] = inode.ino
        if isinstance(inode, SocketInode):
            inode.wq.add_poll(self._ready, fd)
            self._polled[fd] = inode.wq
        # A re-registered fd takes back the slot its DEL/forget left, or
        # collect() would report the descriptor twice per pass.
        if fd not in self._order:
            self._order[fd] = len(self._order)
        # it may be ready already; collect() re-checks it
        self._ready.add(fd)

    def ctl_mod(self, fd: int, mask: int, inode: Inode) -> None:
        if fd not in self.interest or self._identity[fd] != inode.ino:
            raise_errno(EBADF, f"fd {fd} not in epoll set")
        self.interest[fd] = mask
        # a wider mask may admit readiness no wakeup will announce again
        self._ready.add(fd)

    def ctl_del(self, fd: int) -> None:
        if fd not in self.interest:
            raise_errno(EBADF, f"fd {fd} not in epoll set")
        self._forget(fd)

    def _forget(self, fd: int) -> None:
        del self.interest[fd]
        del self._identity[fd]
        wq = self._polled.pop(fd, None)
        if wq is not None:
            wq.remove_poll(self._ready, fd)
        self._ready.discard(fd)
        self._compact()

    def _compact(self) -> None:
        # dead slots stay in the order map; compact when mostly dead
        order = self._order
        if len(order) > 32 and len(order) > 2 * len(self.interest):
            live = [f for f in order if f in self.interest]
            self._order = {f: i for i, f in enumerate(live)}
            self._cursor = 0

    # ------------------------------------------------------------- polling

    def collect(self, resolve, maxevents: int) -> list[tuple[int, int]]:
        """Visit the ready list from the fairness cursor; returns up to
        ``maxevents`` (fd, ready_mask) pairs.  ``resolve(fd)`` maps fd to
        a pollable inode: a :class:`SocketInode`, or any inode exposing an
        ``epoll_events()`` readiness mask (uring fds — docs/URING.md)."""
        ready_list = self._ready
        if not ready_list:
            return []
        order = self._order
        n = len(order)
        start = self._cursor % n

        def rank(fd: int) -> int:
            return (order[fd] - start) % n

        found: list[tuple[int, int]] = []
        last_idx: int | None = None
        queue = sorted(ready_list, key=rank)
        i = 0
        while i < len(queue):
            fd = queue[i]
            i += 1
            sock = resolve(fd)
            if sock is None:
                # fd closed without EPOLL_CTL_DEL: the registration stays
                # in the interest set but can never be ready again
                ready_list.discard(fd)
                continue
            if sock.ino != self._identity[fd]:
                # fd reused for a different socket: the dead registration
                # must not report that stranger's readiness
                self.stale_skipped += 1
                ready_list.discard(fd)
                continue
            want = self.interest[fd] | EPOLLERR | EPOLLHUP
            if isinstance(sock, SocketInode):
                ready = socket_events(sock) & want
                if not ready:
                    ready_list.discard(fd)
                    continue
            else:
                ready = sock.epoll_events() & want
                # the poll may have completed I/O that readied fds later
                # in this pass: take the rest of the pass afresh
                here = rank(fd)
                queue = sorted((f for f in ready_list if rank(f) > here),
                               key=rank)
                i = 0
                if not ready:
                    continue
            found.append((fd, ready))
            last_idx = order[fd]
            if len(found) >= maxevents:
                break
        if last_idx is not None:
            self._cursor = (last_idx + 1) % n
        self.events_reported += len(found)
        return found

    # ------------------------------------------------------------ lifecycle

    def release_file(self, file) -> None:
        """Closing the epoll fd takes its poll entries off every socket,
        discards the interest set and unregisters the anonymous inode
        (same churn-leak fix as socket endpoints)."""
        for fd, wq in self._polled.items():
            wq.remove_poll(self._ready, fd)
        self._polled.clear()
        self.interest.clear()
        self._identity.clear()
        self._order.clear()
        self._ready.clear()
        self.sb.drop_inode(self)
