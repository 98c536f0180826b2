"""Stream sockets: TCP-like endpoints living in the VFS fd table.

The original reproduction shipped only connected socket *pairs*; growing
the §2.1 server story ("read a file from disk and send it over the network
to a remote client") to real request loops needs listeners, connection
establishment, and readiness — this module supplies the endpoint object.

:class:`SocketInode` is an inode, so the generic read/write/close syscalls
work unchanged; connection state (listen backlog, accept queue, shutdown
halves, reset flag) lives here, while packet movement is the NIC's job
(:mod:`repro.kernel.net.nic`) and the syscall surface is
:class:`repro.kernel.net.syscalls.SocketLayer`.

Lifecycle events (``sock.accept``/``sock.close``/``sock.drop``) are emitted
through the kernel's §3.3 ``log_event`` hook with the codes below, so the
event monitors observe the subsystem exactly like locks and refcounts.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import TYPE_CHECKING

from repro.errors import ECONNRESET, EINVAL, EPIPE, ENOTCONN, raise_errno
from repro.kernel.locks import SpinLock
from repro.kernel.sched import WaitQueue
from repro.kernel.vfs.inode import Inode
from repro.kernel.vfs.super import SuperBlock

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.net.syscalls import SocketLayer
    from repro.kernel.vfs.file import File

S_IFSOCK = 0o140000

# Event type codes shared with the monitor package (9.. continues the
# EV_* numbering started in repro.kernel.locks).
EV_SOCK_ACCEPT = 9
EV_SOCK_CLOSE = 10
EV_SOCK_DROP = 11

#: shutdown(2) `how` values
SHUT_RD, SHUT_WR, SHUT_RDWR = 0, 1, 2


class SockState(enum.Enum):
    FRESH = "fresh"              # socket() called, not yet connected
    LISTENING = "listening"
    CONNECTING = "connecting"    # SYN sent, no SYN+ACK/RST yet
    ESTABLISHED = "established"
    CLOSED = "closed"


class SockFS(SuperBlock):
    """The anonymous superblock socket inodes hang off (like Linux sockfs)."""

    def __init__(self, kernel: "Kernel"):
        super().__init__(kernel, "sockfs")
        #: back-pointer set by the SocketLayer that owns this sockfs.
        self.stack: "SocketLayer | None" = None


class SocketInode(Inode):
    """One stream-socket endpoint."""

    def __init__(self, sb: SockFS, *, blocking: bool = False,
                 rcvbuf: int | None = None):
        super().__init__(sb, sb.alloc_ino(), S_IFSOCK | 0o600)
        self.rx: deque[bytes] = deque()
        self.rx_bytes = 0
        self.peer: "SocketInode | None" = None
        self.state = SockState.FRESH
        #: blocking endpoints sleep on ``wq`` until softirq delivery wakes
        #: them; non-blocking reads return ``b""`` when the queue is empty.
        self.blocking = blocking
        #: receive-buffer cap in bytes; None = unlimited (socketpair mode).
        self.rcvbuf = rcvbuf
        self.port: int | None = None
        self.backlog = 0
        self.accept_queue: deque["SocketInode"] = deque()
        #: connection torn down by RST / a dropped packet
        self.reset = False
        #: this side called connect() and got RST'd (backlog overflow)
        self.connect_refused = False
        #: FIN received: the peer will send no more data (EOF after drain)
        self.peer_closed = False
        self.closed = False
        self.rd_closed = False
        self.wr_closed = False
        self.bytes_sent = 0
        self.bytes_received = 0
        self.wq = WaitQueue(sb.kernel, f"sock:{self.ino}")
        #: guards the receive and accept queues.  Written from softirq
        #: delivery and read from process context, so every acquisition is
        #: ``rxq_lock.irqsave`` — never held across anything that can
        #: transmit or sleep.
        self.rxq_lock = SpinLock(sb.kernel, "sock_rxq")

    # ------------------------------------------------------------ plumbing

    @property
    def stack(self) -> "SocketLayer":
        stack = self.sb.stack
        if stack is None:  # pragma: no cover - wiring error
            raise RuntimeError("socket inode without an owning SocketLayer")
        return stack

    @property
    def value(self) -> int:
        """Payload the event dispatcher snapshots into records: queue depth."""
        return self.rx_bytes

    @property
    def pending(self) -> int:
        """Bytes queued for reading on this endpoint."""
        return self.rx_bytes

    def _charge(self, nbytes: int) -> None:
        costs = self.sb.kernel.costs
        self.sb.kernel.clock.charge_system(
            costs.sock_op + int(nbytes * costs.sock_copy_per_byte))

    # ----------------------------------------------------------- readiness

    @property
    def readable_ready(self) -> bool:
        """Would read()/accept() return without blocking?"""
        if self.state is SockState.LISTENING:
            return bool(self.accept_queue)
        return (self.rx_bytes > 0 or self.peer_closed or self.reset
                or self.rd_closed)

    @property
    def writable_ready(self) -> bool:
        if self.state is not SockState.ESTABLISHED or self.wr_closed:
            return False
        peer = self.peer
        if peer is None or peer.closed or peer.rd_closed:
            return False
        return peer.rcvbuf is None or peer.rx_bytes < peer.rcvbuf

    # ------------------------------------------------------------- data ops
    # Offsets are meaningless on sockets; streams consume in order.

    def read(self, offset: int, size: int) -> bytes:
        if size < 0:
            raise_errno(EINVAL, "negative socket read")
        if self.reset:
            raise_errno(ECONNRESET, "read on reset connection")
        if self.rd_closed:
            return b""
        if not self.rx and not self.peer_closed and self.blocking:
            self.stack.wait_readable(self)
            if self.reset:
                raise_errno(ECONNRESET, "connection reset while blocked")
        out = bytearray()
        with self.rxq_lock.irqsave("sock:read"):
            while self.rx and len(out) < size:
                chunk = self.rx[0]
                take = min(len(chunk), size - len(out))
                out += chunk[:take]
                if take == len(chunk):
                    self.rx.popleft()
                else:
                    self.rx[0] = chunk[take:]
            self.rx_bytes -= len(out)
        rcvbuf = self.rcvbuf
        if (rcvbuf is not None and self.peer is not None
                and self.rx_bytes < rcvbuf <= self.rx_bytes + len(out)):
            # a full buffer got room: the writer's EPOLLOUT rose
            self.peer.wq.notify_polls()
        self.bytes_received += len(out)
        self._charge(len(out))
        return bytes(out)

    def write(self, offset: int, data: bytes) -> int:
        if self.reset:
            raise_errno(ECONNRESET, "write on reset connection")
        if self.closed or self.wr_closed:
            raise_errno(EPIPE, "write after shutdown")
        peer = self.peer
        if peer is None:
            if self.state in (SockState.FRESH, SockState.CONNECTING,
                              SockState.LISTENING):
                raise_errno(ENOTCONN, "socket is not connected")
            raise_errno(EPIPE, "write on a disconnected socket")
        if peer.closed or peer.rd_closed:
            # The reader is gone: deliverance is impossible.  Raising (not
            # short-writing) is what lets sendfile abort mid-transfer.
            raise_errno(EPIPE, "peer endpoint is closed")
        self._charge(len(data))
        if data:
            self.stack.send_data(self, bytes(data))
        self.bytes_sent += len(data)
        return len(data)

    def truncate(self, size: int) -> None:
        raise_errno(EINVAL, "cannot truncate a socket")

    # ------------------------------------------------------------ lifecycle

    def close_endpoint(self, site: str = "sock:close") -> None:
        """Tear down this endpoint: FIN the peer, refuse queued connections."""
        if self.closed:
            return
        self.closed = True
        self.rd_closed = True
        self.wr_closed = True
        self.state = SockState.CLOSED
        # EPOLLIN|EPOLLHUP rose with no packet: the next epoll_wait meets
        # each registration closed without EPOLL_CTL_DEL once, and drops it
        self.wq.notify_polls()
        kernel = self.sb.kernel
        kernel.log_event(self, EV_SOCK_CLOSE, site)
        stack = self.sb.stack
        if stack is None:
            return
        if self.port is not None:
            stack.release_port(self.port, self)
        # Detach the backlog under the queue lock, then tear the children
        # down with it dropped (teardown transmits FIN/RST packets).
        with self.rxq_lock.irqsave("sock:close"):
            pending = list(self.accept_queue)
            self.accept_queue.clear()
        for child in pending:
            # connections completed but never accepted are reset AND
            # closed: no fd will ever reference them, so leaving the
            # endpoint open would strand its inode in sockfs forever
            stack.reset_connection(child, site="sock:close-backlog")
            child.close_endpoint("sock:close-backlog")
        if self.peer is not None and not self.peer.closed:
            stack.send_fin(self)
        # A closed endpoint can never be looked up again; leaving it in the
        # sockfs registry is the leak connection-churn scenarios trip over
        # (sockfs.inodes grows without bound).
        self.sb.drop_inode(self)

    def release_file(self, file: "File") -> None:
        """VFS close hook: closing the last fd closes the endpoint."""
        self.close_endpoint()
