"""Concurrent HTTP serving, four ways: select, epoll, Cosy, uring rings.

This is the paper's server story (§2.1/§2.4) run against *many* clients on
the simulated network stack, instead of one socketpair.  Per request every
server does the same work — accept the connection, read the request, open
the file, sendfile it, close the file — but they differ in how much of the
user/kernel boundary they cross to do it:

* :class:`SelectHttpServer` — classic select-per-request loop.  Every
  request pays one ``select`` over the *entire* interest set (the kernel
  rescans all N registered fds), plus the accept/read/open/sendfile/close
  traps.  With keep-alive connections the interest set grows with the
  client count, so per-request cost grows O(N).
* :class:`EpollHttpServer` — event loop over ``epoll_wait``.  Readiness
  is O(ready), batched up to 64 events per trap; per-request cost is flat
  no matter how many idle connections are registered.
* :class:`CosyHttpServer` — the whole request loop is one Cosy compound:
  ``accept → read → open → sendfile → close`` for a wave of clients runs
  in a single ``cosy_exec`` trap, with the request bytes landing in the
  shared buffer (no uaccess).  Crossings per request approach zero.
* :class:`UringHttpServer` — async syscall rings (docs/URING.md).  Each
  request is a linked SQE chain ``recv → openat → sendfile → close``
  submitted through shared rings; a multishot accept feeds new
  connections without rearming.  In enter mode one ``uring_enter`` trap
  moves a whole batch; with sqpoll (the default on SMP kernels) a
  kernel-side poller consumes submissions and the serving phase makes
  *zero* boundary crossings.  Like Cosy it is a zero-copy pipeline
  server: request bytes land in the shared data area and the kernel reads
  the path straight out of them, so user space never parses the request
  (no ``REQUEST_PARSE_CYCLES``) — but unlike Cosy there is no program to
  encode or interpret, just fixed-size entries.

Each class is the one implementation of its strategy, with two entry
points.  ``serve_wave(n)`` is the closed wave the benches measure: ``n``
clients each sent one valid request, and a failure surfaces as an
exception.  ``pump()`` (``serve_one()`` for Cosy) is what the overload
scenarios (:mod:`repro.workloads.scenario`) drive: it survives EOF,
resets, garbled requests, mid-transfer hangups and fd exhaustion by
reaping the connection and counting the failure in ``errors``.

``benchmarks/bench_net.py`` sweeps the client count to reproduce the
crossings-dominate curve; the differential test asserts all four serve
byte-identical responses.

Protocol: a request is ``b"GET <path>\\0"`` (NUL-terminated so the Cosy
compound can reuse its request region), the response is the raw file
body.  The benches send one request per connection; connections are kept
alive (the server closes only those it reaps), which is what makes
select's interest set grow.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.core.cosy.compound import CompoundBuilder, CompoundFault
from repro.core.cosy.kernel_ext import CosyKernelExtension
from repro.core.cosy.ops import Arg
from repro.core.cosy.shared_buffer import SharedBuffer
from repro.errors import EAGAIN, ECANCELED, EMFILE, Errno
from repro.kernel.clock import Mode
from repro.kernel.net import EPOLL_CTL_ADD, EPOLLIN
from repro.kernel.uring import (F_FIXED_FILE, F_LINK, F_MULTISHOT, OP_ACCEPT,
                                OP_CLOSE, OP_OPENAT, OP_RECV, OP_SENDFILE,
                                Sqe, UringLayer, UringQueue)
from repro.kernel.vfs.file import O_RDONLY
from repro.workloads.webserver import (REQUEST_PARSE_CYCLES, WebServerConfig,
                                       build_docroot)

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.process import Task

SERVER_KINDS = ("select", "epoll", "cosy", "uring")

#: size of the fixed request region ("GET " + path + NUL must fit)
REQUEST_BYTES = 64


@dataclass
class HttpBenchConfig:
    """One bench scenario: ``nclients`` one-request keep-alive clients."""

    nclients: int = 100
    nfiles: int = 16
    avg_file_bytes: int = 4096
    #: clients connect in waves of this size; must not exceed ``backlog``
    wave: int = 128
    backlog: int = 128
    port: int = 80
    docroot: str = "/www"
    seed: int = 4242


@dataclass
class HttpBenchResult:
    """Serving-phase metrics for one (server kind, nclients) run."""

    kind: str
    nclients: int
    requests: int = 0
    bytes_served: int = 0
    elapsed: int = 0          # simulated cycles, serving phase only
    user_cycles: int = 0
    system_cycles: int = 0
    syscalls: int = 0         # boundary crossings, serving phase only
    digest: str = ""          # sha256 over every client's drained bytes
    nic: dict = field(default_factory=dict)

    @property
    def cycles_per_request(self) -> float:
        return self.elapsed / max(self.requests, 1)

    @property
    def syscalls_per_request(self) -> float:
        return self.syscalls / max(self.requests, 1)


def _request_for(path: str) -> bytes:
    req = b"GET " + path.encode() + b"\0"
    if len(req) > REQUEST_BYTES:
        raise ValueError(f"request for {path!r} exceeds {REQUEST_BYTES} bytes")
    return req


class _HttpServerBase:
    """Listener setup, connection bookkeeping and survival, and the
    user-level request path the select and epoll servers share."""

    def __init__(self, kernel: "Kernel", cfg: HttpBenchConfig):
        self.kernel = kernel
        self.cfg = cfg
        self.listen_fd = -1
        self.requests = 0
        self.bytes_served = 0
        #: failures survived: requests (their connections are reaped),
        #: accepts, and loop traps
        self.errors = 0
        self._conns: set[int] = set()     # accepted and not yet reaped

    def setup(self) -> None:
        sys = self.kernel.sys
        self.listen_fd = sys.socket(blocking=False)
        sys.bind(self.listen_fd, self.cfg.port)
        sys.listen(self.listen_fd, self.cfg.backlog)

    def serve_wave(self, n: int) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def pump(self) -> int:
        """Serve until idle, absorbing every failure: the keep-alive entry
        point of churn-tolerant serving.  Returns the requests served."""
        before = self.requests
        try:
            self._serve_until_idle()
        except Errno:
            self.errors += 1
        return self.requests - before

    def _serve_until_idle(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def _track(self, conn: int) -> None:
        self._conns.add(conn)

    def _reap(self, conn: int) -> None:
        """Drop a connection whose peer is gone or whose request failed."""
        self.kernel.sys.close(conn)
        self._conns.discard(conn)

    def live_conns(self) -> list[int]:
        return sorted(self._conns)

    def _server_fds(self) -> list[int]:
        """The server's own descriptors, closed after its connections."""
        return [self.listen_fd]

    def close(self) -> None:
        """Close every live connection, then the server's own fds."""
        sys = self.kernel.sys
        for fd in self.live_conns():
            try:
                sys.close(fd)
            except Errno:
                pass
        for fd in self._server_fds():
            sys.close(fd)

    def _accept_pending(self) -> int:
        """Drain the accept queue; returns backlog entries consumed."""
        sys = self.kernel.sys
        consumed = 0
        while True:
            try:
                conn = sys.accept(self.listen_fd)
            except Errno as exc:
                if exc.errno == EAGAIN:
                    break
                if exc.errno == EMFILE:
                    # the kernel tore the child down (accept-emfile path);
                    # the backlog entry is consumed, keep draining
                    consumed += 1
                    continue
                raise
            self._track(conn)
            consumed += 1
        return consumed

    def _serve_conn(self, conn: int) -> int:
        """One request off a readable connection, user-level style.

        Returns 1 when the request was served and 0 when the connection
        was reaped: the peer hung up or reset, the request line named no
        file, or the peer (or a fault storm) broke the transfer.
        """
        sys = self.kernel.sys
        try:
            req = sys.read(conn, REQUEST_BYTES)
        except Errno:
            self._reap(conn)
            return 0
        if not req:
            # readable with no data ⇒ EOF/HUP: the peer is gone
            self._reap(conn)
            return 0
        self.kernel.clock.charge(REQUEST_PARSE_CYCLES, Mode.USER)
        path = req[4:].split(b"\0", 1)[0].decode(errors="replace")
        try:
            fd = sys.open(path, O_RDONLY)
        except Errno:
            self.errors += 1      # truncated/garbled request line
            self._reap(conn)
            return 0
        try:
            self.bytes_served += sys.sendfile(conn, fd, 0, 1 << 30)
        except Errno:
            self.errors += 1      # peer hung up (or a fault storm) mid-send
            self._reap(conn)
            return 0
        finally:
            sys.close(fd)
        self.requests += 1
        return 1


class SelectHttpServer(_HttpServerBase):
    """select-per-request: every request rescans the whole interest set."""

    def __init__(self, kernel: "Kernel", cfg: HttpBenchConfig):
        super().__init__(kernel, cfg)
        self.fds: list[int] = []            # [listener] + all live conns
        self._index: dict[int, int] = {}    # fd -> position in self.fds

    def setup(self) -> None:
        super().setup()
        self.fds = [self.listen_fd]
        self._index = {self.listen_fd: 0}

    def _track(self, conn: int) -> None:
        self._index[conn] = len(self.fds)
        self.fds.append(conn)

    def _reap(self, conn: int) -> None:
        self.kernel.sys.close(conn)
        self.fds = [fd for fd in self.fds if fd != conn]
        self._index = {fd: i for i, fd in enumerate(self.fds)}

    def live_conns(self) -> list[int]:
        return self.fds[1:]

    def serve_wave(self, n: int) -> None:
        sys = self.kernel.sys
        served = 0
        pos = 0
        while served < n:
            # the classic loop: select over the whole set, walk the ready
            # fds it reported.  No per-connection registration syscalls —
            # select's small-N advantage — but every call rescans all N
            # descriptors, which is what sinks it at large N.
            ready = sys.select(self.fds, start=pos, limit=64)
            if not ready:
                raise RuntimeError("select found nothing with work pending")
            for fd in ready:
                if fd == self.listen_fd:
                    self._accept_pending()
                else:
                    served += self._serve_conn(fd)
            # resume after the last fd reported; if it was just reaped,
            # rescan from the listener
            pos = (self._index.get(ready[-1], -1) + 1) % len(self.fds)

    def _serve_until_idle(self) -> None:
        sys = self.kernel.sys
        while True:
            progressed = self._accept_pending() > 0
            for fd in sys.select(self.fds, start=0, limit=64):
                if fd != self.listen_fd:
                    self._serve_conn(fd)
                    progressed = True
            if not progressed:
                return


class EpollHttpServer(_HttpServerBase):
    """Event loop: readiness is registered once, reported O(ready).

    Reaping closes the connection *without* EPOLL_CTL_DEL on purpose:
    descriptor reuse across churn is exactly the stale-registration edge
    the epoll identity tracking has to survive.
    """

    def __init__(self, kernel: "Kernel", cfg: HttpBenchConfig):
        super().__init__(kernel, cfg)
        self.epfd = -1

    def setup(self) -> None:
        super().setup()
        sys = self.kernel.sys
        self.epfd = sys.epoll_create()
        sys.epoll_ctl(self.epfd, EPOLL_CTL_ADD, self.listen_fd, EPOLLIN)

    def _track(self, conn: int) -> None:
        self.kernel.sys.epoll_ctl(self.epfd, EPOLL_CTL_ADD, conn, EPOLLIN)
        super()._track(conn)

    def _server_fds(self) -> list[int]:
        return [self.epfd, self.listen_fd]

    def serve_wave(self, n: int) -> None:
        self._serve(n)

    def _serve_until_idle(self) -> None:
        self._serve(None)

    def _serve(self, n: int | None) -> None:
        """The event loop: serve ``n`` requests, or until idle if None."""
        sys = self.kernel.sys
        served = 0
        while n is None or served < n:
            events = sys.epoll_wait(self.epfd, maxevents=64, timeout=0)
            progressed = False
            for fd, _mask in events:
                if fd == self.listen_fd:
                    progressed = self._accept_pending() > 0 or progressed
                else:
                    served += self._serve_conn(fd)
                    progressed = True
            if not progressed:
                if n is None:
                    return
                raise RuntimeError("epoll found nothing with work pending")


class CosyHttpServer(_HttpServerBase):
    """The request loop as one in-kernel compound per wave of clients.

    ``accept → read → open → sendfile → close`` for all ``n`` queued
    connections runs inside a single ``cosy_exec`` trap; the request line
    lands in the shared buffer (kernel-side memcpy, no uaccess) and the
    path is read back out of it C-string-style by the ``open`` op.
    ``serve_wave`` leaves the connections open (keep-alive);
    ``serve_one`` serves one connection per compound and closes it.
    """

    #: compound slots of the served connection and file (see _compound)
    _SLOT_CONN, _SLOT_FD = 1, 2

    def __init__(self, kernel: "Kernel", cfg: HttpBenchConfig):
        super().__init__(kernel, cfg)
        self.ext: CosyKernelExtension | None = None
        self.shared: SharedBuffer | None = None
        self.req_off = 0
        #: (wave size, close_conn) -> compound bytes
        self._encoded: dict[tuple[int, bool], bytes] = {}

    def setup(self) -> None:
        super().setup()
        self.ext = CosyKernelExtension(self.kernel)
        self.shared = SharedBuffer(self.kernel, self.kernel.current, 4096)
        self.req_off = self.shared.alloc(REQUEST_BYTES)

    def _compound(self, n: int, close_conn: bool) -> bytes:
        key = (n, close_conn)
        encoded = self._encoded.get(key)
        if encoded is not None:
            return encoded
        b = CompoundBuilder()
        cnt = b.slot("n")
        conn = b.slot("conn")
        fd = b.slot("fd")
        sent = b.slot("sent")
        nread = b.slot("nread")
        rc = b.slot("rc")  # dump for close's result (dst defaults to slot 0)
        b.mov(cnt, Arg.lit(n))
        top = b.label("top")
        done = b.label("done")
        b.place(top)
        b.syscall("accept", Arg.lit(self.listen_fd), out=conn)
        b.syscall("read", Arg.slot(conn),
                  Arg.shared(self.req_off, REQUEST_BYTES),
                  Arg.lit(REQUEST_BYTES), out=nread)
        b.syscall("open", Arg.shared(self.req_off + 4, REQUEST_BYTES - 4),
                  Arg.lit(O_RDONLY), out=fd)
        b.syscall("sendfile", Arg.slot(conn), Arg.slot(fd),
                  Arg.lit(0), Arg.lit(1 << 30), out=sent)
        b.syscall("close", Arg.slot(fd), out=rc)
        if close_conn:
            b.syscall("close", Arg.slot(conn), out=rc)
        b.math("-", cnt, Arg.slot(cnt), Arg.lit(1))
        b.jz(Arg.slot(cnt), done)
        b.jmp(top)
        b.place(done)
        encoded = b.encode()
        self._encoded[key] = encoded
        return encoded

    def _execute(self, encoded: bytes) -> None:
        # user side forms (or reuses) the compound buffer
        self.kernel.clock.charge(
            int(len(encoded) * self.kernel.costs.user_touch_per_byte),
            Mode.USER)
        self.ext.execute(self.kernel.current, encoded, self.shared)

    def serve_wave(self, n: int) -> None:
        self._execute(self._compound(n, close_conn=False))
        self.requests += n

    def serve_one(self) -> int:
        """Serve exactly one queued connection and close it, absorbing
        every failure: the connection-per-request entry point of
        churn-tolerant serving.  Returns 1 when served, else 0."""
        try:
            self._execute(self._compound(1, close_conn=True))
        except CompoundFault as cf:
            # partial-failure cleanup: close whatever the compound had
            # open when the faulting op aborted it
            self.errors += 1
            if cf.op_name != "accept":
                sys = self.kernel.sys
                if cf.op_name in ("sendfile", "close"):
                    try:
                        sys.close(cf.slots[self._SLOT_FD])
                    except Errno:
                        pass
                try:
                    sys.close(cf.slots[self._SLOT_CONN])
                except Errno:
                    pass
            return 0
        except Errno:
            self.errors += 1      # the cosy_exec trap itself failed
            return 0
        self.requests += 1
        return 1


class UringHttpServer(_HttpServerBase):
    """The request loop as linked SQE chains on async syscall rings.

    Per connection (fed by one armed multishot accept) the server
    submits ``RECV → OPENAT → SENDFILE → CLOSE`` as an ``F_LINK`` chain:
    the request lands in the connection's slot of the shared data area,
    OPENAT reads the path straight out of it (kernel-side, zero copies,
    no user-space parse), SENDFILE streams the file into the connection
    through the fixed-file slot the OPENAT filled, and CLOSE drops it.
    The chain tail runs synchronously once the RECV fires, so a single
    fixed-file slot serves every in-flight request.

    Under churn negative CQEs are routine: RECV completes 0 /
    ``-ECONNRESET`` when the peer hung up, OPENAT fails on a garbled
    request line, SENDFILE dies mid-transfer, and each failed link
    cancels the rest of its chain with ``-ECANCELED``.  ``pump`` reaps the
    connection and recycles its request buffer on every failure, and a
    completed chain re-arms the next request's chain on the same
    connection (keep-alive).
    """

    #: user_data low bits tag the op; high bits carry the connection fd
    TAG_ACCEPT, TAG_RECV, TAG_OPEN, TAG_SENDFILE, TAG_CLOSE = range(5)

    def __init__(self, kernel: "Kernel", cfg: HttpBenchConfig):
        super().__init__(kernel, cfg)
        #: kernel-side submission poller on SMP kernels, where it has its
        #: own runqueue to live on; enter mode on uniprocessors, where
        #: polling would steal the very CPU the server needs
        self.sqpoll = kernel.ncpus > 1
        self.ring_fd = -1
        self.q: UringQueue | None = None
        #: recycled request buffers: a chain's buffer is live only from
        #: prep until its CLOSE completes, so the working set is bounded
        #: by in-flight chains (≤ SQ size), not by client count — the
        #: same few hot pages per wave no matter how many clients, like
        #: Cosy's single request region.
        self._pool: list[int] = []
        self._bufs: dict[int, int] = {}       # conn fd -> data-area offset

    def setup(self) -> None:
        super().setup()
        sys = self.kernel.sys
        if self.kernel.uring_layer is None:
            UringLayer(self.kernel)
        sq = 4 * self.cfg.wave + 8
        data = (2 * self.cfg.wave + 16) * REQUEST_BYTES
        self.ring_fd = sys.uring_setup(sq, cq_entries=2 * sq, files=4,
                                       data_bytes=data, sqpoll=self.sqpoll,
                                       sq_idle=64)
        self.q = UringQueue(self.kernel, self.ring_fd)
        # one armed multishot accept feeds connections for the whole run;
        # this setup-time enter is the last *required* trap in sqpoll mode
        self.q.prep(Sqe(OP_ACCEPT, fd=self.listen_fd, flags=F_MULTISHOT,
                        user_data=self.TAG_ACCEPT))
        self.q.enter()

    def _track(self, conn: int) -> None:
        super()._track(conn)
        self._chain(conn)

    def _reap(self, conn: int) -> None:
        if conn not in self._conns:
            return
        self._conns.discard(conn)
        self._recycle(conn)
        try:
            self.kernel.sys.close(conn)
        except Errno:  # pragma: no cover - double close is a server bug
            pass

    def _recycle(self, conn: int) -> None:
        buf = self._bufs.pop(conn, None)
        if buf is not None:
            self._pool.append(buf)

    def _server_fds(self) -> list[int]:
        return [self.ring_fd, self.listen_fd]

    def _chain(self, conn: int) -> None:
        """Queue one request chain for an accepted connection."""
        q = self.q
        while q.sq_space() < 4:       # whole chains only: never split one
            q.submit()
        buf = self._bufs.get(conn)
        if buf is None:
            buf = self._pool.pop() if self._pool else q.alloc(REQUEST_BYTES)
            self._bufs[conn] = buf
        ud = conn << 3
        q.prep(Sqe(OP_RECV, flags=F_LINK, fd=conn, addr=buf,
                   len=REQUEST_BYTES, user_data=ud | self.TAG_RECV))
        q.prep(Sqe(OP_OPENAT, flags=F_LINK, fd=0, off=O_RDONLY,
                   addr=buf + 4, len=REQUEST_BYTES - 4,
                   user_data=ud | self.TAG_OPEN))
        q.prep(Sqe(OP_SENDFILE, flags=F_LINK | F_FIXED_FILE, fd=conn,
                   addr=0, off=0, len=1 << 30,
                   user_data=ud | self.TAG_SENDFILE))
        q.prep(Sqe(OP_CLOSE, flags=F_FIXED_FILE, fd=0,
                   user_data=ud | self.TAG_CLOSE))

    def serve_wave(self, n: int) -> None:
        q = self.q
        served = 0
        while served < n:
            cqes = q.harvest(maxevents=64)
            if not cqes:
                # nothing harvestable without kernel help: flush armed
                # ops / pump the NIC in one trap (sqpoll steady state
                # never gets here — harvest runs the poller inline)
                q.enter(min_complete=1)
                continue
            prepped = False
            for cqe in cqes:
                tag = cqe.user_data & 7
                if cqe.res < 0:
                    raise RuntimeError(
                        f"uring op tag={tag} failed with res={cqe.res}")
                if tag == self.TAG_ACCEPT:
                    self._track(cqe.res)
                    prepped = True
                elif tag == self.TAG_SENDFILE:
                    self.bytes_served += cqe.res
                    self.requests += 1
                    served += 1
                elif tag == self.TAG_CLOSE:
                    # one request per connection: no chain to re-arm
                    self._recycle(cqe.user_data >> 3)
            if prepped:
                q.submit()

    def _serve_until_idle(self) -> None:
        q = self.q
        while True:
            try:
                # one trap flushes armed accepts/recvs, the CQ-overflow
                # backlog, and any chains _complete re-armed last round
                q.enter()
            except Errno:
                self.errors += 1
            cqes = q.harvest(maxevents=64)
            if not cqes:
                return
            for cqe in cqes:
                self._complete(cqe)

    def _complete(self, cqe) -> None:
        """Act on one CQE of the keep-alive loop, surviving failures."""
        tag = cqe.user_data & 7
        conn = cqe.user_data >> 3
        if tag == self.TAG_ACCEPT:
            if cqe.res < 0:
                # EMFILE: the kernel tore the child down (accept-emfile
                # path); the multishot accept stays armed
                self.errors += 1
            else:
                self._track(cqe.res)
        elif tag == self.TAG_RECV:
            if cqe.res <= 0:
                # EOF, reset, or an injected fault; the chain's rest
                # arrives as -ECANCELED CQEs right behind this one
                self._reap(conn)
        elif tag == self.TAG_OPEN:
            if cqe.res < 0 and cqe.res != -ECANCELED:
                self.errors += 1      # truncated/garbled request line
                self._reap(conn)
        elif tag == self.TAG_SENDFILE:
            if cqe.res >= 0:
                self.bytes_served += cqe.res
                self.requests += 1
            elif cqe.res != -ECANCELED:
                self.errors += 1      # peer hung up (or fault) mid-send
                self._reap(conn)
        # TAG_CLOSE: the chain completed (or was cancelled after a reap);
        # a surviving connection gets the next request's chain armed
        elif cqe.res != -ECANCELED and conn in self._conns:
            self._chain(conn)


_SERVERS = {
    "select": SelectHttpServer,
    "epoll": EpollHttpServer,
    "cosy": CosyHttpServer,
    "uring": UringHttpServer,
}


def _docroot(kernel: "Kernel", cfg: HttpBenchConfig) -> list[str]:
    """Build the bench's file tree; returns the paths clients ask for."""
    return build_docroot(kernel, WebServerConfig(
        nfiles=cfg.nfiles, avg_file_bytes=cfg.avg_file_bytes,
        docroot=cfg.docroot, seed=cfg.seed))


def _waves(kernel: "Kernel", cfg: HttpBenchConfig, httpd: "Task",
           clients: "Task", paths: list[str], client_fds: list[int],
           stride: int = 1, shard: int = 0):
    """Launch ``cfg.nclients`` clients in waves of ``cfg.wave``.

    Each client connects to ``cfg.port`` and sends one request; client
    *i* asks for ``paths[(i * stride + shard) % len(paths)]``, and its fd
    is appended to ``client_fds``.  Yields each wave's size with the
    server task ``httpd`` running, ready to serve the wave.
    """
    sys = kernel.sys
    for first in range(0, cfg.nclients, cfg.wave):
        size = min(cfg.wave, cfg.nclients - first)
        kernel.sched.switch_to(clients)
        for i in range(first, first + size):
            fd = sys.socket(blocking=False)
            sys.connect(fd, cfg.port)
            sys.write(fd, _request_for(
                paths[(i * stride + shard) % len(paths)]))
            client_fds.append(fd)
        kernel.sched.switch_to(httpd)
        yield size


def _drain(kernel: "Kernel", clients: "Task", client_fds: list[int],
           digest) -> int:
    """Read every client's response into ``digest``, length-prefixed;
    returns the bytes read.  This is the differential evidence: what did
    each client actually receive?"""
    sys = kernel.sys
    kernel.sched.switch_to(clients)
    total = 0
    for fd in client_fds:
        body = bytearray()
        while True:
            chunk = sys.read(fd, 65536)
            if not chunk:
                break
            body += chunk
        digest.update(len(body).to_bytes(8, "little"))
        digest.update(bytes(body))
        total += len(body)
    return total


def _nic_stats(nic) -> dict:
    return {
        "tx_packets": nic.tx_packets,
        "rx_packets": nic.rx_packets,
        "tx_bytes": nic.tx_bytes,
        "interrupts": nic.interrupts,
        "dropped": nic.dropped,
    }


def run_http_bench(kernel: "Kernel", kind: str,
                   cfg: HttpBenchConfig) -> HttpBenchResult:
    """Run one server kind against ``cfg.nclients`` simulated clients.

    ``kernel`` must be freshly booted with a mounted root and one running
    task (which becomes the server).  Clients run as a second task and
    connect in waves of ``cfg.wave``; only the serving phase is measured,
    so the client-side driving cost (identical across kinds) stays out of
    the comparison.  Returns serving-phase metrics plus a digest over the
    bytes every client received, for differential comparison.
    """
    if kind not in _SERVERS:
        raise ValueError(f"unknown server kind {kind!r}")
    httpd = kernel.current
    if httpd is None:
        raise RuntimeError("run_http_bench needs a running task")
    paths = _docroot(kernel, cfg)
    server = _SERVERS[kind](kernel, cfg)
    server.setup()
    clients = kernel.spawn("clients")
    # both sides hold O(nclients) descriptors; lift the soft limit
    httpd.rlimit_nofile = max(httpd.rlimit_nofile, cfg.nclients + 64)
    clients.rlimit_nofile = max(clients.rlimit_nofile, cfg.nclients + 64)

    result = HttpBenchResult(kind=kind, nclients=cfg.nclients)
    client_fds: list[int] = []
    for wave in _waves(kernel, cfg, httpd, clients, paths, client_fds):
        with kernel.measure() as m:
            server.serve_wave(wave)
        result.elapsed += m.delta.elapsed
        result.user_cycles += m.delta.user
        result.system_cycles += m.delta.system
        result.syscalls += m.syscalls

    digest = hashlib.sha256()
    result.bytes_served = _drain(kernel, clients, client_fds, digest)
    result.requests = server.requests
    result.digest = digest.hexdigest()
    nic = kernel.socket_layer.nic
    result.nic = _nic_stats(nic)
    return result


@dataclass
class SmpHttpBenchResult:
    """Aggregate metrics for one sharded multi-core serving run."""

    kind: str
    nclients: int
    cpus: int
    requests: int = 0
    bytes_served: int = 0
    #: serving-phase cycles per CPU; the *wall* elapsed is their max
    #: (frontier rule, docs/SMP.md) and the serialized equivalent their sum.
    per_cpu_elapsed: list = field(default_factory=list)
    wall_elapsed: int = 0
    total_elapsed: int = 0
    syscalls: int = 0
    digest: str = ""          # sha256 over every shard's drained bytes
    shard_requests: list = field(default_factory=list)
    nic: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Aggregate simulated throughput: requests per wall cycle."""
        return self.requests / max(self.wall_elapsed, 1)

    @property
    def speedup(self) -> float:
        """Parallel speedup over running the same work on one CPU."""
        return self.total_elapsed / max(self.wall_elapsed, 1)


def run_http_bench_smp(kernel: "Kernel", kind: str,
                       cfg: HttpBenchConfig) -> SmpHttpBenchResult:
    """Shard ``cfg.nclients`` across every CPU of an SMP kernel.

    CPU *c* gets its own server task and client task (both pinned to
    *c*) on port ``cfg.port + c``; the NIC's RSS steering keeps each
    listener's SYNs on its own RX queue.  Shards execute one after
    another in the cooperative simulation, but their costs land on their
    own CPUs' local clocks — so the *wall* elapsed of the whole run is
    the maximum per-CPU serving time (the frontier rule), and aggregate
    throughput is total requests over that wall time.  The kernel's
    ``SocketLayer`` should be built with ``queues=kernel.ncpus``.
    """
    if kind not in _SERVERS:
        raise ValueError(f"unknown server kind {kind!r}")
    ncpus = kernel.ncpus
    if ncpus < 2:
        raise ValueError("run_http_bench_smp needs an SMP kernel (cpus>1)")
    if kernel.current is None:
        raise RuntimeError("run_http_bench_smp needs a running task")
    sys = kernel.sys
    clock = kernel.clock
    paths = _docroot(kernel, cfg)
    base, rem = divmod(cfg.nclients, ncpus)
    sizes = [base + (1 if c < rem else 0) for c in range(ncpus)]

    result = SmpHttpBenchResult(kind=kind, nclients=cfg.nclients, cpus=ncpus)
    serving = [0] * ncpus
    digest = hashlib.sha256()
    for c in range(ncpus):
        size = sizes[c]
        if size == 0:
            result.shard_requests.append(0)
            continue
        shard_cfg = replace(cfg, nclients=size, port=cfg.port + c)
        httpd = kernel.spawn(f"httpd/{c}", cpu=c)
        clients = kernel.spawn(f"clients/{c}", cpu=c)
        httpd.rlimit_nofile = max(httpd.rlimit_nofile, size + 64)
        clients.rlimit_nofile = max(clients.rlimit_nofile, size + 64)
        kernel.sched.switch_to(httpd)
        server = _SERVERS[kind](kernel, shard_cfg)
        server.setup()

        client_fds: list[int] = []
        for wave in _waves(kernel, shard_cfg, httpd, clients, paths,
                           client_fds, stride=ncpus, shard=c):
            # The serving phase may spill onto other CPUs (RSS steers
            # established flows by socket ino), so measure every CPU's
            # local delta, not just shard c's.
            before = [clock.local_now(x) for x in range(ncpus)]
            sys0 = sys.total_syscalls
            server.serve_wave(wave)
            for x in range(ncpus):
                serving[x] += clock.local_now(x) - before[x]
            result.syscalls += sys.total_syscalls - sys0

        result.bytes_served += _drain(kernel, clients, client_fds, digest)
        result.requests += server.requests
        result.shard_requests.append(server.requests)

    result.digest = digest.hexdigest()
    result.per_cpu_elapsed = serving
    result.wall_elapsed = max(serving)
    result.total_elapsed = sum(serving)
    nic = kernel.socket_layer.nic
    result.nic = {
        **_nic_stats(nic),
        "rx_queues": nic.nqueues,
        "lock_contentions": nic.lock.contentions,
        "lock_contention_cycles": nic.lock.contention_cycles,
    }
    return result
