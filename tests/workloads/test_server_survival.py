"""Churn survival of the HTTP servers, one failure branch at a time.

The overload scenarios reach these paths only through seeded churn and
fault storms.  Here each one is driven directly through the servers'
keep-alive entry point, ``pump()`` (``serve_one()`` for the Cosy
compound):

* a request naming a missing file reaps that connection and counts one
  error, while the other client on the same server is still served;
* ``accept`` against a full fd table (EMFILE) tears the surplus children
  down without failing the loop, and the server accepts again once the
  limit allows it;
* a failing ``uring_enter`` trap is counted, and the ring server keeps
  harvesting what its kernel-side poller completed;
* a Cosy compound that faults closes what it had open.
"""

import pytest

from repro.errors import ECONNRESET, EINTR, Errno, raise_errno
from repro.kernel import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.net import SocketLayer
from repro.workloads.httpserver import (CosyHttpServer, EpollHttpServer,
                                        HttpBenchConfig, SelectHttpServer,
                                        UringHttpServer, _request_for)
from repro.workloads.webserver import WebServerConfig, build_docroot

KEEPALIVE = {"select": SelectHttpServer, "epoll": EpollHttpServer,
             "uring": UringHttpServer}
MISSING = _request_for("/www/missing")


class Rig:
    """A kernel with a docroot, one server task and one client task."""

    def __init__(self, cls, cpus: int = 1):
        k = Kernel(cpus=cpus)
        k.mount_root(RamfsSuperBlock(k))
        self.httpd = k.spawn("httpd")
        SocketLayer(k)
        self.cfg = HttpBenchConfig(nfiles=4, avg_file_bytes=512, wave=8)
        self.paths = build_docroot(k, WebServerConfig(
            nfiles=4, avg_file_bytes=512, docroot=self.cfg.docroot))
        k.sched.switch_to(self.httpd)
        self.server = cls(k, self.cfg)
        self.server.setup()
        self.clients = k.spawn("clients")
        self.k = k
        self.sys = k.sys

    def connect(self, request: bytes | None = None) -> int:
        self.k.sched.switch_to(self.clients)
        fd = self.sys.socket(blocking=False)
        self.sys.connect(fd, self.cfg.port)
        if request is not None:
            self.sys.write(fd, request)
        return fd

    def as_server(self):
        self.k.sched.switch_to(self.httpd)
        return self.server

    def response(self, fd: int) -> bytes:
        self.k.sched.switch_to(self.clients)
        body = b""
        while chunk := self.sys.read(fd, 65536):
            body += chunk
        return body

    def at_eof(self, fd: int) -> bool:
        """The server hung up: ``fd`` polls readable yet reads nothing."""
        self.k.sched.switch_to(self.clients)
        return (self.sys.select([fd], limit=1) == [fd]
                and self.sys.read(fd, 64) == b"")

    def file(self, path: str) -> bytes:
        self.k.sched.switch_to(self.clients)
        return self.sys.open_read_close(path)


@pytest.mark.parametrize("kind", sorted(KEEPALIVE))
def test_missing_file_reaps_only_that_connection(kind):
    rig = Rig(KEEPALIVE[kind])
    good = rig.connect(_request_for(rig.paths[0]))
    bad = rig.connect(MISSING)

    server = rig.as_server()
    assert server.pump() == 1
    assert server.errors == 1
    assert server.requests == 1
    assert len(server.live_conns()) == 1

    assert rig.at_eof(bad)
    assert rig.response(good) == rig.file(rig.paths[0])


@pytest.mark.parametrize("kind", sorted(KEEPALIVE))
def test_accept_emfile_is_survived(kind):
    rig = Rig(KEEPALIVE[kind])
    rig.httpd.rlimit_nofile = len(rig.httpd.fds) + 2
    fds = [rig.connect() for _ in range(4)]

    server = rig.as_server()
    assert server.pump() == 0
    assert rig.k.metrics.snapshot()["net.accept_emfile"] == 2
    assert len(server.live_conns()) == 2
    rig.k.sched.switch_to(rig.clients)
    for fd in fds[2:]:
        with pytest.raises(Errno) as exc:
            rig.sys.read(fd, 16)
        assert exc.value.errno == ECONNRESET

    # once descriptors free up and the limit allows, accepting resumes
    for fd in fds[:2]:
        rig.sys.close(fd)
    rig.httpd.rlimit_nofile = 64
    late = rig.connect(_request_for(rig.paths[1]))
    server = rig.as_server()
    assert server.pump() == 1
    assert len(server.live_conns()) == 1
    assert rig.response(late) == rig.file(rig.paths[1])
    # uring sees each torn-down child as a failed ACCEPT completion; the
    # readiness servers see nothing at all
    assert server.errors == (2 if kind == "uring" else 0)


def test_uring_pump_survives_a_failing_enter(monkeypatch):
    # on two CPUs the ring runs sqpoll: the poller, not the trap, moves
    # the request, so the loop must keep harvesting past a failed trap
    rig = Rig(UringHttpServer, cpus=2)
    good = rig.connect(_request_for(rig.paths[3]))
    server = rig.as_server()
    enter = server.q.enter

    def interrupted(*args, **kwargs):
        monkeypatch.setattr(server.q, "enter", enter)
        raise_errno(EINTR, "interrupted trap")

    monkeypatch.setattr(server.q, "enter", interrupted)
    assert server.pump() == 1
    assert server.errors == 1
    assert rig.response(good) == rig.file(rig.paths[3])


def test_cosy_compound_fault_closes_the_connection():
    rig = Rig(CosyHttpServer)
    bad = rig.connect(MISSING)
    nfds = len(rig.httpd.fds)

    server = rig.as_server()
    assert server.serve_one() == 0
    assert server.errors == 1
    assert len(rig.httpd.fds) == nfds
    assert rig.at_eof(bad)

    good = rig.connect(_request_for(rig.paths[2]))
    server = rig.as_server()
    assert server.serve_one() == 1
    assert len(rig.httpd.fds) == nfds
    assert rig.response(good) == rig.file(rig.paths[2])
    assert rig.at_eof(good)
