"""The benchmark's workloads, one round at a time.

A round boots a fresh simulated kernel, sets the workload up, makes one
measured call into the system (``run_http_bench``, ``PostMark.run`` or
``ScenarioRunner.run``) and then checks what the call produced.  Every
input comes from the round's seed, so a round is a pure function of
(workload, seed, size): its simulated results repeat bit for bit.

With a :class:`~layers.LayerTracer` the same round runs traced: the
kernel's cycle attribution is enabled right after boot, and the tracer's
window covers the simulated work the per-layer metrics describe (the
serving phase on the web workloads, the measured call elsewhere).
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from contextlib import nullcontext
from pathlib import Path

from repro.kernel import Kernel
from repro.kernel.fs import Ext2SuperBlock, RamfsSuperBlock
from repro.kernel.fs.disk import Disk
from repro.kernel.net import SocketLayer
from repro.kernel.vfs.file import O_RDONLY
from repro.safety.kgcc.modulefs import KgccFsSuperBlock
from repro.workloads import (CosyHttpServer, EpollHttpServer, HttpBenchConfig,
                             PostMark, PostMarkConfig, ScenarioConfig,
                             ScenarioRunner, generate_schedule, run_http_bench)

from hostclock import SteadyClock
from layers import DRIVER_LAYER, SIM_CATEGORIES, LayerTracer


def _fingerprint(obj) -> str:
    """Short digest of a JSON-able record of simulated outputs."""
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class _Round:
    """Boot, set up, run once, check.  Subclasses fill in the workload."""

    cpus = 1

    def __init__(self, seed: int, size: dict, lt: LayerTracer | None):
        self.seed = seed
        self.size = size
        self.lt = lt
        self.errors: list[str] = []

    def boot(self) -> Kernel:
        k = Kernel(cpus=self.cpus)
        if self.lt is not None:
            k.trace.enable()
            self.lt.kernel = k
        k.mount_root(RamfsSuperBlock(k))
        self.kernel = k
        return k

    def window(self):
        return self.lt.window() if self.lt is not None else nullcontext()

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.errors.append(what)

    def setup(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def run(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def finish(self) -> dict:  # pragma: no cover - abstract
        """Check the run's outputs and return :meth:`record`'s dict."""
        raise NotImplementedError

    def record(self, ops: int, failed: int, cycles: int, sim,
               hist: dict | None = None, refused: int = 0,
               **extra) -> dict:
        """The round's simulated results: ``ops`` were attempted, of which
        ``failed`` went wrong and ``refused`` were turned away as the
        workload intends; ``cycles`` is the numerator of
        ``sim_cycles_per_op``, ``sim`` a fingerprint of every simulated
        output, ``hist`` histogram snapshots for the per-layer metrics."""
        hists = {"sched.delay": self.kernel.metrics.snapshot()
                 .get("sched.delay", {}), **(hist or {})}
        return {"ops": ops, "failed": failed, "refused": refused,
                "cycles": cycles, "sim": _fingerprint(sim), "hist": hists,
                **extra}


class WebRound(_Round):
    """Keep-alive clients in closed waves against one HTTP server kind."""

    servers = {"epoll": EpollHttpServer, "cosy": CosyHttpServer}

    def __init__(self, kind: str, *args):
        super().__init__(*args)
        self.kind = kind
        self.cfg = HttpBenchConfig(nclients=self.size["nclients"],
                                   seed=self.seed)

    def setup(self) -> None:
        k = self.boot()
        k.spawn("bench")
        SocketLayer(k)
        if self.lt is not None:
            self._trace_waves(self.servers[self.kind])

    def _trace_waves(self, cls) -> None:
        """The serving loop is the window; each wave is one op."""
        lt = self.lt
        serve = lt.timed(DRIVER_LAYER, f"{cls.__name__}.serve_wave",
                         cls.serve_wave)

        def serve_wave(server, n):
            with lt.window():
                serve(server, n)
            lt.op += 1

        lt.patch(cls, "serve_wave", serve_wave)

    def run(self) -> None:
        self.result = run_http_bench(self.kernel, self.kind, self.cfg)

    def _expected_digest(self) -> str:
        """What every client should have received: the file it asked
        for, read back through the kernel after the run."""
        sys = self.kernel.sys
        fd = sys.open(self.cfg.docroot, O_RDONLY)
        names = sorted(e.name for e in sys.getdents(fd)
                       if e.name not in (".", ".."))
        sys.close(fd)
        bodies = [sys.open_read_close(f"{self.cfg.docroot}/{n}")
                  for n in names]
        digest = hashlib.sha256()
        for i in range(self.cfg.nclients):
            body = bodies[i % len(bodies)]
            digest.update(len(body).to_bytes(8, "little"))
            digest.update(body)
        return digest.hexdigest()

    def finish(self) -> dict:
        r = self.result
        n = self.cfg.nclients
        self.check(r.requests == n, f"{n - r.requests} requests unserved")
        self.check(r.nic["dropped"] == 0,
                   f"nic dropped {r.nic['dropped']} packets")
        self.check(r.digest == self._expected_digest(),
                   "responses differ from the files requested")
        if self.lt is not None:
            self.check(self.lt.window_totals["cycles"] == r.elapsed,
                       "traced window is not the serving phase")
        return self.record(n, n - r.requests, r.elapsed,
                           [r.elapsed, r.user_cycles, r.system_cycles,
                            r.syscalls, r.digest, r.nic], digest=r.digest)


class PostmarkRound(_Round):
    """PostMark on a KGCC-checked filesystem over a cache-starved ext2."""

    def setup(self) -> None:
        k = self.boot()
        k.spawn("bench")
        k.sys.mkdir("/mnt")
        lower = Ext2SuperBlock(k, Disk(k, nblocks=1 << 19), name="lower",
                               cache_blocks=self.size["cache_blocks"])
        sb = KgccFsSuperBlock(k, lower, checked=True)
        k.vfs.mount("/mnt", sb)
        self.runtime = sb.engine.runtime
        if self.lt is not None:
            self.lt.counters = lambda: {
                "kgcc.checks": self.runtime.checks_executed,
                "kgcc.check_failures": self.runtime.check_failures}
        self.cfg = PostMarkConfig(nfiles=self.size["nfiles"],
                                  transactions=self.size["transactions"],
                                  workdir="/mnt/postmark", seed=self.seed)

    def run(self) -> None:
        clock = self.kernel.clock
        start = clock.now
        with self.window():
            self.result = PostMark(self.kernel, self.cfg).run()
        self.cycles = clock.now - start

    def finish(self) -> dict:
        r = self.result
        rt = self.runtime
        self.check(rt.check_failures == 0,
                   f"{rt.check_failures} KGCC check failures")
        self.check(r.files_created == r.files_deleted,
                   f"{r.files_created - r.files_deleted} files left behind")
        return self.record(r.transactions, 0, self.cycles,
                           [vars(r), rt.checks_executed, self.cycles])


class TenantsRound(_Round):
    """The default nine-tenant population sharing a 4-CPU kernel.

    The listen backlog is small enough that herds of connects overflow
    it: those connections are refused with an RST, and requests on them
    are refused too.  Refusals are what this workload tests, not
    failures; a request lost any other way (a reset) is a failure."""

    cpus = 4
    backlog = 4

    def setup(self) -> None:
        k = self.boot()
        k.spawn("driver")
        self.cfg = ScenarioConfig(
            seed=self.seed, cpus=self.cpus, events=self.size["events"],
            churn=0.3, abort_prob=0.25, backlog=self.backlog, max_conns=12)
        self.runner = ScenarioRunner(self.cfg, kernel=k)
        if self.lt is not None:
            # an op here is one schedule event, far smaller than a wave
            self.lt.record_ops = 100

    def run(self) -> None:
        clock = self.kernel.clock
        wall = clock.wall_now
        if self.lt is None:
            self.result = self.runner.run()
        else:
            with self.window():
                self.result = self.runner.run(self._numbered(
                    generate_schedule(self.cfg)))
        self.wall_cycles = clock.wall_now - wall

    def _numbered(self, schedule):
        """Yield the schedule, making each event's ordinal the op id."""
        for i, ev in enumerate(schedule):
            self.lt.op = i
            yield ev

    def finish(self) -> dict:
        res = self.result
        slos = res.report.tenants
        requests = sum(s.requests for s in slos.values())
        completed = sum(s.completed for s in slos.values())
        resets = sum(s.resets for s in slos.values())
        net = res.report.net
        self.check(res.report.leaked_sockets == 0,
                   f"{res.report.leaked_sockets} sockets leaked")
        self.check(res.sockfs_inodes == 0,
                   f"{res.sockfs_inodes} sockfs inodes left")
        self.check(resets == 0, f"{resets} requests lost to resets")
        self.check(net["refused"] == net["backlog_overflows"],
                   f"{net['refused'] - net['backlog_overflows']} connections "
                   "refused without a full backlog")
        hist = {f"tenant:{name}": s.latency.snapshot()
                for name, s in slos.items() if s.kind.startswith("http-")}
        return self.record(requests, resets, self.wall_cycles,
                           [res.report.to_dict(), res.clock,
                            self.wall_cycles], hist,
                           refused=requests - completed - resets)


ROUNDS = {
    "web-epoll": lambda *a: WebRound("epoll", *a),
    "web-cosy": lambda *a: WebRound("cosy", *a),
    "kgcc-postmark": PostmarkRound,
    "tenants-smp": TenantsRound,
}


def run_round(workload: str, seed: int, size: dict, traced: bool,
              trace_out: str | None = None,
              clock: SteadyClock | None = None,
              t0: float | None = None) -> dict:
    """One round; returns its record (see ``run.py`` for the fields).

    ``clock`` is a started :class:`~hostclock.SteadyClock` and ``t0`` the
    ``perf_counter`` time set-up began; the child passes both from its
    first lines, before ``repro`` was imported."""
    own_clock = clock is None
    if own_clock:
        clock = SteadyClock()
        clock.start()
    if t0 is None:
        t0 = time.perf_counter()
    lt = LayerTracer() if traced else None
    if lt is not None:
        lt.install()
    try:
        rnd = ROUNDS[workload](seed, size, lt)
        rnd.setup()
        t1 = time.perf_counter()
        if lt is None:
            rnd.run()
        else:
            lt.timed(DRIVER_LAYER, "measure", rnd.run)()
        t2 = time.perf_counter()
    finally:
        if lt is not None:
            lt.close()
        if own_clock:
            clock.stop()
    out = rnd.finish()
    if lt is not None:
        _check_window(rnd, lt)
        out["layers"] = {"self_ns": dict(lt.self_ns),
                         "calls": dict(lt.calls),
                         "window": dict(lt.window_totals)}
        if trace_out:
            lt.write_chrome_trace(Path(trace_out))
    out.update(workload=workload, seed=seed, traced=traced,
               setup_s=clock.seconds(t0, t1), host_s=clock.seconds(t1, t2),
               setup_wall_s=t1 - t0, host_wall_s=t2 - t1, errors=rnd.errors,
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               / 1024)
    return out


def _check_window(rnd: _Round, lt: LayerTracer) -> None:
    """The attribution must cover every cycle, and the window's per-layer
    categories must add up to exactly the cycles the window spans."""
    if not rnd.kernel.trace.attribution().complete:
        rnd.errors.append("cycle attribution is not complete")
    window = lt.window_totals
    cats = {k[4:]: v for k, v in window.items() if k.startswith("cat:") and v}
    unknown = sorted(set(cats) - set(SIM_CATEGORIES))
    rnd.check(not unknown, f"cycles in unmapped categories {unknown}")
    rnd.check(sum(cats.values()) == window["cycles"],
              f"layer cycles {sum(cats.values())} != window "
              f"{window['cycles']}")
