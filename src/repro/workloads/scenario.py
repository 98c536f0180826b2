"""Multi-tenant overload scenarios: the survival suite behind BENCH_SCALE.

Every benchmark before this one is a fair-weather, single-workload run.
The paper's claim — in-kernel execution pays off because boundary
crossings dominate — matters most when it is *hard* to keep: hundreds of
simulated processes from tenants of different trust tiers sharing one
kernel, heavy-tailed request sizes and arrivals, connection churn,
listen backlogs overflowing, and fault-injection storms firing mid-load.
This module generates and executes those runs:

* :func:`generate_schedule` — a **seeded, deterministic** event schedule:
  Zipf-popular file requests over Pareto inter-arrivals, connection
  open/close/abort churn for keep-alive tenants, batch ticks for the
  file-system/DB tenants, and fault-storm on/off markers.  Every OPEN is
  paired with exactly one CLOSE or ABORT and requests only target live
  connections — properties ``tests/property/test_prop_scenario.py``
  checks across random seeds.
* :class:`ScenarioRunner` — executes a schedule on a fresh kernel: one
  server task per HTTP tenant, running the server classes the benches
  measure (:mod:`repro.workloads.httpserver`: select / epoll / Cosy
  compound / uring rings) through their churn-tolerant entry points,
  batch tasks for PostMark / compile / record-store tenants, trust-tier
  wiring for the Cosy tenants (load-time-verified / warmup-promoted /
  pinned-isolated extensions sharing the kernel), and per-tenant SLO
  accounting into :mod:`repro.analysis.slo` histograms.  The runner only
  schedules and measures; surviving EOF, resets and fd exhaustion is the
  servers' job.

Two runs with the same :class:`ScenarioConfig` produce bit-identical
clocks, metrics, and SLO reports (``tests/workloads/
test_scenario_determinism.py``); ``benchmarks/bench_scale.py`` turns the
reports into the BENCH_SCALE.json trajectory.  See docs/SCENARIOS.md.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.slo import SloReport, TenantSlo
from repro.core.cosy import (CosyGCC, CosyKernelExtension, CosyLib,
                             CosyProtection, TrustManager)
from repro.errors import ECONNREFUSED, Errno
from repro.kernel.core import Kernel
from repro.kernel.fs import RamfsSuperBlock
from repro.kernel.net import SocketLayer
from repro.safety.monitor import EventDispatcher, SocketMonitor
from repro.safety.verifier import LoadTimeVerifier
from repro.workloads.compilebench import CompileBench, CompileBenchConfig
from repro.workloads.dbapp import (RECORD_SIZE, CosyRecordStore,
                                   DBWorkloadConfig, build_database)
from repro.workloads.httpserver import _SERVERS, HttpBenchConfig, _request_for
from repro.workloads.postmark import PostMark, PostMarkConfig
from repro.workloads.webserver import WebServerConfig, build_docroot

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.process import Task

__all__ = [
    "TrustTier", "TenantSpec", "FaultStorm", "ScenarioConfig",
    "ScheduleEvent", "generate_schedule", "ScenarioRunner",
    "ScenarioResult", "run_scenario", "default_tenants",
]

#: tenant kinds the generator knows how to schedule
HTTP_KINDS = ("http-select", "http-epoll", "http-cosy", "http-uring")
BATCH_KINDS = ("postmark", "compile", "dbapp")
#: the keep-alive serving strategies ``ScenarioConfig.io_model`` can
#: force (cosy is excluded: its connection-per-request flow changes the
#: *schedule*, not just the serving loop)
_KEEPALIVE_KINDS = ("http-select", "http-epoll", "http-uring")


class TrustTier(enum.Enum):
    """How much the kernel trusts a tenant's in-kernel code (§2.4).

    PROVEN tenants carry extensions the load-time verifier proves safe —
    DATA_ONLY protection from the first call.  WARMUP tenants earn
    DATA_ONLY through the TrustManager observation period.  UNTRUSTED
    tenants run FULL_ISOLATION forever.
    """

    PROVEN = "proven"
    WARMUP = "warmup"
    UNTRUSTED = "untrusted"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant sharing the kernel."""

    name: str
    kind: str                       # one of HTTP_KINDS + BATCH_KINDS
    tier: TrustTier = TrustTier.UNTRUSTED
    #: share of generated events routed to this tenant
    weight: float = 1.0
    nfiles: int = 8
    avg_file_bytes: int = 2048
    #: batch tenants: operations per BATCH tick
    batch_ops: int = 12

    def __post_init__(self):
        if self.kind not in HTTP_KINDS + BATCH_KINDS:
            raise ValueError(f"unknown tenant kind {self.kind!r}")


@dataclass(frozen=True)
class FaultStorm:
    """A probabilistic failpoint armed for a slice of the schedule."""

    failpoint: str
    rate: float = 0.05
    #: fraction of the schedule where the storm starts / stops
    start_frac: float = 0.3
    stop_frac: float = 0.6


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that determines a run.  Same config ⇒ same result."""

    seed: int = 2026
    tenants: tuple[TenantSpec, ...] = ()
    #: request/batch events generated (excluding opens/closes/storms)
    events: int = 300
    #: Zipf exponent for file popularity (>1; larger = more skewed)
    zipf_s: float = 1.3
    #: Pareto shape for inter-arrival gaps and request bursts
    pareto_alpha: float = 1.6
    #: probability a keep-alive connection is closed after a request
    churn: float = 0.15
    #: probability a churn close is abortive (no request drained)
    abort_prob: float = 0.2
    #: max simultaneously open connections per keep-alive tenant
    max_conns: int = 12
    #: listen backlog for every HTTP tenant (small ⇒ overflow under bursts)
    backlog: int = 32
    storms: tuple[FaultStorm, ...] = ()
    #: attach the §3.3 event monitors (dispatch cost is deterministic)
    monitor: bool = True
    #: simulated CPUs to boot (docs/SMP.md): tenants spread round-robin
    #: and the NIC runs one RX queue per CPU; 1 = the pre-SMP kernel
    cpus: int = 1
    #: serve every keep-alive HTTP tenant with this I/O model —
    #: "select" | "epoll" | "uring" — regardless of its spec kind.  The
    #: *schedule* still follows the spec (same opens/requests/churn), so
    #: two runs differing only in ``io_model`` face identical clients and
    #: the SLO deltas isolate the serving strategy.  None = per-spec.
    io_model: str | None = None

    def __post_init__(self):
        if self.io_model not in (None, "select", "epoll", "uring"):
            raise ValueError(f"unknown io_model {self.io_model!r}")

    def resolved_tenants(self) -> tuple[TenantSpec, ...]:
        return self.tenants if self.tenants else default_tenants()

    def serving_kind(self, spec: TenantSpec) -> str:
        """The server strategy actually booted for ``spec``."""
        if self.io_model is None or spec.kind not in _KEEPALIVE_KINDS:
            return spec.kind
        return f"http-{self.io_model}"


def default_tenants() -> tuple[TenantSpec, ...]:
    """The standard mixed-trust tenant population."""
    return (
        TenantSpec("web-select", "http-select", TrustTier.UNTRUSTED,
                   weight=2.0),
        TenantSpec("web-epoll", "http-epoll", TrustTier.UNTRUSTED,
                   weight=2.0),
        TenantSpec("web-cosy", "http-cosy", TrustTier.WARMUP, weight=2.0),
        TenantSpec("web-uring", "http-uring", TrustTier.UNTRUSTED,
                   weight=2.0),
        TenantSpec("mail-postmark", "postmark", TrustTier.UNTRUSTED,
                   weight=0.7),
        TenantSpec("build-farm", "compile", TrustTier.UNTRUSTED, weight=0.4),
        TenantSpec("db-proven", "dbapp", TrustTier.PROVEN, weight=0.7),
        TenantSpec("db-warmup", "dbapp", TrustTier.WARMUP, weight=0.7),
        TenantSpec("db-untrusted", "dbapp", TrustTier.UNTRUSTED, weight=0.5),
    )


# --------------------------------------------------------------------------
# schedule generation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleEvent:
    """One step of a scenario.

    ``at`` is a virtual arrival timestamp (monotone, non-negative) used
    for ordering and well-formedness checks; simulated time itself
    advances only from executed work.
    """

    kind: str          # open|request|close|abort|batch|storm_on|storm_off
    tenant: str = ""
    conn: int = -1
    rank: int = 0      # Zipf popularity rank of the requested file
    burst: int = 1     # back-to-back requests on the connection
    storm: int = -1    # index into ScenarioConfig.storms
    at: int = 0


def generate_schedule(cfg: ScenarioConfig) -> list[ScheduleEvent]:
    """Deterministically expand a config into an event schedule.

    Invariants (property-tested): timestamps are non-negative and
    non-decreasing; every ``open`` has exactly one matching ``close`` or
    ``abort``; every ``request``/``close``/``abort`` names a connection
    that is open at that point; every storm turned on is turned off.
    """
    rng = np.random.default_rng(cfg.seed)
    tenants = cfg.resolved_tenants()
    weights = np.array([t.weight for t in tenants], dtype=float)
    weights /= weights.sum()
    # cosy tenants serve one connection per request (the compound accepts)
    keepalive = {t.name for t in tenants if t.kind in _KEEPALIVE_KINDS}
    byname = {t.name: t for t in tenants}

    events: list[ScheduleEvent] = []
    open_conns: dict[str, list[int]] = {t.name: [] for t in tenants}
    next_conn: dict[str, int] = {t.name: 0 for t in tenants}
    t = 0
    for _ in range(cfg.events):
        t += 1 + int(rng.pareto(cfg.pareto_alpha) * 2)
        tenant = tenants[int(rng.choice(len(tenants), p=weights))]
        name = tenant.name
        if tenant.kind in BATCH_KINDS:
            events.append(ScheduleEvent("batch", name, at=t))
            continue
        rank = int((rng.zipf(cfg.zipf_s) - 1) % tenant.nfiles)
        burst = min(4, 1 + int(rng.pareto(cfg.pareto_alpha)))
        if name not in keepalive:
            # connection-per-request tenant: self-contained event
            events.append(ScheduleEvent("request", name, rank=rank,
                                        burst=burst, at=t))
            continue
        pool = open_conns[name]
        if not pool or (len(pool) < cfg.max_conns
                        and rng.random() < 0.5):
            # Churny clients arrive in herds: a Pareto-sized burst of
            # connects lands before the server gets to run again, which
            # is what actually pressures the listen backlog.
            herd = min(cfg.max_conns - len(pool),
                       1 + int(rng.pareto(cfg.pareto_alpha)
                               * 4 * cfg.churn))
            for _ in range(max(1, herd)):
                cid = next_conn[name]
                next_conn[name] += 1
                pool.append(cid)
                events.append(ScheduleEvent("open", name, conn=cid, at=t))
        cid = pool[int(rng.integers(len(pool)))]
        events.append(ScheduleEvent("request", name, conn=cid, rank=rank,
                                    burst=burst, at=t))
        if rng.random() < cfg.churn:
            pool.remove(cid)
            kind = "abort" if rng.random() < cfg.abort_prob else "close"
            events.append(ScheduleEvent(kind, name, conn=cid, at=t))
    # drain: every connection still open is closed in deterministic order
    for name in sorted(open_conns):
        for cid in open_conns[name]:
            t += 1
            events.append(ScheduleEvent("close", name, conn=cid, at=t))
    # splice fault storms in at their schedule fractions
    for i, storm in enumerate(cfg.storms):
        n = len(events)
        on = min(n, max(0, int(storm.start_frac * n)))
        off = min(n, max(on, int(storm.stop_frac * n)))
        at_on = events[on].at if on < n else t
        at_off = events[off].at if off < n else t
        events.insert(off, ScheduleEvent("storm_off", storm=i, at=at_off))
        events.insert(on, ScheduleEvent("storm_on", storm=i, at=at_on))
    return events


# --------------------------------------------------------------------------
# tenant runtime state
# --------------------------------------------------------------------------

#: the PROVEN tier's extension: constant-bound loops the load-time
#: verifier proves safe, so the TrustManager grants DATA_ONLY from the
#: first call with no warmup.
_PROVEN_SRC = """
int mix(int x) {
    int a[16];
    int s;
    s = 0;
    for (int i = 0; i < 16; i++) { a[i] = x + i; }
    for (int i = 0; i < 16; i++) { s = s + a[i]; }
    return s;
}
int main() {
    int rounds;
    COSY_START();
    int s = 0;
    for (int r = 0; r < rounds; r++) {
        s = s + mix(r);
    }
    return s;
    COSY_END();
    return 0;
}
"""


class _Tenant:
    """Everything the runner keeps per tenant: task, app, SLO stats."""

    def __init__(self, spec: TenantSpec, slo: TenantSlo, task: "Task"):
        self.spec = spec
        self.slo = slo
        self.task = task
        self.server = None          # HTTP tenants
        self.paths: list[str] = []
        self.port = 0
        self.app = None             # batch tenants
        self.trust: TrustManager | None = None


class ScenarioRunner:
    """Execute a schedule on a freshly booted kernel."""

    def __init__(self, cfg: ScenarioConfig, kernel: Kernel | None = None):
        self.cfg = cfg
        if kernel is None:
            kernel = Kernel(cpus=cfg.cpus)
            kernel.mount_root(RamfsSuperBlock(kernel))
            kernel.spawn("driver")
        self.kernel = kernel
        self.driver = kernel.current
        self.stack = SocketLayer(kernel, queues=kernel.ncpus)
        self.dispatcher = None
        self.sock_monitor = None
        if cfg.monitor:
            self.sock_monitor = SocketMonitor()
            self.dispatcher = EventDispatcher(kernel).attach()
            self.dispatcher.register_callback(self.sock_monitor)
        self.tenants: dict[str, _Tenant] = {}
        #: (tenant, conn_id) -> driver-side fd, or a _DEAD_* marker noting
        #: why the connection is gone (so later requests on it are charged
        #: to the right SLO bucket)
        self._conns: dict[tuple[str, int], int | str] = {}
        self._storms: dict[int, object] = {}
        self._setup_tenants()

    # ------------------------------------------------------------- setup

    def _setup_tenants(self) -> None:
        kernel = self.kernel
        metrics = kernel.metrics
        specs = self.cfg.resolved_tenants()
        port = 80
        for i, spec in enumerate(specs):
            slo = TenantSlo(spec.name, spec.kind, spec.tier.value)
            slo.latency = metrics.histogram(f"slo.{spec.name}.latency_cycles")
            slo.sched_delay = metrics.histogram(
                f"slo.{spec.name}.sched_delay_cycles")
            # SMP kernels spread tenants round-robin across CPUs; at
            # cpus=1 the explicit pin is cpu0, same as the default.
            task = kernel.spawn(spec.name, cpu=i % kernel.ncpus)
            # Tenant-tag the task: profiler samples group by it, and the
            # scheduler feeds this tenant's starvation SLO directly.
            task.tenant = spec.name
            task.sched_delay = slo.sched_delay
            tenant = _Tenant(spec, slo, task)
            self.tenants[spec.name] = tenant
            kernel.sched.switch_to(task)
            if spec.kind in HTTP_KINDS:
                tenant.port = port
                web_cfg = WebServerConfig(
                    nfiles=spec.nfiles, avg_file_bytes=spec.avg_file_bytes,
                    docroot=f"/{spec.name}", seed=self.cfg.seed + 31 * i)
                tenant.paths = build_docroot(kernel, web_cfg)
                http_cfg = HttpBenchConfig(
                    nfiles=spec.nfiles, avg_file_bytes=spec.avg_file_bytes,
                    backlog=self.cfg.backlog, port=port,
                    docroot=f"/{spec.name}", seed=self.cfg.seed + 31 * i)
                kind = self.cfg.serving_kind(spec).removeprefix("http-")
                server = _SERVERS[kind](kernel, http_cfg)
                server.setup()
                task.rlimit_nofile = max(task.rlimit_nofile,
                                         4 * self.cfg.max_conns + 64)
                tenant.server = server
                if spec.kind == "http-cosy":
                    self._wire_trust(tenant, server.ext)
                port += 1
            elif spec.kind == "postmark":
                tenant.app = PostMark(kernel, PostMarkConfig(
                    nfiles=max(8, spec.batch_ops),
                    transactions=spec.batch_ops,
                    workdir=f"/{spec.name}", seed=self.cfg.seed + 31 * i))
            elif spec.kind == "compile":
                bench = CompileBench(kernel, CompileBenchConfig(
                    nfiles=max(2, spec.batch_ops // 4), headers=6,
                    avg_source_bytes=1500,
                    srcdir=f"/{spec.name}-src", objdir=f"/{spec.name}-obj",
                    seed=self.cfg.seed + 31 * i))
                bench.prepare()
                tenant.app = bench
            elif spec.kind == "dbapp":
                self._setup_db_tenant(tenant, i)
        kernel.sched.switch_to(self.driver)
        self.driver.rlimit_nofile = max(
            self.driver.rlimit_nofile,
            4 * self.cfg.max_conns * max(1, len(specs)) + 64)

    def _setup_db_tenant(self, tenant: _Tenant, i: int) -> None:
        kernel = self.kernel
        spec = tenant.spec
        if spec.tier is TrustTier.PROVEN:
            # pure-compute extension with provable bounds
            ext = CosyKernelExtension(
                kernel, protection=CosyProtection.FULL_ISOLATION,
                verifier=LoadTimeVerifier())
            self._wire_trust(tenant, ext)
            lib = CosyLib(kernel, ext)
            tenant.app = lib.install(tenant.task,
                                     CosyGCC().compile(_PROVEN_SRC))
            return
        db_cfg = DBWorkloadConfig(nrecords=64, db_path=f"/{spec.name}.dat",
                                  seed=self.cfg.seed + 31 * i)
        build_database(kernel, db_cfg)
        if spec.tier is TrustTier.WARMUP:
            ext = CosyKernelExtension(
                kernel, protection=CosyProtection.FULL_ISOLATION)
            self._wire_trust(tenant, ext)
        else:
            # pinned untrusted: FULL_ISOLATION forever, no trust manager
            ext = CosyKernelExtension(
                kernel, protection=CosyProtection.FULL_ISOLATION)
        tenant.app = CosyRecordStore(kernel, tenant.task, db_cfg, ext=ext)

    def _wire_trust(self, tenant: _Tenant, ext: CosyKernelExtension) -> None:
        if tenant.spec.tier is TrustTier.PROVEN:
            tenant.trust = TrustManager(ext, threshold=1 << 30)
        elif tenant.spec.tier is TrustTier.WARMUP:
            tenant.trust = TrustManager(ext, threshold=3)

    # ---------------------------------------------------------- execution

    def run(self, schedule: list[ScheduleEvent] | None = None
            ) -> "ScenarioResult":
        if schedule is None:
            schedule = generate_schedule(self.cfg)
        handlers = {"open": self._ev_open, "request": self._ev_request,
                    "close": self._ev_close, "abort": self._ev_abort,
                    "batch": self._ev_batch, "storm_on": self._ev_storm_on,
                    "storm_off": self._ev_storm_off}
        for ev in schedule:
            handlers[ev.kind](ev)
        self._cleanup()
        return self._result()

    def _tenant(self, ev: ScheduleEvent) -> _Tenant:
        return self.tenants[ev.tenant]

    def _pump(self, tenant: _Tenant) -> None:
        """Run the tenant's server task until it has no pending work."""
        self.kernel.sched.switch_to(tenant.task)
        try:
            tenant.server.pump()
        finally:
            self.kernel.sched.switch_to(self.driver)

    def _drain(self, fd: int) -> int:
        """Read everything queued on a driver-side connection."""
        sys = self.kernel.sys
        total = 0
        while True:
            try:
                chunk = sys.read(fd, 65536)
            except Errno:
                return total
            if not chunk:
                return total
            total += len(chunk)

    def _close_driver_fd(self, fd: int) -> None:
        try:
            self.kernel.sys.close(fd)
        except Errno:  # pragma: no cover - double close is a runner bug
            pass

    # ------------------------------------------------------ event handlers

    _DEAD_REFUSED = "dead:refused"
    _DEAD_RESET = "dead:reset"

    def _ev_open(self, ev: ScheduleEvent) -> None:
        tenant = self._tenant(ev)
        sys = self.kernel.sys
        fd = sys.socket(blocking=False)
        try:
            sys.connect(fd, tenant.port)
        except Errno as exc:
            self._close_driver_fd(fd)
            if exc.errno == ECONNREFUSED:
                tenant.slo.refused += 1
                self._conns[(ev.tenant, ev.conn)] = self._DEAD_REFUSED
                return
            tenant.slo.resets += 1
            self._conns[(ev.tenant, ev.conn)] = self._DEAD_RESET
            return
        self._conns[(ev.tenant, ev.conn)] = fd

    def _ev_request(self, ev: ScheduleEvent) -> None:
        tenant = self._tenant(ev)
        if tenant.spec.kind == "http-cosy":
            self._cosy_request(tenant, ev)
            return
        fd = self._conns.get((ev.tenant, ev.conn))
        for _ in range(ev.burst):
            tenant.slo.requests += 1
            if isinstance(fd, str) or fd is None:
                if fd == self._DEAD_REFUSED:
                    tenant.slo.refused += 1
                else:
                    tenant.slo.resets += 1
                continue
            if not self._one_request(tenant, fd, ev.rank):
                self._close_driver_fd(fd)
                self._conns[(ev.tenant, ev.conn)] = fd = self._DEAD_RESET

    def _one_request(self, tenant: _Tenant, fd: int, rank: int) -> bool:
        """Write request, pump the server, drain the response.
        Returns False when the connection died."""
        sys = self.kernel.sys
        clock = self.kernel.clock
        path = tenant.paths[rank % len(tenant.paths)]
        submit = clock.now
        try:
            sys.write(fd, _request_for(path))
        except Errno:
            tenant.slo.resets += 1
            return False
        self._pump(tenant)
        got = self._drain(fd)
        if got == 0:
            # server reaped us (garbled request under a storm, or reset)
            tenant.slo.resets += 1
            return False
        tenant.slo.latency.observe(clock.now - submit)
        tenant.slo.completed += 1
        tenant.slo.goodput_bytes += got
        return True

    def _cosy_request(self, tenant: _Tenant, ev: ScheduleEvent) -> None:
        """Connection-per-request flow: the compound accepts and closes."""
        sys = self.kernel.sys
        clock = self.kernel.clock
        for _ in range(ev.burst):
            tenant.slo.requests += 1
            fd = sys.socket(blocking=False)
            try:
                sys.connect(fd, tenant.port)
            except Errno as exc:
                self._close_driver_fd(fd)
                if exc.errno == ECONNREFUSED:
                    tenant.slo.refused += 1
                else:
                    tenant.slo.resets += 1
                continue
            path = tenant.paths[ev.rank % len(tenant.paths)]
            submit = clock.now
            try:
                sys.write(fd, _request_for(path))
            except Errno:
                tenant.slo.resets += 1
                self._close_driver_fd(fd)
                continue
            self.kernel.sched.switch_to(tenant.task)
            try:
                served = tenant.server.serve_one()
            finally:
                self.kernel.sched.switch_to(self.driver)
            got = self._drain(fd)
            if served and got:
                tenant.slo.latency.observe(clock.now - submit)
                tenant.slo.completed += 1
                tenant.slo.goodput_bytes += got
            else:
                tenant.slo.resets += 1
            self._close_driver_fd(fd)

    def _ev_close(self, ev: ScheduleEvent) -> None:
        fd = self._conns.pop((ev.tenant, ev.conn), None)
        if isinstance(fd, int):
            self._close_driver_fd(fd)
            # let the server observe the EOF and reap its side
            self._pump(self._tenant(ev))

    def _ev_abort(self, ev: ScheduleEvent) -> None:
        """Abortive close: hang up without draining, don't tell the server
        (it discovers the corpse whenever it next looks)."""
        tenant = self._tenant(ev)
        fd = self._conns.pop((ev.tenant, ev.conn), None)
        if isinstance(fd, int):
            tenant.slo.aborted += 1
            self._close_driver_fd(fd)

    def _ev_batch(self, ev: ScheduleEvent) -> None:
        tenant = self._tenant(ev)
        kernel = self.kernel
        slo = tenant.slo
        slo.requests += 1
        kernel.sched.switch_to(tenant.task)
        try:
            with kernel.measure() as m:
                goodput = self._run_batch(tenant)
        except Errno:
            slo.resets += 1       # a fault storm broke the batch mid-way
            return
        finally:
            kernel.sched.switch_to(self.driver)
        slo.latency.observe(m.delta.elapsed)
        slo.completed += 1
        slo.goodput_bytes += goodput

    def _run_batch(self, tenant: _Tenant) -> int:
        spec = tenant.spec
        if spec.kind == "postmark":
            r = tenant.app.run()
            return r.bytes_read + r.bytes_written
        if spec.kind == "compile":
            r = tenant.app.run()
            return r.bytes_read + r.bytes_written
        # dbapp
        if spec.tier is TrustTier.PROVEN:
            tenant.app.run({"rounds": spec.batch_ops})
            return spec.batch_ops * 16 * 4
        tenant.app.random_lookups(spec.batch_ops)
        return spec.batch_ops * RECORD_SIZE

    def _ev_storm_on(self, ev: ScheduleEvent) -> None:
        storm = self.cfg.storms[ev.storm]
        self._storms[ev.storm] = self.kernel.faults.inject(
            storm.failpoint, probability=storm.rate,
            seed=self.cfg.seed + 977 * (ev.storm + 1))

    def _ev_storm_off(self, ev: ScheduleEvent) -> None:
        inj = self._storms.pop(ev.storm, None)
        if inj is not None:
            inj.remove()

    # ------------------------------------------------------------- teardown

    def _cleanup(self) -> None:
        """Close every surviving descriptor so a leak at the end is a bug,
        not leftover state."""
        for inj in self._storms.values():
            inj.remove()
        self._storms.clear()
        for key, fd in sorted(self._conns.items()):
            if isinstance(fd, int):
                self._close_driver_fd(fd)
        self._conns.clear()
        for tenant in self.tenants.values():
            if tenant.server is None:
                continue
            if tenant.spec.kind != "http-cosy":
                # let the server observe the final EOFs and reap
                self._pump(tenant)
            self.kernel.sched.switch_to(tenant.task)
            tenant.server.close()
            self.kernel.sched.switch_to(self.driver)

    def _result(self) -> "ScenarioResult":
        kernel = self.kernel
        clock = (kernel.clock.user, kernel.clock.system, kernel.clock.iowait)
        stack = self.stack
        net = {
            "connections": stack.connections,
            "accepts": stack.accepts,
            "drops": stack.drops,
            "refused": stack.refused,
            "backlog_overflows": stack.backlog_overflows,
            "rst_tx": stack.rst_tx,
            "accept_emfile": stack.accept_emfile,
            "nic_dropped": stack.nic.dropped,
        }
        leaks = 0
        monitor_counts: dict[str, int] = {}
        if self.sock_monitor is not None:
            leaks = len(self.sock_monitor.report_leaks())
            monitor_counts = {
                "accepts": self.sock_monitor.accepts,
                "closes": self.sock_monitor.closes,
                "drop_events": sum(self.sock_monitor.drops.values()),
                "leaks": leaks,
            }
        trust = {}
        for name, tenant in sorted(self.tenants.items()):
            if tenant.trust is not None:
                trust[name] = {
                    "promoted": len(tenant.trust.promoted),
                    "statically_proven": len(tenant.trust.statically_proven),
                }
        report = SloReport(
            tenants={n: t.slo for n, t in self.tenants.items()},
            clock=clock, net=net, leaked_sockets=leaks)
        return ScenarioResult(
            config=self.cfg, report=report, clock=clock,
            metrics=kernel.metrics.snapshot(),
            fault_signature=kernel.faults.trace_signature(),
            monitor_counts=monitor_counts,
            sockfs_inodes=len(stack.sockfs.inodes),
            trust=trust)


@dataclass
class ScenarioResult:
    """Everything a run produced, all of it deterministic per config."""

    config: ScenarioConfig
    report: SloReport
    clock: tuple[int, int, int]
    metrics: dict
    fault_signature: list
    monitor_counts: dict
    sockfs_inodes: int
    trust: dict


def run_scenario(cfg: ScenarioConfig,
                 kernel: Kernel | None = None) -> ScenarioResult:
    """Generate the schedule for ``cfg`` and execute it."""
    return ScenarioRunner(cfg, kernel=kernel).run()


def scaled(cfg: ScenarioConfig, factor: float) -> ScenarioConfig:
    """A copy of ``cfg`` with the event budget scaled (CI smoke runs)."""
    return replace(cfg, events=max(10, int(cfg.events * factor)))
