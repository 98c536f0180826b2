"""A simulated NIC: TX/RX descriptor rings with softirq delivery.

Every byte between two sockets rides a :class:`Packet` through this
device, which is where the network's costs live (see docs/NETWORK.md and
docs/COST_MODEL.md):

* ``nic_tx_per_packet`` + ``net_per_byte`` when the driver queues a packet
  on the TX ring (descriptor fill + DMA/wire cost);
* ``IRQ_DISPATCH_COST`` for the hardware interrupt that moves TX
  descriptors to the RX ring (the loopback "wire");
* ``softirq_entry`` + ``nic_rx_per_packet`` for NET_RX_SOFTIRQ draining
  the RX ring into socket receive queues.

Delivery is driven by the interrupt layer.  In ``deliver="irq"`` mode
(default) every transmit raises the interrupt immediately, so data is
visible to the peer as soon as the sender's syscall returns — loopback
semantics, and what the socketpair tests expect.  In ``deliver="tick"``
mode packets sit in the rings until the timer interrupt fires
(:meth:`repro.kernel.net.syscalls.SocketLayer.attach_timer`) or a blocking
reader pumps the device — NAPI-style deferred delivery.

Multiqueue RX (``queues>1``, SMP kernels — docs/SMP.md): the device keeps
one RX ring per queue and the hardware interrupt *steers* each frame to a
queue RSS-style — SYNs hash by destination port, established-flow frames
by destination socket ino — so one flow always lands on one queue.  Queue
*q*'s NET_RX softirq runs on CPU *q*: the drain charges that CPU's local
clock (an IPI is raised first when the interrupt fired elsewhere), which
is what lets ``bench_net`` shard clients across cores and earn genuine
aggregate speedup.  ``queues=1`` (the default) is byte-identical to the
pre-SMP single-ring device.

Failure injection: the ``net.tx`` failpoint fires per packet on transmit,
``net.rx`` per packet during softirq delivery.  A dropped packet resets
the connection (there is no retransmit layer) and emits a ``sock.drop``
monitor event — see docs/FAULT_INJECTION.md.
"""

from __future__ import annotations

from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.kernel.interrupts import IRQ_DISPATCH_COST
from repro.kernel.locks import SpinLock

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.core import Kernel
    from repro.kernel.net.socket import SocketInode
    from repro.kernel.net.syscalls import SocketLayer

#: maximum payload bytes per packet (Ethernet-ish MTU)
MTU = 1500


@dataclass
class Packet:
    """One frame on the simulated wire."""

    kind: str                          # "syn" | "syn+ack" | "rst" | "fin" | "data"
    src: "SocketInode | None"
    dst: "SocketInode | None"          # None for SYN: routed by port
    port: int = 0
    payload: bytes = field(default=b"", repr=False)

    def __len__(self) -> int:
        return len(self.payload)


class Nic:
    """The loopback network device: descriptor rings and an interrupt."""

    def __init__(self, kernel: "Kernel", stack: "SocketLayer", *,
                 tx_slots: int = 256, rx_slots: int = 256,
                 deliver: str = "irq", queues: int = 1):
        if deliver not in ("irq", "tick"):
            raise ValueError(f"unknown delivery mode {deliver!r}")
        ncpus = kernel.ncpus
        if not 1 <= queues <= ncpus:
            raise ValueError(
                f"queues must be in 1..{ncpus} (got {queues})")
        self.kernel = kernel
        self.stack = stack
        self.tx_slots = tx_slots
        self.rx_slots = rx_slots
        self.deliver = deliver
        self.nqueues = queues
        #: the CPU's interrupt state is the kernel's: a device has no
        #: controller of its own
        self.irq = kernel.irq
        #: guards all descriptor rings.  Taken by the hardware interrupt,
        #: so every acquisition is ``lock.irqsave`` — the lockdep
        #: irq-safety discipline for driver locks.  Never held
        #: across ``stack.deliver``/``drop_packet``, which can transmit.
        #: On SMP kernels this is the lock cross-CPU softirq drains
        #: genuinely contend on (lockprof's ``contention_cycles``).
        self.lock = SpinLock(kernel, "nic_lock")
        self.tx_ring: deque[Packet] = deque()
        self.rx_rings: list[deque[Packet]] = [deque() for _ in range(queues)]
        # Per-CPU sharded device counters (docs/OBSERVABILITY.md): the
        # softirq increments the executing CPU's shard; readers see the
        # summed view through the read-only properties below.
        m = kernel.metrics
        self._c_tx_packets = m.percpu_counter(
            "net.tx_packets", help="packets queued on the TX ring")
        self._c_rx_packets = m.percpu_counter(
            "net.rx_packets", help="packets delivered by NET_RX softirq")
        self._c_tx_bytes = m.percpu_counter(
            "net.tx_bytes", help="payload bytes queued on the TX ring")
        self._c_rx_bytes = m.percpu_counter(
            "net.rx_bytes", help="payload bytes delivered to sockets")
        self._c_dropped = m.percpu_counter(
            "net.dropped", help="packets dropped (faults, overflow, resets)")
        self._c_interrupts = m.percpu_counter(
            "net.interrupts", help="NIC hardware interrupts raised")
        self._in_kick = False

    # ------------------------------------------------------------- counters

    @property
    def tx_packets(self) -> int:
        return self._c_tx_packets.value

    @property
    def rx_packets(self) -> int:
        return self._c_rx_packets.value

    @property
    def tx_bytes(self) -> int:
        return self._c_tx_bytes.value

    @property
    def rx_bytes(self) -> int:
        return self._c_rx_bytes.value

    @property
    def dropped(self) -> int:
        return self._c_dropped.value

    @property
    def interrupts(self) -> int:
        return self._c_interrupts.value

    def count_drop(self, n: int = 1) -> None:
        """Record a dropped packet (called by the stack's drop path)."""
        self._c_dropped.inc(n)

    @property
    def pending(self) -> int:
        """Packets queued in any ring (in flight on the 'wire')."""
        return len(self.tx_ring) + sum(len(r) for r in self.rx_rings)

    def _queue_for(self, pkt: Packet) -> int:
        """RSS steering: which RX queue receives this frame."""
        if self.nqueues == 1:
            return 0
        if pkt.dst is not None:
            return pkt.dst.ino % self.nqueues
        return pkt.port % self.nqueues

    # ------------------------------------------------------------- transmit

    def transmit(self, pkt: Packet, site: str = "?") -> bool:
        """Driver entry: queue one packet on the TX ring.

        Returns False when the packet was dropped (injected ``net.tx``
        fault or ring overflow); the connection is already reset then.
        """
        costs = self.kernel.costs
        tx_cycles = costs.nic_tx_per_packet + int(len(pkt) * costs.net_per_byte)
        self.kernel.clock.charge_system(tx_cycles)
        tracer = self.kernel.trace
        if tracer.enabled:
            tracer.complete("net:tx", "net", tx_cycles, kind=pkt.kind,
                            bytes=len(pkt), site=site)
        if self.kernel.faults.should_fail("net.tx", site) is not None:
            self.stack.drop_packet(pkt, f"net.tx@{site}")
            return False
        with self.lock.irqsave("nic:tx"):
            overflow = len(self.tx_ring) >= self.tx_slots
            if not overflow:
                self.tx_ring.append(pkt)
                self._c_tx_packets.inc()
                self._c_tx_bytes.inc(len(pkt))
        if overflow:
            self.stack.drop_packet(pkt, "tx-ring-overflow")
            return False
        if self.deliver == "irq":
            self.kick()
        return True

    # ------------------------------------------------------------- delivery

    def kick(self) -> bool:
        """Raise the NIC interrupt: hardirq ring move + softirq delivery.

        Drains until all rings are empty — delivery may generate response
        packets (SYN → SYN+ACK/RST), which are drained in the same pass.
        On a multiqueue device each queue's softirq runs on its own CPU
        (camera moves there; remote queues get an IPI first).
        Returns True if any packet reached a socket.
        """
        if self._in_kick:
            # transmit() from inside delivery: the outer drain loop will
            # pick the new packet up; interrupts are already being handled.
            return False
        if not self.tx_ring and not any(self.rx_rings):
            return False
        self._in_kick = True
        progressed = False
        clock = self.kernel.clock
        tracer = self.kernel.trace
        ld = self.kernel.lockdep
        multiq = self.nqueues > 1
        try:
            while self.tx_ring or any(self.rx_rings):
                if self.tx_ring:
                    # Hardware interrupt: the "wire" steers TX descriptors
                    # onto the receive rings with interrupts disabled.
                    self._c_interrupts.inc()
                    clock.charge_system(IRQ_DISPATCH_COST)
                    if tracer.enabled:
                        tracer.complete("net:hardirq", "net",
                                        IRQ_DISPATCH_COST,
                                        packets=len(self.tx_ring))
                    if ld is not None:
                        ld.hardirq_enter()
                    try:
                        overflowed: list[Packet] = []
                        with self.lock.irqsave("nic:hardirq"):
                            while self.tx_ring:
                                pkt = self.tx_ring.popleft()
                                ring = self.rx_rings[self._queue_for(pkt)]
                                if len(ring) >= self.rx_slots:
                                    overflowed.append(pkt)
                                    continue
                                ring.append(pkt)
                        # Still at interrupt time, but after the irqsave
                        # section: drop_packet touches socket state.
                        for pkt in overflowed:
                            self.stack.drop_packet(pkt, "rx-ring-overflow")
                    finally:
                        if ld is not None:
                            ld.hardirq_exit()
                # Softirq: drain each queue's RX ring into socket queues,
                # on the queue's own CPU when the device is multiqueue.
                for q in range(self.nqueues):
                    if multiq and not self.rx_rings[q]:
                        continue
                    if multiq and q != clock.cpu:
                        self.kernel.sched.send_ipi(q, "net_rx")
                    cpu_ctx = clock.on_cpu(q) if multiq else nullcontext()
                    with cpu_ctx:
                        if self._softirq_drain(q):
                            progressed = True
        finally:
            self._in_kick = False
        return progressed

    def _softirq_drain(self, q: int) -> bool:
        """NET_RX softirq for queue ``q`` on the executing CPU."""
        clock = self.kernel.clock
        costs = self.kernel.costs
        tracer = self.kernel.trace
        ld = self.kernel.lockdep
        ring = self.rx_rings[q]
        progressed = False
        traced = ring and tracer.enabled
        if traced:
            tracer.begin("net:softirq", "net", packets=len(ring))
        if ld is not None:
            ld.softirq_enter()
        try:
            if ring:
                clock.charge_system(costs.softirq_entry)
            while True:
                with self.lock.irqsave("nic:softirq"):
                    pkt = ring.popleft() if ring else None
                if pkt is None:
                    break
                clock.charge_system(costs.nic_rx_per_packet)
                if self.kernel.faults.should_fail(
                        "net.rx", pkt.kind) is not None:
                    self.stack.drop_packet(pkt, f"net.rx@{pkt.kind}")
                    continue
                self._c_rx_packets.inc()
                self._c_rx_bytes.inc(len(pkt))
                # Deliver with no NIC lock held: the stack may transmit
                # responses (SYN -> SYN+ACK) re-entering this device.
                self.stack.deliver(pkt)
                progressed = True
        finally:
            if ld is not None:
                ld.softirq_exit()
            if traced:
                tracer.end()
        return progressed
