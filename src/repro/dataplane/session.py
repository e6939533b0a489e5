"""Data-plane simulation: streaming a flow along a concrete service path.

Path *finding* is only useful if data then flows; this module simulates the
runtime half on the discrete-event engine. A :class:`StreamingSession`
pushes a packet train from the path's source to its destination: every
overlay link costs its ground-truth delay, every service hop adds a
processing delay.

Failures are first-class: a proxy can be scheduled to **fail** mid-session
(it silently stops forwarding — the hard case). A failure is a permanent
crash in the fault layer's model, so a killed packet is a counted drop in
the simulator's ledger, not a silent disappearance. The destination runs a
per-packet watchdog; when an expected packet times out it asks a
*rerouter* for a replacement path that avoids the failed proxies and
signals the source to switch. The session report separates delivered /
lost packets and records the recovery timeline, enabling the
failure-injection test suite and the recovery bench.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.faults.injector import FaultInjector
from repro.faults.plan import CrashRestart, FaultPlan
from repro.netsim.eventsim import Message, Process, Simulator
from repro.overlay.network import OverlayNetwork, ProxyId
from repro.routing.path import ServicePath
from repro.telemetry import Telemetry
from repro.util.errors import RoutingError

#: builds a replacement path avoiding the given proxies (or raises)
Rerouter = Callable[[frozenset], ServicePath]


@dataclass
class PacketRecord:
    """Fate of one packet."""

    seq: int
    sent_at: float
    delivered_at: Optional[float] = None
    path_version: int = 1

    @property
    def delivered(self) -> bool:
        return self.delivered_at is not None

    @property
    def latency(self) -> Optional[float]:
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.sent_at


@dataclass
class SessionReport:
    """Outcome of a streaming session."""

    records: List[PacketRecord]
    nominal_latency: float
    failed_proxies: Tuple[ProxyId, ...]
    recovery_started_at: Optional[float] = None
    recovered_at: Optional[float] = None
    final_path: Optional[ServicePath] = None

    @property
    def delivered(self) -> int:
        return sum(1 for r in self.records if r.delivered)

    @property
    def lost(self) -> int:
        return len(self.records) - self.delivered


def path_nominal_latency(
    path: ServicePath, overlay: OverlayNetwork, processing_delay: float
) -> float:
    """Link delays plus per-service processing along *path*."""
    proxies = path.proxies()
    total = sum(overlay.true_delay(u, v) for u, v in zip(proxies, proxies[1:]))
    total += processing_delay * len(path.service_hops())
    return total


class _Forwarder(Process):
    """One hop of one path version: receive a packet, process, forward."""

    def __init__(self, session: "StreamingSession", version: int, index: int) -> None:
        super().__init__(address=("hop", version, index))
        self.session = session
        self.version = version
        self.index = index

    def receive(self, message: Message) -> None:
        assert self.simulator is not None
        path = self.session.paths[self.version]
        hop = path.hops[self.index]
        if self.index == len(path.hops) - 1:
            self.session._delivered(message.payload, self.simulator.now)
            return
        nxt = path.hops[self.index + 1]
        delay = self.session.overlay.true_delay(hop.proxy, nxt.proxy)
        if hop.service is not None:
            delay += self.session.processing_delay
        self.send(
            ("hop", self.version, self.index + 1),
            "packet",
            message.payload,
            delay=delay,
            size=1,
        )


class _Watchdog(Process):
    """Destination-side loss detection and recovery trigger."""

    def __init__(self, session: "StreamingSession") -> None:
        super().__init__(address=("watchdog",))
        self.session = session

    def check(self, seq: int) -> None:
        session = self.session
        record = session.report.records[seq]
        if record.delivered or session.recovery_triggered:
            return
        session._trigger_recovery()


class StreamingSession:
    """Simulate a packet train over a service path, with optional failures.

    Args:
        overlay: delay oracle.
        path: the concrete service path to stream over.
        packet_count: packets in the train.
        packet_interval: inter-packet emission gap (ms).
        processing_delay: per-service processing time at service hops (ms).
        detection_margin: extra wait beyond the nominal latency before the
            destination declares a packet lost.
    """

    def __init__(
        self,
        overlay: OverlayNetwork,
        path: ServicePath,
        *,
        packet_count: int = 40,
        packet_interval: float = 5.0,
        processing_delay: float = 1.0,
        detection_margin: float = 20.0,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if packet_count < 1:
            raise RoutingError("packet_count must be >= 1")
        self.overlay = overlay
        self.packet_count = packet_count
        self.packet_interval = packet_interval
        self.processing_delay = processing_delay
        self.detection_margin = detection_margin

        self.paths: Dict[int, ServicePath] = {1: path}
        self.active_version = 1
        #: the proxies that fail during the run (what the rerouter avoids)
        self.failed: frozenset = frozenset()
        self.rerouter: Optional[Rerouter] = None
        self.recovery_triggered = False
        self.sim = Simulator(telemetry=telemetry)
        self.report = SessionReport(
            records=[],
            nominal_latency=path_nominal_latency(
                path, overlay, processing_delay
            ),
            failed_proxies=(),
        )
        self._watchdog = _Watchdog(self)

    # -- public API ---------------------------------------------------------------

    def run(
        self,
        *,
        failures: Optional[Dict[ProxyId, float]] = None,
        rerouter: Optional[Rerouter] = None,
    ) -> SessionReport:
        """Stream the packet train; returns the session report.

        Args:
            failures: ``{proxy: fail_time}`` — each proxy crashes for good
                at its fail time: a permanent
                :class:`~repro.faults.plan.CrashRestart`, executed by a
                :class:`~repro.faults.injector.FaultInjector` on the
                session's simulator, so every packet it kills is a counted
                drop in ``sim.conservation()``.
            rerouter: called with the set of failed proxies once loss is
                detected; must return a replacement path (or raise).
        """
        failures = failures or {}
        self.failed = frozenset(failures)
        self.rerouter = rerouter
        self.report.failed_proxies = tuple(sorted(failures, key=repr))
        if failures:
            plan = FaultPlan(
                seed=0,
                specs=[CrashRestart(p, failures[p]) for p in self.report.failed_proxies],
            )
            FaultInjector(plan).install(self.sim, resolve=self._proxy_of)

        self.sim.register(self._watchdog)
        self._register_version(1)

        for seq in range(self.packet_count):
            send_at = seq * self.packet_interval
            self.report.records.append(
                PacketRecord(seq=seq, sent_at=send_at)
            )
            self.sim.schedule(send_at, lambda s=seq: self._emit(s))
            deadline = send_at + self.report.nominal_latency + self.detection_margin
            self.sim.schedule(deadline, lambda s=seq: self._watchdog.check(s))
        self.sim.run_all()
        self.report.final_path = self.paths[self.active_version]
        self._record_outcome()
        return self.report

    def _record_outcome(self) -> None:
        """Aggregate the packet fates into the session's telemetry scope."""
        telemetry = self.sim.telemetry
        registry = telemetry.registry
        delivered = registry.counter("session.packets", outcome="delivered")
        lost = registry.counter("session.packets", outcome="lost")
        latency = registry.histogram("session.packet.latency")
        for record in self.report.records:
            if record.latency is not None:
                delivered.inc()
                latency.observe(record.latency)
            else:
                lost.inc()
        if self.report.recovered_at is not None:
            registry.histogram("session.recovery.time").observe(
                self.report.recovered_at - (self.report.recovery_started_at or 0.0)
            )
        telemetry.publish()

    # -- internals ----------------------------------------------------------------

    def _proxy_of(self, address: Tuple) -> object:
        """The proxy a ``("hop", version, index)`` address runs on; the
        source and watchdog addresses stand for themselves."""
        if address[0] == "hop":
            return self.paths[address[1]].hops[address[2]].proxy
        return address

    def _register_version(self, version: int) -> None:
        for index in range(len(self.paths[version].hops)):
            self.sim.register(_Forwarder(self, version, index))

    def _emit(self, seq: int) -> None:
        version = self.active_version
        record = self.report.records[seq]
        record.sent_at = self.sim.now
        record.path_version = version
        # inject directly at hop 0 (the source proxy)
        self.sim.send(
            Message(("source",), ("hop", version, 0), "packet", seq, size=1),
            delay=0.0,
        )

    def _delivered(self, seq: int, now: float) -> None:
        record = self.report.records[seq]
        if record.delivered_at is None:
            record.delivered_at = now
            if (
                self.recovery_triggered
                and self.report.recovered_at is None
                and record.path_version > 1
            ):
                self.report.recovered_at = now
                self.sim.telemetry.events.record(
                    "session.recovered", seq=seq, path_version=record.path_version
                )

    def _trigger_recovery(self) -> None:
        self.recovery_triggered = True
        self.report.recovery_started_at = self.sim.now
        self.sim.telemetry.events.record(
            "session.recovery_started",
            failed=sorted(self.failed, key=repr),
            rerouter=self.rerouter is not None,
        )
        if self.rerouter is None:
            return
        new_path = self.rerouter(self.failed)
        overlap = self.failed & set(new_path.proxies())
        if overlap:
            raise RoutingError(
                f"rerouter returned a path through failed proxies {overlap}"
            )
        version = self.active_version + 1
        self.paths[version] = new_path
        self._register_version(version)
        # the switch command travels destination -> source before taking effect
        old = self.paths[self.active_version]
        switch_delay = self.overlay.true_delay(old.destination, old.source)

        def switch() -> None:
            self.active_version = version

        self.sim.schedule(switch_delay, switch)
