"""The open-loop traffic engine: sustained session load on the event simulator.

Unlike the batch workload (``experiments/workload.py``), which issues one
closed set of requests, the engine generates *client arrivals as events*:

1. an arrival process (:mod:`repro.traffic.arrivals`) schedules session
   arrivals on the shared :class:`~repro.netsim.eventsim.Simulator`;
2. each admitted session picks an access proxy, draws a lifetime and a
   request cadence (:mod:`repro.traffic.sessions`), and issues requests
   until it ends — request shapes follow the paper's Section 6.2 model
   (4-10 slots, Zipf or uniform service popularity via the shared
   :class:`~repro.util.sampling.PopularitySampler`);
3. issued requests queue into micro-batches that are flushed through the
   router's shared-precompute ``route_many_detailed`` every
   ``batch_interval`` ms;
4. routed requests stream hop-by-hop over the data plane: one
   ``traffic_data`` message per overlay hop through ``Simulator.send`` —
   which means a :class:`~repro.faults.injector.FaultInjector` installed
   on the same simulator drops/delays/duplicates traffic exactly like
   protocol messages, so sustained-load-under-faults scenarios run
   unmodified. Service hops additionally pass through a per-proxy FIFO
   server (``service_time`` each), which is what makes latency grow with
   load and gives the rate sweep a real saturation point.

Determinism: every stochastic draw comes from substreams spawned from one
seed (arrivals / sessions / workload), and the simulator itself is
deterministic — the same config + seed yields a byte-identical request
trace (:meth:`TrafficEngine.dump_trace`), the same discipline
``repro.faults`` follows for fault traces.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.workload import random_service_graph
from repro.netsim.eventsim import Message, Process, Simulator
from repro.overlay.network import ProxyId
from repro.routing.path import ServicePath
from repro.services.request import ServiceRequest
from repro.traffic.arrivals import ArrivalProcess, ArrivalSampler, Poisson
from repro.traffic.measure import (
    RequestRecord,
    SteadyStateCollector,
    SteadyStateReport,
    summarize,
)
from repro.traffic.sessions import SessionConfig
from repro.util.errors import TrafficError
from repro.util.rng import RngLike, ensure_rng, spawn
from repro.util.sampling import PopularitySampler

#: sojourn-time histogram buckets (simulated ms)
SOJOURN_BUCKETS: Tuple[float, ...] = (
    5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
)


def traffic_proxy(address: Any) -> Any:
    """Map a traffic relay address ``("traffic", proxy)`` to its proxy id.

    The canonical ``resolve`` argument for
    :meth:`repro.faults.injector.FaultInjector.install` when traffic and
    protocol share a simulator: fault specs name proxies, and this lets
    crash/partition/loss matching see through the relay namespace.
    """
    if isinstance(address, tuple) and len(address) == 2 and address[0] == "traffic":
        return address[1]
    return address


@dataclass(frozen=True)
class TrafficConfig:
    """Knobs of one sustained-traffic run (all times in simulated ms)."""

    #: session arrival process (Poisson / MMPP, optionally shaped)
    arrival: ArrivalProcess = field(default_factory=Poisson)
    #: arrivals are generated inside [0, duration]
    duration: float = 10_000.0
    #: measurement window start (transient trimming)
    warmup: float = 1_000.0
    #: extra simulated time after `duration` for in-flight work to finish
    drain: float = 2_000.0
    #: micro-batch flush period for the shared-precompute router
    batch_interval: float = 50.0
    #: admission cap on concurrently open sessions
    max_in_flight: int = 512
    #: per-service processing time at the serving proxy's FIFO server
    service_time: float = 1.0
    session: SessionConfig = field(default_factory=SessionConfig)

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise TrafficError("duration must be positive")
        if not 0 <= self.warmup < self.duration:
            raise TrafficError("warmup must be in [0, duration)")
        if self.drain < 0:
            raise TrafficError("drain must be >= 0")
        if self.batch_interval <= 0:
            raise TrafficError("batch_interval must be positive")
        if self.max_in_flight < 1:
            raise TrafficError("max_in_flight must be >= 1")
        if self.service_time < 0:
            raise TrafficError("service_time must be >= 0")


@dataclass
class _LiveSession:
    sid: int
    access_proxy: ProxyId
    ends_at: float


class _TrafficRelay(Process):
    """Per-proxy data-plane relay: forward a request's flow one hop."""

    def __init__(self, engine: "TrafficEngine", proxy: ProxyId) -> None:
        super().__init__(address=("traffic", proxy))
        self.engine = engine
        self.proxy = proxy

    def receive(self, message: Message) -> None:
        self.engine._hop(message.payload[0], message.payload[1], self)


class TrafficEngine:
    """Drives open-loop session traffic over one framework's overlay.

    Args:
        framework: the built :class:`~repro.core.framework.HFCFramework`.
        config: the run's :class:`TrafficConfig`.
        sim: simulator to run on; a private one is created when omitted.
            Pass a protocol's simulator (plus an installed fault injector
            with ``resolve=traffic_proxy``) for load-under-faults runs.
        router: any router exposing ``route_many_detailed``; defaults to a
            fresh cached hierarchical router.
        seed: master seed; arrivals, session draws, and the request mix
            each get an independent substream.
        destinations: candidate access proxies for sessions (e.g. an
            :class:`~repro.experiments.environments.Environment`'s
            ``client_proxies``); defaults to all overlay proxies.
    """

    def __init__(
        self,
        framework,
        config: Optional[TrafficConfig] = None,
        *,
        sim: Optional[Simulator] = None,
        router=None,
        seed: RngLike = 0,
        destinations: Optional[Sequence[ProxyId]] = None,
    ) -> None:
        self.framework = framework
        self.config = config or TrafficConfig()
        self.sim = sim if sim is not None else Simulator()
        self.router = (
            router if router is not None else framework.cached_hierarchical_router()
        )
        if not hasattr(self.router, "route_many_detailed"):
            raise TrafficError("router must expose route_many_detailed")
        rng = ensure_rng(seed)
        self._arrival_rng = spawn(rng, "traffic.arrivals")
        self._session_rng = spawn(rng, "traffic.sessions")
        self._workload_rng = spawn(rng, "traffic.workload")
        self._sampler: ArrivalSampler = self.config.arrival.sampler(self._arrival_rng)
        session = self.config.session
        self._service_sampler = PopularitySampler(
            list(framework.catalog.names),
            popularity=session.popularity,
            exponent=session.zipf_exponent,
        )
        self._proxies: List[ProxyId] = list(framework.overlay.proxies)
        self._destinations: List[ProxyId] = (
            list(destinations) if destinations else list(self._proxies)
        )

        self._origin: float = 0.0
        self._started = False
        self._finished = False
        self._next_sid = 0
        self._next_rid = 0
        self._live: Dict[int, _LiveSession] = {}
        self._pending: List[Tuple[RequestRecord, ServiceRequest]] = []
        self._flows: Dict[int, ServicePath] = {}
        self._busy_until: Dict[ProxyId, float] = {}
        self._relays: Dict[ProxyId, _TrafficRelay] = {}
        self.trace: List[Dict[str, Any]] = []
        self.collector = SteadyStateCollector(
            warmup=self.config.warmup, horizon=self.config.duration
        )
        self.report: Optional[SteadyStateReport] = None

        registry = self.sim.telemetry.registry
        self._m_arrivals = registry.counter("traffic.arrivals")
        self._m_admitted = registry.counter("traffic.sessions", outcome="admitted")
        self._m_rejected = registry.counter("traffic.sessions", outcome="rejected")
        self._m_requests = registry.counter("traffic.requests")
        self._m_completed = registry.counter("traffic.completed")
        self._m_infeasible = registry.counter("traffic.rejected", reason="infeasible")
        self._m_lost = registry.counter("traffic.lost")
        self._g_in_flight = registry.gauge("traffic.in_flight")
        self._h_sojourn = registry.histogram("traffic.sojourn", SOJOURN_BUCKETS)

    # -- lifecycle ---------------------------------------------------------------

    def start(self) -> None:
        """Install the engine's event sources on the simulator."""
        if self._started:
            raise TrafficError("engine already started")
        self._started = True
        self._origin = self.sim.now
        horizon = self._horizon
        self.collector.warmup = self._origin + self.config.warmup
        self.collector.horizon = horizon
        first = self._sampler.next_after(self._origin)
        if first <= horizon:
            self.sim.schedule(first - self.sim.now, self._arrive)
        self.sim.schedule_every(
            self.config.batch_interval,
            self._flush,
            until=horizon + self.config.drain + self.config.batch_interval,
        )
        self.sim.schedule_every(
            self.config.batch_interval,
            lambda: self.collector.sample_in_flight(len(self._live)),
            until=horizon,
        )

    def run(self) -> SteadyStateReport:
        """Start, run to the drain horizon, and summarize (owned-sim mode)."""
        self.start()
        self.sim.run_until(self._horizon + self.config.drain)
        return self.finish()

    def finish(self, *, publish: bool = True) -> SteadyStateReport:
        """Flush stragglers, account losses, and fold the steady-state report."""
        if self._finished:
            assert self.report is not None
            return self.report
        self._finished = True
        self._flush()
        for record in self.collector.records:
            if record.completed_at is None and not record.infeasible:
                self._m_lost.inc()
        self.report = summarize(self.collector)
        if publish:
            self.sim.telemetry.publish()
        return self.report

    @property
    def _horizon(self) -> float:
        return self._origin + self.config.duration

    # -- session lifecycle --------------------------------------------------------

    def _arrive(self) -> None:
        now = self.sim.now
        sid = self._next_sid
        self._next_sid += 1
        self._m_arrivals.inc()
        self.collector.session_arrivals += 1
        self._trace("arrival", session=sid)

        if len(self._live) >= self.config.max_in_flight:
            self._m_rejected.inc()
            self.collector.session_rejections += 1
            self._trace("reject", session=sid, reason="capacity")
        else:
            rng = self._session_rng
            access = rng.choice(self._destinations)
            lifetime = self.config.session.draw_lifetime(rng)
            live = _LiveSession(sid=sid, access_proxy=access, ends_at=now + lifetime)
            self._live[sid] = live
            self._m_admitted.inc()
            self.collector.session_admissions += 1
            self._g_in_flight.set(len(self._live))
            self._trace("admit", session=sid, access=access, lifetime=lifetime)
            self.sim.schedule(lifetime, lambda: self._end_session(sid))
            self._issue(live)

        nxt = self._sampler.next_after(now)
        if nxt <= self._horizon:
            self.sim.schedule(nxt - now, self._arrive)

    def _end_session(self, sid: int) -> None:
        if self._live.pop(sid, None) is not None:
            self._g_in_flight.set(len(self._live))
            self._trace("session_end", session=sid)

    def _issue(self, live: _LiveSession) -> None:
        now = self.sim.now
        if live.sid not in self._live or now > self._horizon:
            return
        rng = self._workload_rng
        session = self.config.session
        destination = live.access_proxy
        source = rng.choice(self._proxies)
        if source == destination:
            candidates = [p for p in self._proxies if p != destination]
            source = rng.choice(candidates)
        length = session.draw_length(rng)
        nonlinear = rng.random() < session.nonlinear_fraction
        sg = random_service_graph(
            self.framework.catalog,
            length,
            nonlinear=nonlinear,
            sampler=self._service_sampler,
            seed=rng,
        )
        rid = self._next_rid
        self._next_rid += 1
        request = ServiceRequest(source, sg, destination)
        record = RequestRecord(rid=rid, session=live.sid, issued_at=now)
        self.collector.request(record)
        self._pending.append((record, request))
        self._m_requests.inc()
        self._trace(
            "request",
            req=rid,
            session=live.sid,
            source=source,
            destination=destination,
            services=[sg.service_of(s) for s in sg.topological_order()],
        )
        gap = session.draw_gap(self._session_rng)
        if now + gap <= live.ends_at:
            self.sim.schedule(gap, lambda: self._issue(live))

    # -- routing (micro-batched) ---------------------------------------------------

    def _flush(self) -> None:
        if not self._pending:
            return
        batch = self._pending
        self._pending = []
        result = self.router.route_many_detailed([req for _, req in batch])
        for (record, _), path, error in zip(batch, result.paths, result.errors):
            if error is not None:
                record.infeasible = True
                self._m_infeasible.inc()
                self._trace("infeasible", req=record.rid)
                continue
            assert path is not None
            record.routed = True
            self._dispatch(record.rid, path)

    # -- data plane -----------------------------------------------------------------

    def _dispatch(self, rid: int, path: ServicePath) -> None:
        self._flows[rid] = path
        first = path.hops[0].proxy
        # here, on the driver lane: a shard lane may not register for another
        for hop in path.hops:
            self._ensure_relay(hop.proxy)
        self.sim.send(
            Message(("traffic", first), ("traffic", first), "traffic_data", (rid, 0)),
            delay=0.0,
        )

    def _ensure_relay(self, proxy: ProxyId) -> None:
        if proxy not in self._relays:
            relay = _TrafficRelay(self, proxy)
            self._relays[proxy] = relay
            self.sim.register(relay)

    def _service_delay(self, proxy: ProxyId, at: float) -> float:
        """FIFO wait plus service time at *proxy*'s server, starting at *at*."""
        busy = self._busy_until.get(proxy, 0.0)
        wait = busy - at if busy > at else 0.0
        self._busy_until[proxy] = at + wait + self.config.service_time
        return wait + self.config.service_time

    def _hop(self, rid: int, index: int, relay: _TrafficRelay) -> None:
        path = self._flows.get(rid)
        if path is None:
            return  # duplicate delivery of an already-completed flow
        now = self.sim.now
        hop = path.hops[index]
        delay = 0.0
        if hop.service is not None:
            delay += self._service_delay(hop.proxy, now)
        if index == len(path.hops) - 1:
            self.sim.schedule(delay, lambda: self._complete(rid))
            return
        nxt = path.hops[index + 1].proxy
        delay += self.framework.overlay.true_delay(hop.proxy, nxt)
        relay.send(("traffic", nxt), "traffic_data", (rid, index + 1), delay=delay)

    def _complete(self, rid: int) -> None:
        path = self._flows.pop(rid, None)
        if path is None:
            return
        record = self.collector.records[rid]
        record.completed_at = self.sim.now
        sojourn = record.sojourn
        assert sojourn is not None
        self._m_completed.inc()
        self._h_sojourn.observe(sojourn)
        self._trace("complete", req=rid, latency=sojourn)

    # -- trace ----------------------------------------------------------------------

    def _trace(self, event: str, **fields: Any) -> None:
        entry: Dict[str, Any] = {"t": self.sim.now, "event": event}
        entry.update(fields)
        self.trace.append(entry)

    def dump_trace(self, path: str) -> int:
        """Write the request trace as JSON lines; returns the entry count.

        Byte-identical across runs with the same config + seed — the
        determinism contract the trace tests assert.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.trace:
                fh.write(json.dumps(entry, sort_keys=True, default=repr) + "\n")
        return len(self.trace)
