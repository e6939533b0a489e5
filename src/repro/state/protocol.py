"""The hierarchical state-distribution protocol (paper Section 4), simulated.

Runs the paper's two message flows on the discrete-event engine:

1. **local state**: every proxy periodically sends the names of its own
   services to every member of its cluster; receivers update SCT_P.
2. **aggregate state**: every border proxy periodically unions its cluster's
   SCT_P into an aggregate, sends it over its external link(s) to the
   neighbouring border proxies; a border receiving a remote aggregate
   updates its SCT_C and forwards it into its own cluster; members update
   their SCT_C.

Message latency is the ground-truth delay between the proxies involved, so
convergence time reflects the real overlay geometry. Each message carries an
abstract size (number of service names), feeding the protocol-cost bench.

Forwarding is unconditional: a border re-floods every received remote
aggregate into its own cluster, exactly as the paper's rule reads ("is
responsible for forwarding it to other proxies of its own cluster"). This
costs one intra-cluster flood per neighbour border per aggregate period at
steady state, but it makes the soft-state flow self-healing — a lost
forward is repaired one period later. State is dropped only for silence: a
member unheard for ``EXPIRY_PERIODS`` local periods leaves its peers' SCT_P
on their own local timer.

The protocol loses nothing itself. Message loss is a fault: install a
:class:`~repro.faults.FaultInjector` with a ``LinkLoss`` plan on
:attr:`StateDistributionProtocol.sim`, and every lost copy lands in the
simulator's conservation ledger.

The wire carries sequence-numbered
:class:`~repro.state.delta.Announcement` payloads — the symmetric
difference since the stream's previous announcement, with a full snapshot
every ``refresh_every`` announcements as the soft-state safety net; stale
or gapped announcements are ignored by the receiver-side assembler.
``refresh_every=1`` makes every announcement a full snapshot: the paper's
re-flood-everything behaviour, which the ``state_bytes`` study
(``benchmarks/numbers.py``) uses as the cost baseline. Convergence semantics, ground-truth checks and the
per-proxy table contents do not depend on the cadence —
``tests/test_delta_state.py`` asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.netsim.eventsim import Message, Process, Simulator
from repro.overlay.hfc import HFCTopology
from repro.overlay.network import ProxyId
from repro.services.catalog import ServiceName
from repro.state.delta import Announcement, DeltaAssembler, DeltaEmitter, StreamId
from repro.state.tables import ProxyState
from repro.util.errors import StateError
from repro.util.rng import RngLike, ensure_rng

ClusterId = int

#: a member unheard for this many local periods (three full refreshes at the
#: default cadence) has left: its SCT_P entry is dropped. Twelve announcements
#: lost in a row is a 5e-7 event at the 30% loss the soft state rides out.
EXPIRY_PERIODS = 12


@dataclass
class ProtocolReport:
    """Cost and convergence summary of a protocol run.

    Derived from the simulator's metrics registry (the engine counts every
    delivery per kind), not from hand-rolled tallies.

    Attributes:
        converged_at: simulated time at which every proxy's tables matched
            ground truth (None if the run ended first).
        messages_by_kind: delivered message counts per kind.
        total_messages: all delivered messages.
        total_size: sum of message sizes (header + carried service names
            per announcement).
        messages_dropped: message copies the simulator dropped, to any cause
            (a fault plan's loss, a crash, an unregistered recipient).
        delivery_latency: per-kind ``{p50, p95, p99, mean}`` summaries of
            message delivery latency (simulated ms).
        dropped_bytes: sizes of those copies (so overhead reports can account
            for bytes put on the wire but never delivered).
        bytes_by_kind: delivered sizes per message kind.
        refresh: :meth:`StateDistributionProtocol.delta_stats` at the end;
            ``changed / applied`` is the useful share of the refresh flow.
        fault_drops: messages a fault injector on the simulator dropped, per cause.
    """

    converged_at: Optional[float]
    messages_by_kind: Dict[str, int]
    total_messages: int
    total_size: int
    messages_dropped: int = 0
    delivery_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    dropped_bytes: int = 0
    bytes_by_kind: Dict[str, int] = field(default_factory=dict)
    refresh: Dict[str, int] = field(default_factory=dict)
    fault_drops: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dump (the CLI's ``protocol --json``)."""
        return {
            "converged_at": self.converged_at,
            "messages_by_kind": dict(self.messages_by_kind),
            "total_messages": self.total_messages,
            "total_size": self.total_size,
            "messages_dropped": self.messages_dropped,
            "delivery_latency": {
                kind: dict(summary)
                for kind, summary in self.delivery_latency.items()
            },
            "dropped_bytes": self.dropped_bytes,
            "bytes_by_kind": dict(self.bytes_by_kind),
            "refresh": dict(self.refresh),
            "fault_drops": dict(self.fault_drops),
        }


class _ProxyAgent(Process):
    """One proxy participating in the state-distribution protocol."""

    def __init__(
        self,
        proxy: ProxyId,
        protocol: "StateDistributionProtocol",
    ) -> None:
        super().__init__(address=proxy)
        self.proxy = proxy
        self.protocol = protocol
        self.state = protocol.states[proxy]
        # Draw the start-up phase jitters at construction time, not in
        # :meth:`start`: construction order equals registration order equals
        # time-0 start order, so the values are identical to drawing them
        # lazily — but precomputing makes them independent of how start
        # events interleave, which the sharded engine relies on for
        # shard-count-invariant runs.
        rng = protocol._rng
        self._local_jitter = rng.uniform(0.0, protocol.local_period * 0.2)
        self._aggregate_jitter: Optional[float] = (
            rng.uniform(0.0, protocol.aggregate_period * 0.2)
            if protocol.border_peers.get(proxy)
            else None
        )
        self.emitter = DeltaEmitter(refresh_every=protocol.refresh_every)
        self.assembler = DeltaAssembler()

    # -- wire encoding --------------------------------------------------------

    def _encode(
        self, stream: StreamId, services: FrozenSet[ServiceName]
    ) -> "tuple[Announcement, int]":
        """The body + abstract size to put on the wire for *services*."""
        announcement = self.emitter.announce(stream, services)
        self.protocol.count_announcement(announcement)
        return announcement, announcement.wire_size

    def _decode(
        self, stream: StreamId, body: Announcement
    ) -> Optional[FrozenSet[ServiceName]]:
        """The capability set carried by *body*, or None if it was ignored."""
        stale_before = self.assembler.stale
        value = self.assembler.apply(stream, body)
        if value is None:
            reason = "stale" if self.assembler.stale > stale_before else "gap"
            self.protocol.count_ignored(reason)
        return value

    # -- behaviour ------------------------------------------------------------

    def start(self) -> None:
        sim = self.simulator
        assert sim is not None
        sim.schedule_every(
            self.protocol.local_period,
            self._broadcast_local,
            first_delay=self._local_jitter,
            owner=self.address,
        )
        if self._aggregate_jitter is not None:
            sim.schedule_every(
                self.protocol.aggregate_period,
                self._broadcast_aggregate,
                # The first aggregate only makes sense once local state had a
                # chance to spread; start after one local period.
                first_delay=self.protocol.local_period + self._aggregate_jitter,
                owner=self.address,
            )

    def _broadcast_local(self) -> None:
        state, now = self.state, self.simulator.now  # type: ignore[union-attr]
        if state.sct_p.expire(now - EXPIRY_PERIODS * self.protocol.local_period, self.proxy):
            state.sct_c.update(state.cluster_id, state.aggregate_own_cluster(), now=now)
        services = state.local_capability()
        body, size = self._encode(("local",), services)
        for member in self.protocol.cluster_members[self.state.cluster_id]:
            if member == self.proxy:
                continue
            self.send(
                member,
                "local_state",
                (self.proxy, body),
                delay=self.protocol.delay(self.proxy, member),
                size=size,
            )

    def _broadcast_aggregate(self) -> None:
        aggregate = self.state.aggregate_own_cluster()
        body, size = self._encode(("aggregate",), aggregate)
        for peer in self.protocol.border_peers[self.proxy]:
            self.send(
                peer,
                "aggregate_state",
                (self.state.cluster_id, body),
                delay=self.protocol.delay(self.proxy, peer),
                size=size,
            )

    def receive(self, message: Message) -> None:
        sim = self.simulator
        assert sim is not None
        if message.kind == "local_state":
            sender, body = message.payload
            stream = ("local", sender)
            services = self._decode(stream, body)
            if services is None:
                # ignored (stale or gapped) but heard: the sender is alive, so
                # what is held of it stays fresh until a full re-anchors it
                services = self.assembler.current(stream)
                if services is None:
                    return
            self.state.sct_p.update(sender, services, now=sim.now)
            self.state.sct_c.update(
                self.state.cluster_id, self.state.aggregate_own_cluster(), now=sim.now
            )
        elif message.kind in ("aggregate_state", "aggregate_forward"):
            cluster, body = message.payload
            flow = "aggregate" if message.kind == "aggregate_state" else "forward"
            stream = (flow, message.sender, cluster)
            services = self._decode(stream, body)
            if services is not None:
                self.state.sct_c.update(cluster, services, now=sim.now)
            elif message.kind == "aggregate_state":
                # The announcement was ignored (stale or gapped), but a
                # border must keep re-flooding its latest knowledge so each
                # hop's full-refresh cadence heals independently — gaps must
                # not compound across the aggregate -> forward chain.
                services = self.assembler.current(stream)
            if services is None:
                return
            # Forward every received aggregate into the own cluster (the
            # paper's rule). Unconditional forwarding makes the soft-state
            # flow self-healing: a lost forward is repaired one aggregate
            # period later when the peer border re-sends.
            if message.kind == "aggregate_state":
                fwd_body, fwd_size = self._encode(("forward", cluster), services)
                for member in self.protocol.cluster_members[self.state.cluster_id]:
                    if member == self.proxy:
                        continue
                    self.send(
                        member,
                        "aggregate_forward",
                        (cluster, fwd_body),
                        delay=self.protocol.delay(self.proxy, member),
                        size=fwd_size,
                    )
        else:
            raise StateError(f"unknown message kind {message.kind!r}")


class ProtocolCapabilityFeed:
    """A versioned SCT_C view over a running protocol (feed contract).

    ``version`` is the observer proxy's SCT_C revision counter — it
    advances exactly when the observed table content changes, so routers
    bound to this feed refresh (and drop their caches) precisely when the
    protocol learned something new. Duck-typed against
    :class:`repro.core.versioning.CapabilityFeed`.
    """

    def __init__(self, protocol: "StateDistributionProtocol") -> None:
        self._protocol = protocol
        self._observer = protocol.states[protocol.hfc.overlay.proxies[0]]

    @property
    def version(self) -> int:
        return self._observer.sct_c.revision

    def capabilities(self) -> Dict[ClusterId, FrozenSet[ServiceName]]:
        return self._protocol.capabilities_for_routing()


class StateDistributionProtocol:
    """Drives the Section-4 protocol over an HFC topology."""

    def __init__(
        self,
        hfc: HFCTopology,
        *,
        local_period: float = 500.0,
        aggregate_period: float = 1000.0,
        seed: RngLike = None,
        telemetry=None,
        refresh_every: int = 4,
        sim: Optional[Simulator] = None,
    ) -> None:
        if local_period <= 0 or aggregate_period <= 0:
            raise StateError("protocol periods must be positive")
        if refresh_every < 1:
            raise StateError(f"refresh_every must be >= 1, got {refresh_every}")
        self.hfc = hfc
        self.local_period = local_period
        self.aggregate_period = aggregate_period
        #: every K-th announcement per stream is a full snapshot (1: all)
        self.refresh_every = refresh_every
        self._rng = ensure_rng(seed)
        # An injected simulator (e.g. one with shard lanes) brings its own
        # telemetry scope; the protocol only creates one when it owns the sim.
        self.sim = sim if sim is not None else Simulator(telemetry=telemetry)
        registry = self.sim.telemetry.registry
        self._announced_full = registry.counter(
            "protocol.announcements", kind="full"
        )
        self._announced_delta = registry.counter(
            "protocol.announcements", kind="delta"
        )

        self.cluster_members: Dict[ClusterId, List[ProxyId]] = {
            cid: list(hfc.members(cid)) for cid in range(hfc.cluster_count)
        }
        # border proxy -> the remote border proxies it exchanges aggregates with
        self.border_peers: Dict[ProxyId, List[ProxyId]] = {
            p: [] for p in hfc.overlay.proxies
        }
        for (i, j), border in hfc.borders.items():
            self.border_peers[border].append(hfc.borders[(j, i)])

        # Initial knowledge: every proxy knows its own services (and therefore
        # a provisional aggregate of its own cluster = just itself).
        self.states: Dict[ProxyId, ProxyState] = {}
        for proxy in hfc.overlay.proxies:
            state = ProxyState(proxy=proxy, cluster_id=hfc.cluster_of(proxy))
            state.sct_p.update(proxy, hfc.overlay.placement[proxy], now=0.0)
            state.sct_c.update(state.cluster_id, hfc.overlay.placement[proxy], now=0.0)
            self.states[proxy] = state

        self._agents: List[_ProxyAgent] = []
        self._agent_of: Dict[ProxyId, _ProxyAgent] = {}
        for proxy in hfc.overlay.proxies:
            agent = _ProxyAgent(proxy, self)
            self._agents.append(agent)
            self._agent_of[proxy] = agent
            self.sim.register(agent)

    # -- plumbing ---------------------------------------------------------------

    def delay(self, u: ProxyId, v: ProxyId) -> float:
        """Message latency between two proxies (ground-truth delay)."""
        return self.hfc.overlay.true_delay(u, v)

    def count_announcement(self, announcement: Announcement) -> None:
        """Tally an announcement by kind (full vs delta)."""
        if announcement.is_full:
            self._announced_full.inc()
        else:
            self._announced_delta.inc()

    def count_ignored(self, reason: str) -> None:
        """Tally a receiver-side ignored announcement (stale or gap)."""
        self.sim.telemetry.registry.counter(
            "protocol.delta.ignored", reason=reason
        ).inc()

    def delta_stats(self) -> Dict[str, int]:
        """Aggregate assembler statistics across all proxies; ``changed`` is
        the SCT writes that changed content (the tables' revisions)."""
        stats = {"applied": 0, "stale": 0, "gaps": 0, "changed": 0}
        for agent in self._agents:
            stats["applied"] += agent.assembler.applied
            stats["stale"] += agent.assembler.stale
            stats["gaps"] += agent.assembler.gaps
            stats["changed"] += agent.state.sct_p.revision + agent.state.sct_c.revision
        return stats

    # -- dynamics ----------------------------------------------------------------

    def update_local_services(self, proxy: ProxyId, services) -> None:
        """Change the services installed on *proxy* mid-run.

        Updates the ground truth (the overlay placement) and the proxy's own
        SCT_P entry; the change then propagates through the normal periodic
        local-state and aggregate-state flows — re-convergence time is the
        interesting measurement. The next announcements carry exactly the
        add/remove difference.
        """
        if proxy not in self.states:
            raise StateError(f"unknown proxy {proxy!r}")
        services = frozenset(services)
        self.hfc.overlay.placement[proxy] = services
        state = self.states[proxy]
        state.sct_p.update(proxy, services, now=self.sim.now)
        state.sct_c.update(
            state.cluster_id, state.aggregate_own_cluster(), now=self.sim.now
        )

    def wipe_state(self, proxy: ProxyId, *, services=None) -> None:
        """Crash/restart *proxy* with a state wipe.

        The restarted proxy forgets everything it learned: its SCT_P and
        SCT_C shrink back to self-knowledge (exactly the initial state),
        its emitter restarts under the next incarnation and its assembler
        comes back empty. Everything re-fills through
        the normal periodic flows — the fault-injection suite measures how
        long that takes.

        Pass *services* to model the proxy coming back with a different
        service set (ground truth is updated like
        :meth:`update_local_services`); by default it restarts with the
        services it had.
        """
        agent = self._agent_of.get(proxy)
        if agent is None:
            raise StateError(f"unknown proxy {proxy!r}")
        placement = self.hfc.overlay.placement
        if services is not None:
            placement[proxy] = frozenset(services)
        now = self.sim.now
        state = ProxyState(proxy=proxy, cluster_id=self.hfc.cluster_of(proxy))
        state.sct_p.update(proxy, placement[proxy], now=now)
        state.sct_c.update(state.cluster_id, placement[proxy], now=now)
        self.states[proxy] = state
        agent.state = state
        # the incarnation bump is the restart's only surviving memory;
        # without it peers would reject the fresh streams as stale
        agent.emitter = agent.emitter.restart()
        agent.assembler = DeltaAssembler()
        self.sim.telemetry.registry.counter("protocol.restarts").inc()

    def remove_proxy(self, proxy: ProxyId) -> None:
        """Permanently remove *proxy* from the protocol and the simulator.

        The agent is deregistered (in-flight messages to it become counted
        drops, its periodic broadcasts stop re-arming), and the membership
        structures forget it so ground truth and peer fan-outs shrink.
        Soft-state entries other proxies hold about it age out: a member
        drops the SCT_P entry ``EXPIRY_PERIODS`` local periods after it last
        heard the proxy — removal is a lifecycle operation, not a retraction.
        """
        agent = self._agent_of.pop(proxy, None)
        if agent is None:
            raise StateError(f"unknown proxy {proxy!r}")
        self._agents.remove(agent)
        state = self.states.pop(proxy)
        members = self.cluster_members.get(state.cluster_id)
        if members is not None and proxy in members:
            members.remove(proxy)
        self.border_peers.pop(proxy, None)
        for peers in self.border_peers.values():
            while proxy in peers:
                peers.remove(proxy)
        if self.sim.is_registered(proxy):
            self.sim.deregister(proxy)
        self.sim.telemetry.registry.counter("protocol.departures").inc()

    def track_membership(self, overlay) -> Callable[..., None]:
        """Subscribe to a :class:`DynamicOverlay`-style change notifier.

        ``leave`` events call :meth:`remove_proxy` for proxies this protocol
        still tracks, so sustained churn no longer grows the simulator's
        process registry or crashes on in-flight messages to departed
        proxies. The subscription lasts as long as the notifier; returns the
        subscribed callback.
        """

        def _on_change(version: int, **info: object) -> None:
            proxy = info.get("proxy")
            if info.get("kind") == "leave" and proxy in self._agent_of:
                self.remove_proxy(proxy)  # type: ignore[arg-type]

        return overlay.notifier.subscribe(_on_change)

    def snapshot_proxy(self, proxy: ProxyId) -> Dict[str, object]:
        """A JSON-ready capture of everything *proxy* knows right now.

        Covers the proxy's SCT tables (with exact revisions and
        timestamps), its emitter history and its assembler streams. Feed the result to :meth:`restore_state` for a warm
        restart, or to ``repro.persistence.save_snapshot`` via
        :meth:`snapshot_state_plane` to persist it.
        """
        from repro.state.serialize import (
            assembler_to_dict,
            emitter_to_dict,
            proxy_state_to_dict,
        )

        agent = self._agent_of.get(proxy)
        if agent is None:
            raise StateError(f"unknown proxy {proxy!r}")
        return {
            "state": proxy_state_to_dict(self.states[proxy]),
            "emitter": emitter_to_dict(agent.emitter),
            "assembler": assembler_to_dict(agent.assembler),
        }

    def snapshot_state_plane(self) -> Dict[str, object]:
        """Per-proxy :meth:`snapshot_proxy` captures for every proxy.

        The shape ``repro.persistence.save_snapshot`` accepts as its
        ``state_plane`` argument (keys are proxy ids as strings — the
        capture is JSON all the way down).
        """
        return {
            str(proxy): self.snapshot_proxy(proxy)
            for proxy in self.hfc.overlay.proxies
        }

    def restore_state(
        self, proxy: ProxyId, snapshot: Dict[str, object], *, services=None
    ) -> None:
        """Warm-restart *proxy* from a :meth:`snapshot_proxy` capture.

        The warm path restores the learned SCT tables and the assembler's
        reassembled streams — routing-relevant knowledge survives the
        crash — then refreshes the proxy's *own* entries against current
        ground truth (pass *services* if it came back with a different
        service set). The emitter does **not** resume mid-stream: its
        incarnation bumps past both the saved and the current one, so
        peers that saw pre-crash announcements accept the fresh streams
        (same invariant as :meth:`wipe_state`); announcements produced
        while the proxy was down appear to it as gaps and re-anchor at
        the next full refresh.
        """
        from repro.state.serialize import (
            assembler_from_dict,
            proxy_state_from_dict,
        )

        agent = self._agent_of.get(proxy)
        if agent is None:
            raise StateError(f"unknown proxy {proxy!r}")
        placement = self.hfc.overlay.placement
        if services is not None:
            placement[proxy] = frozenset(services)
        now = self.sim.now
        state = proxy_state_from_dict(snapshot["state"])  # type: ignore[arg-type]
        if state.proxy != proxy:
            raise StateError(
                f"snapshot belongs to proxy {state.proxy!r}, not {proxy!r}"
            )
        state.cluster_id = self.hfc.cluster_of(proxy)
        state.sct_p.update(proxy, placement[proxy], now=now)
        state.sct_c.update(
            state.cluster_id, state.aggregate_own_cluster(), now=now
        )
        self.states[proxy] = state
        agent.state = state
        # captures written by the former full mode carry neither key
        saved = snapshot.get("emitter") or {}
        saved_incarnation = int(saved.get("incarnation", 0))  # type: ignore[union-attr]
        agent.emitter = DeltaEmitter(
            refresh_every=agent.emitter.refresh_every,
            incarnation=max(saved_incarnation, agent.emitter.incarnation) + 1,
        )
        assembler_payload = snapshot.get("assembler")
        agent.assembler = (
            assembler_from_dict(assembler_payload)  # type: ignore[arg-type]
            if assembler_payload is not None
            else DeltaAssembler()
        )
        registry = self.sim.telemetry.registry
        registry.counter("protocol.restarts").inc()
        registry.counter("protocol.restarts.warm").inc()

    @property
    def refresh_period(self) -> float:
        """Simulated time between full-snapshot refreshes of the aggregate
        flow — the unit the convergence auditor's K budget is expressed in.
        """
        return self.refresh_every * self.aggregate_period

    # -- ground truth and convergence -----------------------------------------------

    def ground_truth_sct_p(self, proxy: ProxyId) -> Dict[ProxyId, FrozenSet[ServiceName]]:
        """What *proxy*'s SCT_P should contain once converged."""
        cid = self.hfc.cluster_of(proxy)
        placement = self.hfc.overlay.placement
        return {m: placement[m] for m in self.cluster_members[cid]}

    def ground_truth_sct_c(self) -> Dict[ClusterId, FrozenSet[ServiceName]]:
        """What every SCT_C should contain once converged."""
        placement = self.hfc.overlay.placement
        result: Dict[ClusterId, FrozenSet[ServiceName]] = {}
        for cid, members in self.cluster_members.items():
            union: set = set()
            for m in members:
                union |= placement[m]
            result[cid] = frozenset(union)
        return result

    def converged(self) -> bool:
        """True if every proxy's SCT_P and SCT_C match ground truth."""
        truth_c = self.ground_truth_sct_c()
        for proxy, state in self.states.items():
            if state.sct_p.as_dict() != self.ground_truth_sct_p(proxy):
                return False
            if state.sct_c.as_dict() != truth_c:
                return False
        return True

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        max_time: float = 20000.0,
        *,
        check_interval: float = 250.0,
        stop_on_convergence: bool = True,
    ) -> ProtocolReport:
        """Run the protocol until convergence (or *max_time*).

        Convergence is checked every *check_interval* simulated units; the
        reported ``converged_at`` is therefore an upper bound within one
        interval of the true instant.
        """
        converged_at: Optional[float] = None
        t = 0.0
        while t < max_time:
            t = min(t + check_interval, max_time)
            self.sim.run_until(t)
            if converged_at is None and self.converged():
                converged_at = self.sim.now
                if stop_on_convergence:
                    break
        registry = self.sim.telemetry.registry
        latency_summaries: Dict[str, Dict[str, float]] = {}
        for hist in registry.collect("sim.delivery.latency"):
            if hist.count:
                kind = dict(hist.labels)["kind"]
                latency_summaries[kind] = {
                    "p50": hist.quantile(0.50),
                    "p95": hist.quantile(0.95),
                    "p99": hist.quantile(0.99),
                    "mean": hist.mean,
                }
        return ProtocolReport(
            converged_at=converged_at,
            messages_by_kind=registry.values_by_label(
                "sim.messages.delivered", "kind"
            ),
            total_messages=self.sim.messages_delivered,
            total_size=self.sim.bytes_delivered,
            messages_dropped=self.sim.messages_dropped,
            delivery_latency=latency_summaries,
            dropped_bytes=registry.total("sim.bytes.dropped"),
            bytes_by_kind=registry.values_by_label("sim.bytes.delivered", "kind"),
            refresh=self.delta_stats(),
            fault_drops=registry.values_by_label("faults.dropped", "cause"),
        )

    def capabilities_for_routing(self) -> Dict[ClusterId, FrozenSet[ServiceName]]:
        """A destination proxy's current SCT_C view, usable by the router.

        Picks an arbitrary fixed proxy (the first overlay proxy) as the
        observer; useful for wiring possibly-stale protocol state into
        :class:`~repro.routing.hierarchical.HierarchicalRouter`.
        """
        observer = self.states[self.hfc.overlay.proxies[0]]
        return {
            cid: observer.sct_c.services_of(cid)
            for cid in range(self.hfc.cluster_count)
            if cid in observer.sct_c
        }

    def capability_feed(self) -> ProtocolCapabilityFeed:
        """A versioned feed over :meth:`capabilities_for_routing`.

        Bind it to a router (``capability_feed=...``) and the router
        refreshes — invalidating any cached answers — exactly when the
        observer's SCT_C content changes.
        """
        return ProtocolCapabilityFeed(self)
