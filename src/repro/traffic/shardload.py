"""Synthetic 100k+-proxy workload for the sharded event simulator.

A full :meth:`HFCFramework.build` is quadratic in the proxy count (MST
clustering over the delay matrix), so the scale benches cannot construct
a real framework at n=100k. This module builds the *columnar state
directly*: clusters laid out on a grid with a guaranteed inter-cluster
gap, members uniform inside each cluster's radius, borders picked as the
member closest to the peer cluster's centre — the same shape the real
pipeline produces, at any n, in O(n·C).

Delivery delays are coordinate distances, so the coordinate lower bound
(:func:`repro.netsim.shard.coordinate_lookahead`) is a *valid* lookahead
by the triangle inequality, and the conservative window protocol is
exact.

:class:`UniformTraffic` is the matching :class:`ShardProgram`: every
proxy issues requests on a fixed period with a hash-derived phase and a
hash-derived destination, each request walking the paper's 4-node path
(source → own border → peer border → destination). Everything is a pure
function of (seed, proxy, request index) — no RNG stream is shared
across shards — so the completed-request count is bit-identical for any
shard count and any worker count: the ``shard`` study
(``benchmarks/numbers.py``) asserts that every issued request completes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.netsim.eventsim import Message, Process, Simulator
from repro.netsim.shard import ShardPlan, ShardProgram
from repro.state.columnar import ColumnarOverlayState, ColumnarShard
from repro.util.errors import StateError


def synthetic_overlay(
    n: int,
    clusters: int,
    *,
    seed: int = 0,
    spacing: float = 200.0,
    radius: float = 40.0,
    services: int = 8,
) -> ColumnarOverlayState:
    """A grid-of-clusters columnar overlay with a guaranteed cluster gap.

    Cluster centres sit on a square grid *spacing* apart; members are
    uniform in the square inscribed in the *radius* disk around their
    centre, so any two clusters are at least ``spacing - 2 * radius``
    apart and the coordinate lookahead is bounded away from zero.
    """
    if clusters < 1 or n < clusters:
        raise StateError(f"need 1 <= clusters <= n, got clusters={clusters}, n={n}")
    if spacing <= 2 * radius:
        raise StateError(
            f"spacing {spacing} must exceed twice the radius {radius} "
            "to keep clusters apart"
        )
    rng = np.random.default_rng(seed)
    side = math.ceil(math.sqrt(clusters))
    centers = np.array(
        [(spacing * (c % side), spacing * (c // side)) for c in range(clusters)],
        dtype=float,
    )
    base, extra = divmod(n, clusters)
    sizes = np.full(clusters, base, dtype=np.int64)
    sizes[:extra] += 1
    labels = np.repeat(np.arange(clusters, dtype=np.int64), sizes)
    # uniform in the inscribed square: max offset norm == radius exactly
    half = radius / math.sqrt(2.0)
    coords = centers[labels] + rng.uniform(-half, half, size=(n, 2))
    cluster_ptr = np.zeros(clusters + 1, dtype=np.int64)
    np.cumsum(sizes, out=cluster_ptr[1:])
    border_matrix = np.full((clusters, clusters), -1, dtype=np.int64)
    for cid in range(clusters):
        lo, hi = int(cluster_ptr[cid]), int(cluster_ptr[cid + 1])
        block = coords[lo:hi]
        # member closest to each peer centre; ties break to the lowest row,
        # matching the real border-selection convention
        dists = np.linalg.norm(block[:, None, :] - centers[None, :, :], axis=2)
        nearest = lo + np.argmin(dists, axis=0)
        border_matrix[cid, :] = nearest
        border_matrix[cid, cid] = -1
    vocab = sorted(f"svc{i}" for i in range(services))
    code_of = {name: i for i, name in enumerate(vocab)}
    codes = np.array([code_of[f"svc{r % services}"] for r in range(n)], dtype=np.int64)
    state = ColumnarOverlayState(
        proxies=np.arange(n, dtype=np.int64),
        coords=coords,
        labels=labels,
        cluster_ptr=cluster_ptr,
        cluster_members=np.arange(n, dtype=np.int64),
        border_matrix=border_matrix,
        service_names=vocab,
        placement_ptr=np.arange(n + 1, dtype=np.int64),
        placement_codes=codes,
    )
    state.validate()
    return state


def _mix(a: int, b: int, c: int = 0) -> int:
    """A small deterministic integer hash (no RNG stream to interleave)."""
    h = (a * 0x9E3779B1 + b * 0x85EBCA77 + c * 0xC2B2AE3D + 0x165667B1) & 0xFFFFFFFF
    h ^= h >> 15
    h = (h * 0x2C1B3C6D) & 0xFFFFFFFF
    h ^= h >> 12
    return h


class _Relay(Process):
    """Per-proxy hop forwarder for :class:`UniformTraffic`.

    Counters hang off the relay, not the program: one program instance
    sets up every shard in-process, so per-shard state must live with
    the shard's processes.
    """

    def __init__(
        self, address: Any, program: "UniformTraffic", shard: int, counters: Dict[str, Any]
    ) -> None:
        super().__init__(address)
        self.program = program
        self.shard = shard
        self.counters = counters

    def receive(self, message: Message) -> None:
        rid, path, idx = message[3]  # the payload
        if idx + 1 >= len(path):
            self.counters["completed"].inc()
        else:
            self.program._forward(self, rid, path, idx)


class UniformTraffic(ShardProgram):
    """Deterministic periodic request traffic over a synthetic overlay.

    Each proxy issues ``duration / period`` requests; request ``k`` of
    proxy ``p`` starts at phase ``hash(seed, p) % period`` and walks
    source → border(src-cluster → dst-cluster) → border(dst → src) →
    destination, where the destination cluster and member come from
    ``hash(seed, p, k)``. Hop delays are coordinate distances.
    """

    def __init__(
        self,
        state: ColumnarOverlayState,
        *,
        period: float = 500.0,
        duration: float = 2000.0,
        seed: int = 0,
    ) -> None:
        if period <= 0 or duration <= 0:
            raise StateError("period and duration must be positive")
        self.period = period
        self.duration = duration
        self.seed = seed
        # Plain-Python mirrors of the columns read per request and per hop:
        # indexing a numpy array boxes a fresh scalar (or row view) every
        # time, which costs more than the hop's own arithmetic.
        self.coords = [tuple(point) for point in state.coords.tolist()]
        self.proxies = state.proxies.tolist()
        self.labels = state.labels.tolist()
        self.cluster_ptr = state.cluster_ptr.tolist()
        self.cluster_members = state.cluster_members.tolist()
        self.border_matrix = state.border_matrix.tolist()

    # -- ShardProgram ------------------------------------------------------------

    def setup(self, sim: Simulator, view: Optional[ColumnarShard], plan: ShardPlan) -> None:
        if view is None:
            raise StateError("UniformTraffic needs the shard's columnar view")
        shard = view.shard
        registry = sim.telemetry.registry
        label = str(shard)
        counters = {
            "requests": registry.counter("shardload.requests", shard=label),
            "completed": registry.counter("shardload.completed", shard=label),
            "hops_intra": registry.counter("shardload.hops", shard=label, reach="intra"),
            "hops_cross": registry.counter("shardload.hops", shard=label, reach="cross"),
        }
        self._proxy_shard = plan.proxy_shard
        for row in view.member_rows.tolist():
            proxy = self.proxies[row]
            relay = _Relay(proxy, self, shard, counters)
            sim.register(relay)
            phase = (_mix(self.seed, proxy) % 10_000) / 10_000.0 * self.period
            sim.schedule(phase, self._issuer(sim, relay, row))

    def collect(self, sim: Simulator, shard: int) -> Dict[str, int]:
        registry = sim.telemetry.registry
        label = str(shard)
        return {
            "shard": shard,
            "requests": registry.counter("shardload.requests", shard=label).value,
            "completed": registry.counter("shardload.completed", shard=label).value,
            "hops_intra": registry.counter(
                "shardload.hops", shard=label, reach="intra"
            ).value,
            "hops_cross": registry.counter(
                "shardload.hops", shard=label, reach="cross"
            ).value,
        }

    # -- workload ----------------------------------------------------------------

    def _issuer(self, sim: Simulator, relay: _Relay, row: int):
        k = 0

        def issue() -> None:
            nonlocal k
            self._issue(sim, relay, row, k)
            k += 1
            if sim.now + self.period < self.duration:
                sim.schedule(self.period, issue)

        return issue

    def _issue(self, sim: Simulator, relay: _Relay, row: int, k: int) -> None:
        relay.counters["requests"].inc()
        src_cluster = self.labels[row]
        cluster_count = len(self.cluster_ptr) - 1
        h = _mix(self.seed, row, k)
        dst_cluster = h % cluster_count
        lo, hi = self.cluster_ptr[dst_cluster], self.cluster_ptr[dst_cluster + 1]
        dst_row = self.cluster_members[lo + _mix(h, k, 1) % (hi - lo)]
        if dst_cluster == src_cluster:
            path = (row, dst_row) if dst_row != row else (row,)
        else:
            out_border = self.border_matrix[src_cluster][dst_cluster]
            in_border = self.border_matrix[dst_cluster][src_cluster]
            path = (row, out_border, in_border, dst_row)
        rid = (row, k)
        if len(path) == 1:
            relay.counters["completed"].inc()
            return
        self._forward(relay, rid, path, 0)

    def _forward(self, relay: _Relay, rid: Any, path: Any, idx: int) -> None:
        nxt = path[idx + 1]
        dest_proxy = self.proxies[nxt]
        local = self._proxy_shard[dest_proxy] == relay.shard
        relay.counters["hops_intra" if local else "hops_cross"].inc()
        delay = math.dist(self.coords[path[idx]], self.coords[nxt])
        relay.send(dest_proxy, "hop", (rid, path, idx + 1), delay=delay)


@dataclass
class ShardLoadResult:
    """Aggregated outcome of one :class:`UniformTraffic` run."""

    proxies: int
    clusters: int
    shards: int
    workers: int
    events: int
    wall_seconds: float
    requests: int
    completed: int
    hops_intra: int
    hops_cross: int
    windows: int
    exchanged: int

    @property
    def event_rate(self) -> float:
        """Events per wall-clock second."""
        return self.events / self.wall_seconds if self.wall_seconds > 0 else 0.0

    @property
    def locality(self) -> float:
        """Fraction of hop messages that stayed shard-local."""
        hops = self.hops_intra + self.hops_cross
        return self.hops_intra / hops if hops else 1.0

    @property
    def completed_ratio(self) -> float:
        """Completed / issued requests."""
        return self.completed / self.requests if self.requests else 1.0


def run_shard_load(
    state: ColumnarOverlayState,
    *,
    shards: int,
    workers: Optional[int] = None,
    period: float = 500.0,
    duration: float = 2000.0,
    drain: Optional[float] = None,
    seed: int = 0,
    lookahead: Optional[float] = None,
) -> ShardLoadResult:
    """Run :class:`UniformTraffic` over *state* and aggregate the counters.

    *drain* is the extra horizon past the last issue instant; the default
    guarantees completion — every request walks at most 3 hops, each at
    most the coordinate bounding-box diagonal.
    """
    from repro.netsim.shard import run_sharded

    if drain is None:
        span = state.coords.max(axis=0) - state.coords.min(axis=0)
        drain = 3.0 * float(np.linalg.norm(span))
    plan = ShardPlan.from_state(state, shards, lookahead=lookahead)
    program = UniformTraffic(state, period=period, duration=duration, seed=seed)
    outcome = run_sharded(
        plan, program, until=duration + drain, workers=workers
    )
    totals = {"requests": 0, "completed": 0, "hops_intra": 0, "hops_cross": 0}
    for result in outcome.results:
        for key in totals:
            totals[key] += result[key]
    return ShardLoadResult(
        proxies=state.size,
        clusters=state.cluster_count,
        shards=outcome.shards,
        workers=outcome.workers,
        events=outcome.events,
        wall_seconds=outcome.wall_seconds,
        requests=totals["requests"],
        completed=totals["completed"],
        hops_intra=totals["hops_intra"],
        hops_cross=totals["hops_cross"],
        windows=outcome.windows,
        exchanged=outcome.exchanged,
    )
