"""The physical-network substrate (the ns2 substitute).

:class:`PhysicalNetwork` wraps a generated topology and answers the two
questions the overlay layer asks:

* ``delay(u, v)`` — the true end-to-end propagation delay between two
  routers, i.e. the shortest-path delay over the weighted physical graph
  (what an uncongested ns2 run would report);
* ``measure(u, v)`` — a *noisy* RTT-style observation of that delay, with
  the paper's noise treatment available (take the minimum of several
  probes, Section 3.1).

Single-source delays are float rows over the router ids, computed by one
numpy relaxation kernel over the topology's edge columns and cached per
source, because the experiments ask for delays from the same proxies
thousands of times.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence

import numpy as np

from repro.graph.graph import Graph
from repro.graph.shortest_paths import dijkstra, reconstruct_path
from repro.netsim.topology import PhysicalTopology
from repro.telemetry import Telemetry, get_telemetry
from repro.util.errors import TopologyError
from repro.util.rng import RngLike, ensure_rng, uniform_draws

_INF = float("inf")


class DelayRow(Mapping[int, float]):
    """One source's shortest-path delays, as a mapping over a float row.

    ``array[v]`` is the delay to router ``v``, ``inf`` where ``v`` cannot be
    reached; the kernels read :attr:`array` directly, and ``item`` is its
    scalar read, bound once because :meth:`PhysicalNetwork.delay` does one per
    simulated message. As a mapping it holds the reachable routers only, like
    the ``dist`` dict of :func:`repro.graph.shortest_paths.dijkstra`.
    """

    __slots__ = ("array", "item")

    def __init__(self, array: np.ndarray) -> None:
        self.array = array
        self.item = array.item

    def __getitem__(self, router: int) -> float:
        try:
            delay = self.item(router)
        except (IndexError, TypeError):
            raise KeyError(router) from None
        if delay == _INF or router < 0:
            raise KeyError(router)
        return delay

    def __iter__(self) -> Iterator[int]:
        return iter(np.flatnonzero(self.array != _INF).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.array != _INF))


class PhysicalNetwork:
    """Delay oracle over a physical topology.

    Args:
        topology: the generated physical topology.
        noise: multiplicative measurement-noise amplitude. A single probe of
            the delay ``d`` observes ``d * (1 + U[0, noise])`` — RTT samples
            are biased upward by queueing, never downward below the
            propagation floor.
        seed: RNG for measurement noise.
        telemetry: scope for the ``physical.rows`` counter and the
            ``physical.relax_rounds`` histogram; the process scope when None.
    """

    def __init__(
        self,
        topology: PhysicalTopology,
        noise: float = 0.10,
        seed: RngLike = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if noise < 0:
            raise TopologyError(f"noise must be >= 0, got {noise}")
        self.topology = topology
        self.noise = noise
        self._rng = ensure_rng(seed)
        self._registry = (telemetry if telemetry is not None else get_telemetry()).registry
        self._rows: Dict[int, DelayRow] = {}
        self._parent_cache: Dict[int, Dict[int, int]] = {}
        # The relaxation kernel's index: every link as two arcs (arc j < m runs
        # edge_u[j] -> edge_v[j], arc m + j the other way), sorted by destination
        # so one ``reduceat`` takes each router's best offer. The sort key is the
        # narrowest dtype that holds a router id: numpy radix-sorts 16-bit keys.
        narrow = np.min_scalar_type(max(topology.node_count - 1, 0))
        dst = np.concatenate(
            [topology.edge_v, topology.edge_u], dtype=narrow, casting="unsafe"
        )
        order = np.argsort(dst, kind="stable")
        dst = dst[order]
        starts = np.empty(len(dst), dtype=bool)
        starts[:1] = True
        np.not_equal(dst[1:], dst[:-1], out=starts[1:])
        self._arc_heads = np.flatnonzero(starts)
        self._arc_dst = dst[self._arc_heads].astype(np.intp)
        self._arc_src = np.concatenate([topology.edge_u, topology.edge_v]).take(order)
        self._arc_w = topology.edge_w.take(order, mode="wrap")

    @property
    def graph(self) -> Graph:
        """The topology's derived :class:`Graph` view."""
        return self.topology.graph

    # -- true delays -------------------------------------------------------

    def delays_from(self, source: int) -> DelayRow:
        """True shortest-path delay from *source* to every reachable router."""
        try:
            return self._rows[source]
        except KeyError:
            row = self._rows[source] = DelayRow(self._relax(source))
            return row

    def _relax(self, source: int) -> np.ndarray:
        """Shortest-path delays from *source* as a float row, ``inf`` = unreachable.

        Synchronous relaxation: every round each router takes the minimum of its
        delay and ``delay[neighbour] + link`` over its arcs, until nothing moves
        (longest shortest path's hops + 1 rounds). Float addition is monotone, so
        the fixpoint is Dijkstra's left-to-right path sums bit for bit (DESIGN §7).
        """
        if source not in self.topology.node_kind:
            raise TopologyError(f"unknown router {source!r}")
        dist = np.full(self.topology.node_count, _INF)
        dist[source] = 0.0
        src, w, heads, dst = self._arc_src, self._arc_w, self._arc_heads, self._arc_dst
        offers = np.empty(len(src))
        rounds = 0
        while len(src):
            rounds += 1
            np.take(dist, src, out=offers)
            offers += w
            held = dist[dst]
            best = np.minimum(held, np.minimum.reduceat(offers, heads))
            if np.array_equal(best, held):
                break
            dist[dst] = best
        self._registry.counter("physical.rows").inc()
        self._registry.histogram("physical.relax_rounds").observe(rounds)
        return dist

    def route(self, u: int, v: int) -> List[int]:
        """The router sequence of the shortest-delay path from *u* to *v*."""
        if u == v:
            return [u]
        parents = self._parent_cache.get(u)
        if parents is None:
            parents = self._parent_cache[u] = dijkstra(self.graph, u)[1]
        if v not in parents:
            raise TopologyError(f"router {v!r} unreachable from {u!r}")
        return reconstruct_path(parents, u, v)

    def delay(self, u: int, v: int) -> float:
        """True end-to-end delay between routers *u* and *v* (ms)."""
        if u == v:
            return 0.0
        try:
            delay = self.delays_from(u).item(v)
        except IndexError:
            delay = _INF
        if delay == _INF or v < 0:
            raise TopologyError(f"router {v!r} unreachable from {u!r}")
        return delay

    def delay_matrix(self, nodes: Sequence[int]) -> np.ndarray:
        """Dense true-delay matrix among *nodes* (``(n, n)`` float array)."""
        return self._rows_at(nodes, nodes)

    def _router_index(self, routers: Sequence[int]) -> np.ndarray:
        """*routers* as an index array into a delay row."""
        index = np.asarray(routers, dtype=np.intp).reshape(-1)
        if len(index) and not 0 <= index.min() <= index.max() < self.topology.node_count:
            raise TopologyError(f"unknown router among {routers!r}")
        return index

    def _rows_at(self, sources: Sequence[int], columns: Sequence[int]) -> np.ndarray:
        """``[i, j]`` = true delay from ``sources[i]`` to ``columns[j]``: one
        row and one ``take`` per source."""
        index = self._router_index(columns)
        delays = np.empty((len(sources), len(index)), dtype=float)
        for i, s in enumerate(sources):
            np.take(self.delays_from(s).array, index, out=delays[i])
        lost = np.argwhere(delays == _INF)
        if len(lost):
            i, j = lost[0]
            raise TopologyError(f"router {columns[j]!r} unreachable from {sources[i]!r}")
        return delays

    # -- noisy measurements --------------------------------------------------

    def measure(self, u: int, v: int, probes: int = 1) -> float:
        """A noisy delay measurement between *u* and *v*.

        Takes the minimum over *probes* independent observations, the paper's
        own treatment for filtering Internet noise ("we take the minimum
        value of several measurements", Section 3.1).
        """
        if probes < 1:
            raise ValueError(f"probes must be >= 1, got {probes}")
        return self._noisy(self.delay(u, v), probes)

    def _noisy(self, true: float, probes: int) -> float:
        """Min-of-*probes* noisy observation of the delay *true*.

        :meth:`measure_many` applies the same rule to a whole matrix and
        draws the exact same noise stream for the same pair sequence.
        """
        if self.noise == 0.0 or true == 0.0:
            return true
        return min(
            true * (1.0 + self._rng.uniform(0.0, self.noise)) for _ in range(probes)
        )

    def measure_many(
        self, sources: Sequence[int], targets: Sequence[int], probes: int = 1
    ) -> np.ndarray:
        """Noisy measurements for every (source, target) pair, as an array.

        Semantically equivalent to the nested loop ``[[measure(s, t, probes)
        for t in targets] for s in sources]`` — it consumes the identical
        noise stream in the identical (source-major) order — but obtains the
        true delays from the *target* side: ``len(targets)`` single-source
        rows instead of ``len(sources)``. With a handful of landmark
        targets and thousands of proxy sources that removes the dominant
        construction cost (the per-proxy shortest-path sweeps).

        Delays are symmetric on the undirected physical graph, so the values
        differ from the source-side ones by at most float summation order
        (reversed-path addition; ulp-level).
        """
        if probes < 1:
            raise ValueError(f"probes must be >= 1, got {probes}")
        delays = np.ascontiguousarray(self._rows_at(list(targets), list(sources)).T)
        if self.noise == 0.0:
            return delays
        # :meth:`_noisy` over the whole matrix, in place: the stream is drawn
        # once, in source-major order, for the pairs that draw at all (a zero
        # delay is returned as it is); ``uniform(0.0, noise)`` is
        # ``0.0 + noise * random()``.
        live = delays != 0.0
        draws = uniform_draws(self._rng, int(live.sum()) * probes)
        observed = delays[live][:, None] * (1.0 + self.noise * draws.reshape(-1, probes))
        delays[live] = observed.min(axis=1)
        return delays

    # -- misc ---------------------------------------------------------------

    def nearest(self, source: int, candidates: Iterable[int]) -> int:
        """The candidate router closest (true delay) to *source*."""
        pool = list(candidates)
        delays = self.delays_from(source).array.take(self._router_index(pool))
        if not pool or delays.min() == _INF:
            raise TopologyError("candidates is empty or all unreachable")
        return pool[int(delays.argmin())]

    def pick_overlay_nodes(self, count: int, seed: RngLike = None) -> List[int]:
        """Choose *count* distinct stub routers to host overlay proxies."""
        rng = ensure_rng(seed)
        stubs = self.topology.stub_nodes
        if count > len(stubs):
            raise TopologyError(
                f"cannot place {count} proxies on {len(stubs)} stub routers"
            )
        return rng.sample(stubs, count)
