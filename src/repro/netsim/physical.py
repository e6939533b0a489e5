"""The physical-network substrate (the ns2 substitute).

:class:`PhysicalNetwork` wraps a generated topology and answers the two
questions the overlay layer asks:

* ``delay(u, v)`` — the true end-to-end propagation delay between two
  routers, i.e. the shortest-path delay over the weighted physical graph
  (what an uncongested ns2 run would report);
* ``measure(u, v)`` — a *noisy* RTT-style observation of that delay, with
  the paper's noise treatment available (take the minimum of several
  probes, Section 3.1).

Single-source delays are float rows over the router ids, computed by the
relaxation kernel (:class:`repro.graph.shortest_paths.ArcIndex`) over the
topology's edge columns and cached per source, because the experiments ask
for delays from the same proxies thousands of times.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.graph.shortest_paths import ArcIndex, walk
from repro.netsim.topology import PhysicalTopology
from repro.telemetry import Telemetry, get_telemetry
from repro.util.errors import TopologyError
from repro.util.rng import RngLike, ensure_rng, uniform_draws

_INF = float("inf")


class DelayRow:
    """One source's shortest-path delays as a float row.

    ``array[v]`` is the delay to router ``v``, ``inf`` where ``v`` cannot be
    reached; the kernels read :attr:`array` directly, and ``item`` is its
    scalar read, bound once because :meth:`PhysicalNetwork.delay` does one per
    simulated message.
    """

    __slots__ = ("array", "item")

    def __init__(self, array: np.ndarray) -> None:
        self.array = array
        self.item = array.item


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
        self._parents: Dict[int, np.ndarray] = {}
        self._arcs = ArcIndex(
            topology.node_count, topology.edge_u, topology.edge_v, topology.edge_w
        )

    # -- true delays -------------------------------------------------------

    def delays_from(self, source: int) -> DelayRow:
        """True shortest-path delay from *source* to every reachable router."""
        try:
            return self._rows[source]
        except KeyError:
            row = self._rows[source] = DelayRow(self._relax(source))
            return row

    def _relax(self, source: int) -> np.ndarray:
        """Shortest-path delays from *source* as a float row, ``inf`` = unreachable."""
        if source not in self.topology.node_kind:
            raise TopologyError(f"unknown router {source!r}")
        dist, rounds = self._arcs.distances(source)
        self._registry.counter("physical.rows").inc()
        self._registry.histogram("physical.relax_rounds").observe(rounds)
        return dist

    def route(self, u: int, v: int) -> List[int]:
        """The router sequence of the shortest-delay path from *u* to *v*."""
        if u == v:
            return [u]
        self.delay(u, v)  # unknown and unreachable routers raise here
        parents = self._parents.get(u)
        if parents is None:
            parents = self._parents[u] = self._arcs.parents(self.delays_from(u).array, u)
        return walk(parents, u, v)

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
