"""The physical-network substrate (the ns2 substitute).

:class:`PhysicalNetwork` wraps a generated topology and answers the two
questions the overlay layer asks:

* ``delay(u, v)`` — the true end-to-end propagation delay between two
  routers, i.e. the shortest-path delay over the weighted physical graph
  (what an uncongested ns2 run would report);
* ``measure(u, v)`` — a *noisy* RTT-style observation of that delay, with
  the paper's noise treatment available (take the minimum of several
  probes, Section 3.1).

Single-source delay maps are cached because the experiments ask for delays
from the same proxies thousands of times.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.graph.shortest_paths import dijkstra
from repro.netsim.topology import PhysicalTopology
from repro.util.errors import TopologyError
from repro.util.rng import RngLike, ensure_rng


class PhysicalNetwork:
    """Delay oracle over a physical topology.

    Args:
        topology: the generated physical topology.
        noise: multiplicative measurement-noise amplitude. A single probe of
            the delay ``d`` observes ``d * (1 + U[0, noise])`` — RTT samples
            are biased upward by queueing, never downward below the
            propagation floor.
        seed: RNG for measurement noise.
    """

    def __init__(
        self,
        topology: PhysicalTopology,
        noise: float = 0.10,
        seed: RngLike = None,
    ) -> None:
        if noise < 0:
            raise TopologyError(f"noise must be >= 0, got {noise}")
        self.topology = topology
        self.graph = topology.graph
        self.noise = noise
        self._rng = ensure_rng(seed)
        self._delay_cache: Dict[int, Dict[int, float]] = {}
        self._parent_cache: Dict[int, Dict[int, int]] = {}

    # -- true delays -------------------------------------------------------

    def delays_from(self, source: int) -> Dict[int, float]:
        """True shortest-path delay from *source* to every reachable router."""
        cached = self._delay_cache.get(source)
        if cached is None:
            cached, parents = dijkstra(self.graph, source)
            self._delay_cache[source] = cached
            self._parent_cache[source] = parents
        return cached

    def route(self, u: int, v: int) -> List[int]:
        """The router sequence of the shortest-delay path from *u* to *v*."""
        from repro.graph.shortest_paths import reconstruct_path

        if u == v:
            return [u]
        self.delays_from(u)  # populates the parent cache
        if v not in self._delay_cache[u]:
            raise TopologyError(f"router {v!r} unreachable from {u!r}")
        return reconstruct_path(self._parent_cache[u], u, v)

    def delay(self, u: int, v: int) -> float:
        """True end-to-end delay between routers *u* and *v* (ms)."""
        if u == v:
            return 0.0
        dist = self.delays_from(u)
        if v not in dist:
            raise TopologyError(f"router {v!r} unreachable from {u!r}")
        return dist[v]

    def delay_matrix(self, nodes: Sequence[int]) -> np.ndarray:
        """Dense true-delay matrix among *nodes* (``(n, n)`` float array)."""
        n = len(nodes)
        matrix = np.zeros((n, n), dtype=float)
        for i, u in enumerate(nodes):
            dist = self.delays_from(u)
            for j, v in enumerate(nodes):
                if i != j:
                    matrix[i, j] = dist[v]
        return matrix

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
        Dijkstra runs instead of ``len(sources)``. With a handful of landmark
        targets and thousands of proxy sources that removes the dominant
        construction cost (the per-proxy shortest-path sweeps).

        Delays are symmetric on the undirected physical graph, so the values
        differ from the source-side ones by at most float summation order
        (reversed-path addition; ulp-level).
        """
        if probes < 1:
            raise ValueError(f"probes must be >= 1, got {probes}")
        sources = list(sources)
        targets = list(targets)
        delays = np.empty((len(sources), len(targets)), dtype=float)
        for j, t in enumerate(targets):
            dist = self.delays_from(t)
            try:
                delays[:, j] = [0.0 if s == t else dist[s] for s in sources]
            except KeyError as exc:
                raise TopologyError(
                    f"router {t!r} unreachable from {exc.args[0]!r}"
                ) from None
        if self.noise == 0.0:
            return delays
        # :meth:`_noisy` over the whole matrix, in place: the stream is drawn
        # once, in source-major order, for the pairs that draw at all (a zero
        # delay is returned as it is); ``uniform(0.0, noise)`` is
        # ``0.0 + noise * random()``.
        live = delays != 0.0
        draw = self._rng.random
        draws = np.array([draw() for _ in range(int(live.sum()) * probes)])
        observed = delays[live][:, None] * (1.0 + self.noise * draws.reshape(-1, probes))
        delays[live] = observed.min(axis=1)
        return delays

    # -- misc ---------------------------------------------------------------

    def nearest(self, source: int, candidates: Iterable[int]) -> int:
        """The candidate router closest (true delay) to *source*."""
        dist = self.delays_from(source)
        best: Optional[int] = None
        best_d = float("inf")
        for c in candidates:
            d = 0.0 if c == source else dist.get(c, float("inf"))
            if d < best_d:
                best, best_d = c, d
        if best is None:
            raise TopologyError("candidates is empty or all unreachable")
        return best

    def warm_cache(self, sources: Iterable[int]) -> None:
        """Precompute delay maps from every router in *sources*."""
        for s in sources:
            self.delays_from(s)

    def pick_overlay_nodes(self, count: int, seed: RngLike = None) -> List[int]:
        """Choose *count* distinct stub routers to host overlay proxies."""
        rng = ensure_rng(seed)
        stubs = self.topology.stub_nodes
        if count > len(stubs):
            raise TopologyError(
                f"cannot place {count} proxies on {len(stubs)} stub routers"
            )
        return rng.sample(stubs, count)
