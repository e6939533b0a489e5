"""Distance providers: the pluggable metric behind the service-DAG kernel.

Every routing strategy is "service-DAG shortest paths over *some* distance",
and the distances differ per strategy:

* flat full-state routing over coordinates → :class:`CoordinateProvider`;
* an oracle upper bound over true delays → :class:`TrueDelayProvider`;
* mesh routing over mesh shortest-path distances, or HFC full-state routing
  over HFC-overlay distances → :class:`MatrixProvider`.

A provider answers single-pair queries and, for the kernel
(:class:`~repro.routing.batch.ProxyCosts`), elementwise ones: it maps
proxies to :meth:`~DistanceProvider.points` once, and
:meth:`~DistanceProvider.pairs` measures two arrays of them pair by pair.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Sequence

import numpy as np

from repro.coords.space import CoordinateSpace
from repro.overlay.network import OverlayNetwork, ProxyId
from repro.util.errors import RoutingError


class DistanceProvider(ABC):
    """Distance oracle between overlay proxies."""

    @abstractmethod
    def pair(self, u: ProxyId, v: ProxyId) -> float:
        """Distance from *u* to *v*."""

    def points(self, proxies: Sequence[ProxyId]) -> np.ndarray:
        """What :meth:`pairs` reads per proxy: by default the proxy itself."""
        return np.array(proxies)

    @abstractmethod
    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Distance from each of *us* to the one of *vs* it meets when the
        two arrays of :meth:`points` broadcast together."""


class CoordinateProvider(DistanceProvider):
    """Geometric distances in a coordinate space (estimate-based routing):
    a point is a row of ``space.stacked`` (its last axis), every distance the
    ``sqrt(einsum(diff, diff))`` of two rows."""

    def __init__(self, space: CoordinateSpace) -> None:
        self.space = space

    def pair(self, u: ProxyId, v: ProxyId) -> float:
        return self.space.distance(u, v)

    def points(self, proxies: Sequence[ProxyId]) -> np.ndarray:
        return self.space.stacked.take(self.space.rows(proxies), axis=0)

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        diff = us - vs
        return np.sqrt(np.einsum("...k,...k->...", diff, diff))


class MatrixProvider(DistanceProvider):
    """Distances read from a precomputed matrix (mesh APSP, HFC overlay):
    a point is a matrix index."""

    def __init__(self, index: Dict[ProxyId, int], matrix: np.ndarray) -> None:
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise RoutingError(f"matrix must be square, got shape {matrix.shape}")
        self.index = index
        self.matrix = matrix

    def _i(self, p: ProxyId) -> int:
        try:
            return self.index[p]
        except KeyError:
            raise RoutingError(f"proxy {p!r} not covered by this provider") from None

    def pair(self, u: ProxyId, v: ProxyId) -> float:
        return float(self.matrix[self._i(u), self._i(v)])

    def points(self, proxies: Sequence[ProxyId]) -> np.ndarray:
        return np.array([self._i(p) for p in proxies], dtype=np.int64)

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self.matrix[us, vs]


class TrueDelayProvider(DistanceProvider):
    """Ground-truth physical delays (an oracle router for bounds/tests): a
    point is a proxy's index into the overlay's cached delay matrix."""

    def __init__(self, overlay: OverlayNetwork) -> None:
        self.overlay = overlay

    def pair(self, u: ProxyId, v: ProxyId) -> float:
        return self.overlay.true_delay(u, v)

    def points(self, proxies: Sequence[ProxyId]) -> np.ndarray:
        return np.array([self.overlay.index_of(p) for p in proxies], dtype=np.int64)

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self.overlay.true_delay_matrix()[us, vs]
