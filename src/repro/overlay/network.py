"""The service overlay network: proxies on routers, services on proxies.

An :class:`OverlayNetwork` ties together the three substrates every routing
strategy consumes: the physical delay oracle, the proxy set (identified by
the routers they sit on), and the static service placement. The optional
coordinate space is attached after the landmark embedding runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional

import numpy as np

from repro.coords.space import CoordinateSpace
from repro.netsim.physical import PhysicalNetwork
from repro.services.catalog import ServiceName
from repro.services.placement import Placement
from repro.util.errors import ServiceModelError, TopologyError

ProxyId = int


@dataclass
class OverlayNetwork:
    """Proxies + services + delay oracle.

    Attributes:
        physical: the physical-network substrate.
        proxies: the routers hosting overlay proxies (a proxy is identified
            by its router id).
        placement: static service installation per proxy.
        space: network-coordinate space over the proxies (None until the
            embedding step has run).
    """

    physical: PhysicalNetwork
    proxies: List[ProxyId]
    placement: Placement
    space: Optional[CoordinateSpace] = None
    _index: Dict[ProxyId, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.proxies:
            raise TopologyError("overlay needs at least one proxy")
        if len(set(self.proxies)) != len(self.proxies):
            raise TopologyError("duplicate proxy ids")
        missing = [p for p in self.proxies if p not in self.placement]
        if missing:
            raise ServiceModelError(f"proxies without service placement: {missing[:5]}")
        self._index = {p: i for i, p in enumerate(self.proxies)}

    @classmethod
    def over_space(
        cls,
        physical: PhysicalNetwork,
        space: CoordinateSpace,
        placement: Placement,
    ) -> "OverlayNetwork":
        """The overlay of *space*'s nodes in its order, with *placement* (taken, not
        copied) and the space's own row map as its index (neither is edited after):
        what the constructor builds for ``proxies=space.nodes()``, without a Python
        step per proxy."""
        if len(placement) != len(space):
            raise ServiceModelError(
                f"placement covers {len(placement)} proxies, the space {len(space)}"
            )
        overlay = cls.__new__(cls)
        overlay.physical, overlay.proxies = physical, space.nodes()
        overlay.placement, overlay.space = placement, space
        overlay._index = space.row_map
        return overlay

    @property
    def size(self) -> int:
        """Number of proxies."""
        return len(self.proxies)

    def index_of(self, proxy: ProxyId) -> int:
        """Dense index of *proxy* (for matrix-based providers)."""
        try:
            return self._index[proxy]
        except KeyError:
            raise TopologyError(f"unknown proxy {proxy!r}") from None

    def services_of(self, proxy: ProxyId) -> FrozenSet[ServiceName]:
        """Services installed on *proxy*."""
        self.index_of(proxy)
        return self.placement[proxy]

    def providers_of(self, service: ServiceName) -> List[ProxyId]:
        """All proxies hosting *service*."""
        return [p for p in self.proxies if service in self.placement[p]]

    def true_delay(self, u: ProxyId, v: ProxyId) -> float:
        """Ground-truth end-to-end delay between two proxies."""
        return self.physical.delay(u, v)

    def true_delay_matrix(self) -> np.ndarray:
        """Dense ground-truth delay matrix in proxy-index order (cached)."""
        cached = getattr(self, "_true_matrix", None)
        if cached is None:
            cached = self.physical.delay_matrix(self.proxies)
            self._true_matrix = cached
        return cached

    def coordinate_distance(self, u: ProxyId, v: ProxyId) -> float:
        """Estimated (coordinate-space) distance between two proxies."""
        if self.space is None:
            raise TopologyError("overlay has no coordinate space attached")
        return self.space.distance(u, v)
