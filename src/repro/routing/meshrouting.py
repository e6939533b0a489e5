"""Routing over the single-level mesh baseline (paper Section 6.2).

A mesh router has global state (the full mesh topology with measured link
delays), so it finds *optimal-within-the-mesh* service paths: instance
distances are mesh shortest-path distances, and chosen hops expand into the
relay proxies along those mesh routes — the paper's core argument for why
statically configured meshes lose to HFC: runtime-defined neighbouring
services end up several overlay hops apart.

Also here: :func:`hfc_full_state_router`, the "HFC without aggregation"
comparison case of Fig. 10 — same HFC topology, but every proxy knows the
whole system, so a single node computes the entire concrete path over the
HFC overlay graph.
"""

from __future__ import annotations

from typing import Any, Dict, List

import numpy as np

from repro.graph.graph import Graph
from repro.graph.shortest_paths import dijkstra, reconstruct_path
from repro.overlay.hfc import HFCTopology
from repro.overlay.network import OverlayNetwork, ProxyId
from repro.routing.flat import FlatRouter
from repro.routing.providers import MatrixProvider
from repro.util.errors import RoutingError


class MeshRouter(FlatRouter):
    """Optimal service routing over an overlay mesh.

    Precomputes all-pairs mesh shortest paths (distances + parent tables) at
    construction, then answers requests through the generic flat solver with
    relay expansion along mesh routes.
    """

    def __init__(self, overlay: OverlayNetwork, mesh: Graph, **kwargs: Any) -> None:
        for proxy in overlay.proxies:
            if proxy not in mesh:
                raise RoutingError(f"proxy {proxy!r} missing from mesh")
        self.mesh = mesh
        index = {p: i for i, p in enumerate(overlay.proxies)}
        n = len(overlay.proxies)
        matrix = np.full((n, n), np.inf)
        self._parents: Dict[ProxyId, Dict[ProxyId, ProxyId]] = {}
        for proxy in overlay.proxies:
            dist, parent = dijkstra(mesh, proxy)
            self._parents[proxy] = parent
            i = index[proxy]
            for other, d in dist.items():
                if other in index:
                    matrix[i, index[other]] = d
        if not np.isfinite(matrix).all():
            raise RoutingError("mesh is disconnected; cannot build mesh router")
        kwargs.setdefault("name", "mesh")
        super().__init__(
            overlay,
            MatrixProvider(index, matrix),
            expander=self._expand,
            **kwargs,
        )

    def _expand(self, u: ProxyId, v: ProxyId) -> List[ProxyId]:
        """The mesh relay chain from *u* to *v* (endpoints included)."""
        if u == v:
            return [u]
        return reconstruct_path(self._parents[u], u, v)

    def mesh_distance(self, u: ProxyId, v: ProxyId) -> float:
        """Shortest mesh distance between two proxies."""
        return self.provider.pair(u, v)


def hfc_full_state_router(hfc: HFCTopology, **kwargs: Any) -> FlatRouter:
    """The "HFC without aggregation" router (Fig. 10's third bar).

    Every proxy holds full state — all coordinates and all service
    capabilities — so one node computes the optimal concrete path over the
    HFC overlay graph directly. Routing distances are coordinate estimates
    along the best HFC route (direct intra-cluster links, border links across
    clusters); chosen hops expand through the border relays actually used.
    """
    overlay = hfc.overlay
    route_matrix, _ = hfc.routing_matrices()
    index = {p: i for i, p in enumerate(overlay.proxies)}
    kwargs.setdefault("name", "hfc-full-state")
    return FlatRouter(
        overlay,
        MatrixProvider(index, route_matrix),
        expander=hfc.expand_hop,
        **kwargs,
    )
