"""QoS extension: bandwidth-aware service routing (paper Section 7).

"How to embed QoS (e.g., network bandwidth, machine load, machine
volatility) into hierarchical service topologies, and properly aggregate
those pieces of information into meaningful service routing state, are
important issues."

This extension implements the bandwidth half of that future work:

* a :class:`BandwidthModel` assigns capacities to physical links (transit
  links fat, stub links thin); an overlay link's bandwidth is the bottleneck
  along the shortest-delay physical route between its endpoints;
* :class:`BandwidthAwareProvider` masks overlay links below a requested
  bandwidth to infinity, turning the service-DAG kernel into
  *widest-shortest* routers (shortest delay among bandwidth-feasible paths);
* :class:`QoSHierarchicalRouter` runs the divide-and-conquer routing with
  bandwidth-pruned cluster-level edges (an external link below the
  requirement disqualifies that cluster transition) and bandwidth-pruned
  intra-cluster links;
* aggregation helpers expose the pessimistic/optimistic cluster-pair
  bandwidth aggregates a Section-4-style protocol would distribute.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.netsim.physical import PhysicalNetwork
from repro.overlay.hfc import HFCTopology
from repro.overlay.network import OverlayNetwork, ProxyId
from repro.routing.flat import FlatRouter
from repro.routing.hierarchical import ChildHops, ChildRequest, HierarchicalRouter
from repro.routing.providers import CoordinateProvider, DistanceProvider
from repro.util.errors import NoFeasiblePathError, RoutingError
from repro.util.rng import RngLike, ensure_rng


class BandwidthModel:
    """Capacities on physical links; bottleneck queries for overlay links.

    Args:
        physical: the physical network.
        stub_range: uniform capacity range (Mbps) for stub-incident links.
        transit_range: uniform capacity range for transit-transit links.
        seed: RNG seed for the capacity draw.
    """

    def __init__(
        self,
        physical: PhysicalNetwork,
        *,
        stub_range: Tuple[float, float] = (10.0, 100.0),
        transit_range: Tuple[float, float] = (155.0, 1000.0),
        seed: RngLike = None,
    ) -> None:
        if stub_range[0] <= 0 or transit_range[0] <= 0:
            raise RoutingError("bandwidth ranges must be positive")
        self.physical = physical
        rng = ensure_rng(seed)
        topo = physical.topology
        transit = np.array([topo.node_kind[n] == "transit" for n in range(topo.node_count)])
        low = np.minimum(topo.edge_u, topo.edge_v)
        high = np.maximum(topo.edge_u, topo.edge_v)
        # Capacities are drawn link by link in the order ``Graph.edges()``
        # lists them — grouped by lower endpoint, generation order within —
        # so a seed keeps giving each link the capacity it always had.
        order = np.argsort(low, kind="stable")
        core = (transit[low] & transit[high])[order].tolist()
        self._capacity: Dict[Tuple[int, int], float] = {}
        for key, is_core in zip(zip(low[order].tolist(), high[order].tolist()), core):
            bounds = transit_range if is_core else stub_range
            self._capacity[key] = rng.uniform(*bounds)
        self._bottleneck_cache: Dict[Tuple[int, int], float] = {}

    def link_capacity(self, u: int, v: int) -> float:
        """Capacity of the physical link {u, v}."""
        try:
            return self._capacity[_key(u, v)]
        except KeyError:
            raise RoutingError(f"no physical link between {u!r} and {v!r}") from None

    def overlay_bandwidth(self, u: ProxyId, v: ProxyId) -> float:
        """Bottleneck bandwidth of the overlay link (u, v).

        The minimum link capacity along the shortest-delay physical route —
        what an overlay pair would observe end to end.
        """
        if u == v:
            return float("inf")
        key = _key(u, v)
        cached = self._bottleneck_cache.get(key)
        if cached is None:
            route = self.physical.route(u, v)
            cached = min(
                self.link_capacity(a, b) for a, b in zip(route, route[1:])
            )
            self._bottleneck_cache[key] = cached
        return cached

    def path_bandwidth(self, proxies: Sequence[ProxyId]) -> float:
        """Bottleneck bandwidth along a multi-hop overlay path."""
        if len(proxies) < 2:
            return float("inf")
        return min(
            self.overlay_bandwidth(a, b) for a, b in zip(proxies, proxies[1:])
        )


def _key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class BandwidthAwareProvider(DistanceProvider):
    """Wraps a delay provider, masking links below *min_bandwidth* to inf."""

    def __init__(
        self,
        base: DistanceProvider,
        model: BandwidthModel,
        min_bandwidth: float,
    ) -> None:
        if min_bandwidth < 0:
            raise RoutingError("min_bandwidth must be >= 0")
        self.base = base
        self.model = model
        self.min_bandwidth = min_bandwidth

    def pair(self, u: ProxyId, v: ProxyId) -> float:
        if u != v and self.model.overlay_bandwidth(u, v) < self.min_bandwidth:
            return float("inf")
        return self.base.pair(u, v)

    def pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """The base distances of proxy pairs, ``inf`` where the link is too thin."""
        base, (us, vs) = self.base, np.broadcast_arrays(us, vs)
        ends = us.ravel().tolist(), vs.ravel().tolist()
        out = np.array(base.pairs(*map(base.points, ends)), dtype=float)
        for i, (u, v) in enumerate(zip(*ends)):
            if u != v and self.model.overlay_bandwidth(u, v) < self.min_bandwidth:
                out[i] = np.inf
        return out.reshape(us.shape)


def qos_flat_router(
    overlay: OverlayNetwork,
    model: BandwidthModel,
    min_bandwidth: float,
    **kwargs: Any,
) -> FlatRouter:
    """Flat widest-shortest router: shortest delay among feasible links."""
    if overlay.space is None:
        raise RoutingError("overlay has no coordinate space attached")
    provider = BandwidthAwareProvider(
        CoordinateProvider(overlay.space), model, min_bandwidth
    )
    kwargs.setdefault("name", f"qos-flat(bw>={min_bandwidth})")
    return FlatRouter(overlay, provider, **kwargs)


class _BandwidthFilteredHFC:
    """The cluster-level surface whose infeasible external links report
    infinite length. Spelled out, with no ``__getattr__`` fall-through to the
    topology, so :func:`~repro.routing.batch.query_tables` builds this
    view's own tables instead of finding the topology's cached ones.
    """

    def __init__(
        self, hfc: HFCTopology, model: BandwidthModel, min_bandwidth: float
    ) -> None:
        self._hfc = hfc
        self._model = model
        self._min_bandwidth = min_bandwidth
        self.cluster_count = hfc.cluster_count
        self.cluster_of = hfc.cluster_of
        self.border = hfc.border
        self.space = hfc.space

    def external_estimate(self, i: int, j: int) -> float:
        u, v = self.border(i, j), self.border(j, i)
        if self._model.overlay_bandwidth(u, v) < self._min_bandwidth:
            return float("inf")
        return self._hfc.external_estimate(i, j)


class QoSHierarchicalRouter(HierarchicalRouter):
    """Hierarchical routing under a minimum-bandwidth requirement.

    Cluster-level transitions whose border link cannot carry the requirement
    are pruned (infinite external length); intra-cluster child routing masks
    infeasible member links the same way. Raises
    :class:`~repro.util.errors.NoFeasiblePathError` when no
    bandwidth-feasible service path exists.
    """

    def __init__(
        self,
        hfc: HFCTopology,
        model: BandwidthModel,
        min_bandwidth: float,
        **kwargs: Any,
    ) -> None:
        self.model = model
        self.min_bandwidth = min_bandwidth
        super().__init__(hfc, **kwargs)

    def _bind(self, hfc: HFCTopology) -> None:
        super()._bind(hfc)
        self.cluster_view = _BandwidthFilteredHFC(
            hfc, self.model, self.min_bandwidth
        )
        self._provider = BandwidthAwareProvider(
            self._provider, self.model, self.min_bandwidth
        )

    def _conquer(self, children: Sequence[ChildRequest]) -> List[ChildHops]:
        """Intra-cluster solving plus a bandwidth check on every child hop.

        Children with services route through the bandwidth-masked provider
        already; a child with *no* services is a direct border-to-border
        relay that the provider never sees, so each link between the hop
        proxies of every child is verified here. Infeasible means the whole
        CSP choice was infeasible.
        """
        outcomes = super()._conquer(children)
        for at, hops in enumerate(outcomes):
            if isinstance(hops, NoFeasiblePathError):
                continue
            for (u, _, _), (v, _, _) in zip(hops, hops[1:]):
                # a link from a proxy to itself carries anything
                bottleneck = self.model.overlay_bandwidth(u, v)
                if bottleneck < self.min_bandwidth:
                    outcomes[at] = NoFeasiblePathError(
                        f"intra-cluster link ({u!r}, {v!r}) cannot carry "
                        f"{self.min_bandwidth} (bottleneck {bottleneck:.1f})"
                    )
                    break
        return outcomes


def cluster_pair_bandwidth(
    hfc: HFCTopology, model: BandwidthModel
) -> Dict[Tuple[int, int], float]:
    """The border-link bandwidth per cluster pair — the natural aggregate a
    Section-4 protocol would advertise for inter-cluster QoS state."""
    result: Dict[Tuple[int, int], float] = {}
    for (i, j), u in hfc.borders.items():
        if i < j:
            v = hfc.borders[(j, i)]
            result[(i, j)] = model.overlay_bandwidth(u, v)
    return result


def intra_cluster_bandwidth_stats(
    hfc: HFCTopology, model: BandwidthModel, cluster_id: int
) -> Dict[str, float]:
    """min/mean/max bottleneck bandwidth over a cluster's internal links."""
    members = hfc.members(cluster_id)
    values = [
        model.overlay_bandwidth(u, v)
        for a, u in enumerate(members)
        for v in members[a + 1 :]
    ]
    if not values:
        return {"min": float("inf"), "mean": float("inf"), "max": float("inf")}
    return {
        "min": float(min(values)),
        "mean": float(np.mean(values)),
        "max": float(max(values)),
    }
