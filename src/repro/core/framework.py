"""The public facade: build an HFC service-overlay and route requests.

:class:`HFCFramework` wires the whole pipeline of the paper together:

1. generate (or accept) a physical transit-stub network;
2. place proxies on stub routers and install services (Table 1 style);
3. obtain the distance map via landmark embedding (Section 3.1);
4. cluster by Zahn's MST method (Section 3.2) and select border proxies
   (Section 3.3) — yielding the HFC topology;
5. expose the routing strategies of Section 5 / Section 6.2 plus the state
   protocol of Section 4.

Typical use::

    framework = HFCFramework.build(proxy_count=250, seed=7)
    router = framework.hierarchical_router()
    request = framework.random_request(seed=1)
    path = router.route(request)
    print(path, path.true_delay(framework.overlay))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.mstcluster import Clustering, cluster_nodes
from repro.coords.embedding import EmbeddingReport, build_coordinate_space
from repro.coords.space import CoordinateSpace
from repro.core.config import FrameworkConfig
from repro.core.versioning import MutableCapabilityFeed
from repro.graph.graph import Graph
from repro.netsim.physical import PhysicalNetwork
from repro.netsim.topology import transit_stub
from repro.overlay.hfc import HFCTopology, build_hfc
from repro.overlay.mesh import build_mesh
from repro.overlay.network import OverlayNetwork
from repro.routing.flat import FlatRouter, coordinate_router, oracle_router
from repro.routing.hierarchical import HierarchicalRouter
from repro.routing.meshrouting import MeshRouter, hfc_full_state_router
from repro.services.catalog import ServiceCatalog, scaled_catalog
from repro.services.graph import linear_graph
from repro.services.placement import aggregate_capability, install_services
from repro.services.request import ServiceRequest
from repro.state.columnar import ColumnarOverlayState, attach_columnar
from repro.state.overhead import (
    mean_coordinates_overhead,
    mean_service_overhead,
)
from repro.state.protocol import ProtocolReport, StateDistributionProtocol
from repro.util.errors import ReproError
from repro.util.rng import RngLike, ensure_rng, spawn


@dataclass
class HFCFramework:
    """A fully built HFC service-overlay system."""

    config: FrameworkConfig
    physical: PhysicalNetwork
    overlay: OverlayNetwork
    catalog: ServiceCatalog
    space: CoordinateSpace
    embedding_report: EmbeddingReport
    clustering: Clustering
    hfc: HFCTopology

    # -- construction ------------------------------------------------------------

    @classmethod
    def build(
        cls,
        proxy_count: int,
        *,
        config: Optional[FrameworkConfig] = None,
        physical: Optional[PhysicalNetwork] = None,
        catalog: Optional[ServiceCatalog] = None,
        seed: RngLike = None,
        telemetry=None,
    ) -> "HFCFramework":
        """Build the full pipeline for *proxy_count* proxies.

        Args:
            proxy_count: overlay size n.
            config: framework tunables (defaults reproduce the paper).
            physical: pre-built physical network; generated when None.
            catalog: service catalog; a scale-invariant generic catalog is
                generated when None.
            seed: master seed; every stage derives an independent stream.
            telemetry: optional :class:`~repro.telemetry.Telemetry` scope
                for the ``construct.*`` phase spans; defaults to the
                process scope.
        """
        from repro.telemetry import get_telemetry

        if proxy_count < 2:
            raise ReproError("proxy_count must be >= 2")
        config = config or FrameworkConfig()
        rng = ensure_rng(seed)
        telemetry = telemetry if telemetry is not None else get_telemetry()
        tracer = telemetry.tracer

        with tracer.span("construct", proxies=proxy_count):
            if physical is None:
                with tracer.span("construct.topology"):
                    with tracer.span("construct.topology.wire"):
                        topo = transit_stub(
                            config.physical_size_for(proxy_count),
                            config=config.transit_stub,
                            seed=spawn(rng, "topology"),
                        )
                    with tracer.span("construct.topology.index"):
                        physical = PhysicalNetwork(
                            topo,
                            noise=config.measurement_noise,
                            seed=spawn(rng, "noise"),
                            telemetry=telemetry,
                        )
            proxies = physical.pick_overlay_nodes(
                proxy_count, seed=spawn(rng, "proxies")
            )

            with tracer.span("construct.embedding"):
                space, report = build_coordinate_space(
                    physical,
                    proxies,
                    landmark_count=config.landmark_count,
                    dimension=config.dimension,
                    probes=config.probes,
                    seed=spawn(rng, "embedding"),
                    telemetry=telemetry,
                )

            with tracer.span("construct.services"):
                if catalog is None:
                    mean_services = (
                        config.min_services_per_proxy + config.max_services_per_proxy
                    ) / 2.0
                    catalog = scaled_catalog(
                        proxy_count,
                        services_per_proxy_mean=mean_services,
                        instances_per_service=config.instances_per_service,
                    )
                placement = install_services(
                    proxies,
                    catalog,
                    min_per_proxy=config.min_services_per_proxy,
                    max_per_proxy=min(config.max_services_per_proxy, len(catalog)),
                    seed=spawn(rng, "placement"),
                )
            overlay = OverlayNetwork(
                physical=physical, proxies=proxies, placement=placement, space=space
            )
            with tracer.span("construct.clustering") as span:
                clustering = cluster_nodes(space, proxies, config.clustering)
                span.attributes.update(clustering.stats)
            with tracer.span("construct.borders", clusters=clustering.cluster_count):
                hfc = build_hfc(overlay, clustering)
            with tracer.span("construct.columnar"):
                attach_columnar(
                    hfc,
                    ColumnarOverlayState.from_parts(
                        proxies=list(proxies),
                        space=space,
                        clustering=clustering,
                        borders=hfc.borders,
                        placement=placement,
                    ),
                )
        return cls(
            config=config,
            physical=physical,
            overlay=overlay,
            catalog=catalog,
            space=space,
            embedding_report=report,
            clustering=clustering,
            hfc=hfc,
        )

    @property
    def columnar(self) -> ColumnarOverlayState:
        """The struct-of-arrays overlay state attached to :attr:`hfc`.

        Frameworks assembled outside :meth:`build` (e.g. restored by
        ``repro.persistence``) get theirs built and attached on first
        access, so every framework exposes the shared columnar view.
        """
        state = getattr(self.hfc, "columnar", None)
        if state is None:
            state = ColumnarOverlayState.from_framework(self)
            attach_columnar(self.hfc, state)
        return state

    def simulator(
        self,
        *,
        shards: Optional[int] = None,
        telemetry=None,
        lookahead: Optional[float] = None,
    ):
        """An event simulator for this overlay, sharded when asked.

        *shards* of 1 (or ``None``) returns a single-heap
        :class:`~repro.netsim.eventsim.Simulator`. Higher counts hand it a
        plan that partitions proxies by hierarchy cluster (clamped to the
        cluster count) with the exact physical cross-shard delay as the
        conservative lookahead — results are shard-count-invariant.
        """
        from repro.netsim.eventsim import Simulator
        from repro.netsim.shard import ShardPlan

        count = min(shards or 1, self.columnar.cluster_count)
        if count <= 1:
            return Simulator(telemetry=telemetry)
        plan = ShardPlan.from_framework(self, count, lookahead=lookahead)
        return Simulator(telemetry=telemetry, plan=plan)

    # -- recursive hierarchy -------------------------------------------------------

    def build_hierarchy(self, levels: int = 3):
        """Build (or restore) a depth-*levels* recursive hierarchy.

        The single entry point of the level-generic hierarchy:
        ``levels=2`` wraps the bi-level HFC untouched and leaves any
        attached stack alone; every extra level re-clusters the centroids
        of the level below (greedy k-center) and selects borders by the
        closest-pair rule one level up. The resulting upper-level CSR
        arrays are attached to :attr:`columnar`, so snapshots round-trip
        the full stack and per-level query tables are shared zero-copy
        with every router built from it.

        When the columnar state already carries a stack of the right depth
        (e.g. a framework restored from a snapshot), that stack is
        materialised directly — no re-clustering or border re-selection
        runs.
        """
        from repro.hierarchy.levels import build_levels, levels_from_columnar

        if levels == 2:
            return build_levels(self.hfc, 2)
        state = self.columnar
        if len(state.levels) == levels - 2:
            return levels_from_columnar(state, self.hfc)
        hierarchy = build_levels(self.hfc, levels)
        state.attach_levels(hierarchy.levels)
        hierarchy.columnar = state
        return hierarchy

    def hierarchy_router(
        self,
        levels: int = 3,
        method: str = "backtrack",
        *,
        hierarchy=None,
        **kwargs,
    ):
        """A router over a depth-*levels* recursive hierarchy.

        ``levels=2`` is exactly :meth:`hierarchical_router`; deeper
        hierarchies route with the recursive divide-and-conquer router.
        Pass a pre-built *hierarchy* to skip construction (``levels`` is
        then ignored).
        """
        from repro.hierarchy.levels import RecursiveRouter

        if hierarchy is None:
            hierarchy = self.build_hierarchy(levels)
        if hierarchy.depth == 2:
            return self.hierarchical_router(method=method, **kwargs)
        return RecursiveRouter(hierarchy, method=method, **kwargs)

    # -- routers -------------------------------------------------------------------

    def hierarchical_router(
        self, method: str = "backtrack", **kwargs
    ) -> HierarchicalRouter:
        """The paper's divide-and-conquer router (HFC with aggregation).

        Extra keyword arguments pass through to :class:`HierarchicalRouter`.
        """
        return HierarchicalRouter(self.hfc, method=method, **kwargs)

    def cached_hierarchical_router(
        self,
        method: str = "backtrack",
        cache_size: int = 1024,
        capability_feed=None,
        **kwargs,
    ):
        """The hierarchical router with CSP memoisation (production shape).

        Pass ``capability_feed`` (e.g. :meth:`capability_feed` or a
        protocol's feed) to make cache invalidation version-driven: the
        router drops its CSPs exactly when the feed's version moves.
        """
        from repro.routing.cache import CachedHierarchicalRouter

        return CachedHierarchicalRouter(
            self.hfc,
            method=method,
            cache_size=cache_size,
            capability_feed=capability_feed,
            **kwargs,
        )

    def mesh_router(self, *, seed: RngLike = None, mesh: Optional[Graph] = None) -> MeshRouter:
        """The single-level mesh baseline router."""
        if mesh is None:
            mesh = build_mesh(
                self.overlay, weight=self.config.mesh_weight, seed=seed
            )
        return MeshRouter(self.overlay, mesh)

    def full_state_router(self) -> FlatRouter:
        """HFC topology without aggregation (full state at every proxy)."""
        return hfc_full_state_router(self.hfc)

    def flat_router(self) -> FlatRouter:
        """Flat fully-connected routing over coordinates (upper reference)."""
        return coordinate_router(self.overlay)

    def oracle_router(self) -> FlatRouter:
        """Flat routing over ground-truth delays (the unbeatable bound)."""
        return oracle_router(self.overlay)

    # -- requests -----------------------------------------------------------------

    def random_request(
        self,
        *,
        min_length: int = 4,
        max_length: int = 10,
        seed: RngLike = None,
    ) -> ServiceRequest:
        """A Table-1-style random linear request between two random proxies."""
        rng = ensure_rng(seed)
        src, dst = rng.sample(self.overlay.proxies, 2)
        length = rng.randint(min_length, max_length)
        names = [rng.choice(list(self.catalog.names)) for _ in range(length)]
        return ServiceRequest(src, linear_graph(names), dst)

    # -- state & overheads ---------------------------------------------------------

    def capability_feed(self) -> MutableCapabilityFeed:
        """A versioned cluster-capability view seeded with exact aggregation.

        The feed starts from ground truth (the Section-4 aggregation rule
        applied to the current placement) and is thereafter advanced by
        whoever owns it — :meth:`MutableCapabilityFeed.publish` on
        membership or placement changes. Bind it to a
        :meth:`cached_hierarchical_router` for version-driven cache
        invalidation.
        """
        return MutableCapabilityFeed(
            {
                cid: aggregate_capability(
                    self.overlay.placement, self.hfc.members(cid)
                )
                for cid in range(self.hfc.cluster_count)
            }
        )

    def run_state_protocol(
        self,
        max_time: float = 20000.0,
        seed: RngLike = None,
        *,
        refresh_every: int = 4,
    ) -> ProtocolReport:
        """Simulate the Section-4 protocol to convergence; returns its report.

        The wire carries sequence-numbered delta announcements with a full
        refresh every ``refresh_every`` periods (1: every announcement is
        a full snapshot, the re-flood-everything baseline).
        """
        protocol = StateDistributionProtocol(
            self.hfc, seed=seed, refresh_every=refresh_every
        )
        return protocol.run(max_time=max_time)

    def coordinates_overhead(self) -> Dict[str, float]:
        """Fig. 9(a) point: flat vs hierarchical coordinate node-states."""
        return {
            "flat": float(self.overlay.size),
            "hierarchical": mean_coordinates_overhead(self.hfc),
        }

    def service_overhead(self) -> Dict[str, float]:
        """Fig. 9(b) point: flat vs hierarchical service node-states."""
        return {
            "flat": float(self.overlay.size),
            "hierarchical": mean_service_overhead(self.hfc),
        }

    # -- summary --------------------------------------------------------------------

    def describe(self) -> str:
        """A short human-readable summary of the built system."""
        sizes = self.clustering.sizes()
        return (
            f"HFCFramework(n={self.overlay.size} proxies on "
            f"{self.physical.topology.node_count} routers, "
            f"{self.clustering.cluster_count} clusters "
            f"(sizes {min(sizes)}..{max(sizes)}), "
            f"{len(self.hfc.all_border_nodes())} border proxies, "
            f"catalog of {len(self.catalog)} services, "
            f"k={self.space.dimension} coordinates)"
        )
