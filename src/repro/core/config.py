"""All tunables of the HFC framework, in one dataclass.

Defaults reproduce the paper's simulation setting (Table 1 flavour):
2-dimensional coordinate space, 10 landmarks, 4-10 services per proxy,
MST clustering with inconsistency factor 2, mesh baseline with 1-4 near +
1-2 random links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.mstcluster import ClusteringConfig
from repro.netsim.topology import TransitStubConfig
from repro.util.errors import ReproError


@dataclass
class FrameworkConfig:
    """Construction parameters of an :class:`~repro.core.framework.HFCFramework`.

    Attributes:
        physical_nodes: routers in the physical topology (Table 1 pairs this
            with the proxy count at roughly 1.2 routers per proxy).
        landmark_count: landmarks for the coordinate embedding (paper: 10).
        dimension: coordinate-space dimension k (paper: 2).
        probes: delay measurements per pair; the minimum is kept.
        measurement_noise: multiplicative noise amplitude on each probe.
        min_services_per_proxy / max_services_per_proxy: Table 1's 4-10.
        instances_per_service: target replicas per service; sizes the
            generated catalog so provider counts stay scale-invariant.
        clustering: Zahn-clusterer tunables.
        transit_stub: physical-topology generator tunables.
        mesh_weight: distance map the mesh baseline uses ("coords" per the
            paper's Section 6.1, "true" for the information ablation).
    """

    physical_nodes: Optional[int] = None
    landmark_count: int = 10
    dimension: int = 2
    probes: int = 3
    measurement_noise: float = 0.10
    min_services_per_proxy: int = 4
    max_services_per_proxy: int = 10
    instances_per_service: float = 8.0
    clustering: ClusteringConfig = field(default_factory=ClusteringConfig)
    transit_stub: TransitStubConfig = field(default_factory=TransitStubConfig)
    mesh_weight: str = "coords"

    def __post_init__(self) -> None:
        if self.landmark_count < self.dimension + 1:
            raise ReproError(
                f"need at least dimension+1={self.dimension + 1} landmarks, "
                f"got {self.landmark_count}"
            )
        if self.probes < 1:
            raise ReproError("probes must be >= 1")
        if self.measurement_noise < 0:
            raise ReproError("measurement_noise must be >= 0")
        if not 1 <= self.min_services_per_proxy <= self.max_services_per_proxy:
            raise ReproError("invalid services-per-proxy bounds")
        if self.mesh_weight not in ("coords", "true"):
            raise ReproError("mesh_weight must be 'coords' or 'true'")

    def physical_size_for(self, proxy_count: int) -> int:
        """Physical topology size for *proxy_count* proxies.

        Table 1 uses 300/600/900/1200 routers for 250/500/750/1000 proxies;
        1.2 routers per proxy reproduces that ratio at any scale, floored to
        keep the transit-stub generator satisfiable.
        """
        if self.physical_nodes is not None:
            return self.physical_nodes
        cfg = self.transit_stub
        transit = cfg.transit_domains * cfg.transit_nodes_per_domain
        minimum = transit + 2 * transit * cfg.stub_domains_per_transit_node
        return max(int(round(proxy_count * 1.2)), minimum, proxy_count + transit)
