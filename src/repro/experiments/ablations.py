"""Ablation studies of the design choices DESIGN.md calls out.

* **A1 — coordinate-space dimension**: the paper (end of Section 6.1) leaves
  "quantify the precisions of the distance maps obtained by using coordinate
  spaces of different dimensions, and see their impact on clustering" as
  future work; this ablation does it.
* **A2 — inconsistency factor k**: Section 3.2 suggests "k = 2, 3, ..." —
  the factor trades cluster count against cluster size, moving both
  overheads and path quality.
* **A3 — border-selection rule**: Section 3 argues closest-pair borders
  maximise routing efficiency and spread load; compared against random
  border pairs.
* **A4 — CSP relaxation method**: the paper's back-tracking modification
  versus the naive external-links-only relaxation and the exact
  entry-border DP.
* **A5 — mesh information quality**: the mesh baseline with coordinate link
  weights (the paper's setting) versus perfectly measured link delays.
* **A6 — cluster representation**: all-borders visibility (the paper's
  design) versus PNNI-style single-logical-node aggregation.
* **A7 — landmark placement**: k-center-spread landmarks versus uniform
  random ones (the paper leaves placement open).
* **A8 — mesh family**: the paper's regular random mesh versus a Gabriel
  proximity mesh (Delaunay-adjacent, reference [2]) versus HFC.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.mstcluster import Clustering, cluster_nodes
from repro.cluster.quality import separation_ratio, size_statistics
from repro.coords.embedding import build_coordinate_space, embedding_accuracy
from repro.core.config import FrameworkConfig
from repro.experiments.environments import EnvironmentSpec, build_environment, scaled_table1
from repro.experiments.report import ascii_table
from repro.experiments.workload import (
    WorkloadConfig,
    generate_requests,
    resolve_requests,
)
from repro.overlay.hfc import HFCTopology, build_hfc
from repro.overlay.mesh import build_mesh
from repro.overlay.network import OverlayNetwork, ProxyId
from repro.routing.hierarchical import HierarchicalRouter
from repro.routing.meshrouting import MeshRouter
from repro.state.overhead import mean_coordinates_overhead, mean_service_overhead
from repro.util.rng import RngLike, ensure_rng, spawn


def _small_spec(specs: Optional[Sequence[EnvironmentSpec]] = None) -> EnvironmentSpec:
    """The smallest Table 1 row at the active scale (ablations run on it)."""
    table = list(specs) if specs is not None else scaled_table1()
    return table[0]


def _mean_delay(router, requests, overlay) -> float:
    result = resolve_requests(router, requests)
    result.raise_first()
    return float(
        np.mean([path.true_delay(overlay) for path in result.paths])
    )


# -- A1: coordinate dimension -------------------------------------------------


@dataclass
class DimensionRow:
    dimension: int
    median_rel_error: float
    cluster_count: int
    separation: float
    hfc_mean_delay: float


def run_dimension_ablation(
    dimensions: Sequence[int] = (2, 3, 5, 8),
    *,
    requests: int = 100,
    spec: Optional[EnvironmentSpec] = None,
    seed: RngLike = None,
) -> List[DimensionRow]:
    """A1: embedding accuracy, clustering quality, and path efficiency vs k."""
    rng = ensure_rng(seed)
    spec = spec or _small_spec()
    rows: List[DimensionRow] = []
    for dim in dimensions:
        config = FrameworkConfig(dimension=dim, physical_nodes=spec.physical_nodes)
        env = build_environment(spec, config=config, seed=spawn(rng, f"dim{dim}"))
        fw = env.framework
        accuracy = embedding_accuracy(
            fw.space, fw.physical, fw.overlay.proxies,
            sample_pairs=min(400, fw.overlay.size * 3),
            seed=spawn(rng, f"acc{dim}"),
        )
        try:
            separation = separation_ratio(fw.space, fw.clustering)
        except Exception:
            separation = float("nan")
        reqs = generate_requests(
            env, WorkloadConfig(request_count=requests), seed=spawn(rng, f"wl{dim}")
        )
        delay = _mean_delay(fw.hierarchical_router(), reqs, fw.overlay)
        rows.append(
            DimensionRow(
                dimension=dim,
                median_rel_error=accuracy["median"],
                cluster_count=fw.clustering.cluster_count,
                separation=separation,
                hfc_mean_delay=delay,
            )
        )
    return rows


def render_dimension_ablation(rows: Sequence[DimensionRow]) -> str:
    """A1 rows as a printable table."""
    return ascii_table(
        ["k", "median rel. err", "clusters", "separation", "HFC mean delay"],
        [
            [r.dimension, r.median_rel_error, r.cluster_count, r.separation, r.hfc_mean_delay]
            for r in rows
        ],
    )


# -- A2: inconsistency factor ------------------------------------------------------


@dataclass
class FactorRow:
    factor: float
    cluster_count: int
    largest_fraction: float
    coord_overhead: float
    service_overhead: float
    hfc_mean_delay: float


def run_inconsistency_ablation(
    factors: Sequence[float] = (1.5, 2.0, 3.0, 4.0),
    *,
    requests: int = 100,
    spec: Optional[EnvironmentSpec] = None,
    seed: RngLike = None,
) -> List[FactorRow]:
    """A2: cluster structure, overheads and path quality vs the factor k.

    The same environment (same embedding) is re-clustered per factor so the
    comparison isolates the clustering knob.
    """
    rng = ensure_rng(seed)
    spec = spec or _small_spec()
    env = build_environment(spec, seed=spawn(rng, "env"))
    fw = env.framework
    reqs = generate_requests(
        env, WorkloadConfig(request_count=requests), seed=spawn(rng, "wl")
    )
    rows: List[FactorRow] = []
    for factor in factors:
        clustering = cluster_nodes(
            fw.space,
            fw.overlay.proxies,
            replace(fw.config.clustering, factor=factor),
        )
        hfc = build_hfc(fw.overlay, clustering)
        router = HierarchicalRouter(hfc)
        stats = size_statistics(clustering)
        rows.append(
            FactorRow(
                factor=factor,
                cluster_count=clustering.cluster_count,
                largest_fraction=stats["largest_fraction"],
                coord_overhead=mean_coordinates_overhead(hfc),
                service_overhead=mean_service_overhead(hfc),
                hfc_mean_delay=_mean_delay(router, reqs, fw.overlay),
            )
        )
    return rows


def render_inconsistency_ablation(rows: Sequence[FactorRow]) -> str:
    """A2 rows as a printable table."""
    return ascii_table(
        ["factor", "clusters", "largest frac", "coord states", "svc states", "HFC delay"],
        [
            [r.factor, r.cluster_count, r.largest_fraction, r.coord_overhead,
             r.service_overhead, r.hfc_mean_delay]
            for r in rows
        ],
    )


# -- A3: border-selection rule ---------------------------------------------------


@dataclass
class BorderRow:
    rule: str
    hfc_mean_delay: float
    max_border_load: int
    mean_border_load: float


def run_border_ablation(
    *,
    requests: int = 100,
    spec: Optional[EnvironmentSpec] = None,
    seed: RngLike = None,
) -> List[BorderRow]:
    """A3: closest-pair vs random border selection on the same clustering."""
    rng = ensure_rng(seed)
    spec = spec or _small_spec()
    env = build_environment(spec, seed=spawn(rng, "env"))
    fw = env.framework
    reqs = generate_requests(
        env, WorkloadConfig(request_count=requests), seed=spawn(rng, "wl")
    )
    rows: List[BorderRow] = []
    for rule in ("closest", "random"):
        draws = spawn(rng, rule)  # both rules draw, so the random pairs keep their seed
        hfc = (
            build_hfc(fw.overlay, fw.clustering)
            if rule == "closest"
            else HFCTopology(
                fw.overlay, fw.clustering, fw.space, random_borders(fw.clustering, draws)
            )
        )
        load = hfc.border_load()
        rows.append(
            BorderRow(
                rule=rule,
                hfc_mean_delay=_mean_delay(HierarchicalRouter(hfc), reqs, fw.overlay),
                max_border_load=max(load.values()),
                mean_border_load=float(np.mean(list(load.values()))),
            )
        )
    return rows


def random_borders(clustering: Clustering, rng: random.Random) -> Dict[Tuple[int, int], ProxyId]:
    """A uniform random cross pair for every cluster pair: the baseline A3
    holds the paper's closest-pair rule against."""
    borders: Dict[Tuple[int, int], ProxyId] = {}
    for i, j in itertools.combinations(range(clustering.cluster_count), 2):
        borders[(i, j)] = rng.choice(clustering.members(i))
        borders[(j, i)] = rng.choice(clustering.members(j))
    return borders


def render_border_ablation(rows: Sequence[BorderRow]) -> str:
    """A3 rows as a printable table."""
    return ascii_table(
        ["border rule", "HFC mean delay", "max load", "mean load"],
        [[r.rule, r.hfc_mean_delay, r.max_border_load, r.mean_border_load] for r in rows],
    )


# -- A4: CSP relaxation method --------------------------------------------------------


@dataclass
class MethodRow:
    method: str
    hfc_mean_delay: float


def run_method_ablation(
    *,
    requests: int = 100,
    spec: Optional[EnvironmentSpec] = None,
    seed: RngLike = None,
) -> List[MethodRow]:
    """A4: back-tracking vs external-only vs exact CSP relaxation."""
    rng = ensure_rng(seed)
    spec = spec or _small_spec()
    env = build_environment(spec, seed=spawn(rng, "env"))
    fw = env.framework
    reqs = generate_requests(
        env, WorkloadConfig(request_count=requests), seed=spawn(rng, "wl")
    )
    rows: List[MethodRow] = []
    for method in ("external", "backtrack", "exact"):
        router = fw.hierarchical_router(method=method)
        rows.append(
            MethodRow(method=method, hfc_mean_delay=_mean_delay(router, reqs, fw.overlay))
        )
    return rows


def render_method_ablation(rows: Sequence[MethodRow]) -> str:
    """A4 rows as a printable table."""
    return ascii_table(
        ["CSP method", "HFC mean delay"],
        [[r.method, r.hfc_mean_delay] for r in rows],
    )


# -- A7: landmark placement ----------------------------------------------------------


@dataclass
class LandmarkRow:
    placement: str
    median_rel_error: float
    hfc_mean_delay: float


def run_landmark_ablation(
    *,
    requests: int = 100,
    spec: Optional[EnvironmentSpec] = None,
    seed: RngLike = None,
) -> List[LandmarkRow]:
    """A7: k-center-spread landmarks (our default) vs uniform-random ones.

    The paper only says "set up a small group of m landmarks"; GNP practice
    says spread matters. Both variants run on the same physical topology and
    workload; only the landmark set differs.
    """

    from repro.experiments.environments import build_environment

    rng = ensure_rng(seed)
    spec = spec or _small_spec()
    # shared randomness drawn once so both rows see the SAME topology,
    # placement and workload; only the landmark set differs
    env_seed_value = spawn(rng, "env-shared").getrandbits(48)
    wl_seed_value = spawn(rng, "wl-shared").getrandbits(48)

    rows: List[LandmarkRow] = []
    for placement_name in ("k-center", "random"):
        env_seed = env_seed_value
        if placement_name == "k-center":
            env = build_environment(spec, seed=env_seed)
            fw = env.framework
        else:
            # rebuild with explicit random landmarks on the same physical net
            base_env = build_environment(spec, seed=env_seed)
            physical = base_env.framework.physical
            proxies = base_env.framework.overlay.proxies
            pick_rng = spawn(rng, "landmarks")
            landmarks = pick_rng.sample(
                range(physical.topology.node_count), spec.landmarks
            )
            space, _ = build_coordinate_space(
                physical,
                proxies,
                landmarks=landmarks,
                dimension=2,
                seed=spawn(rng, "embed"),
            )
            overlay = OverlayNetwork(
                physical=physical,
                proxies=proxies,
                placement=base_env.framework.overlay.placement,
                space=space,
            )
            clustering = cluster_nodes(
                space, proxies, base_env.framework.config.clustering
            )
            fw = base_env.framework
            fw = type(fw)(
                config=fw.config,
                physical=physical,
                overlay=overlay,
                catalog=fw.catalog,
                space=space,
                embedding_report=fw.embedding_report,
                clustering=clustering,
                hfc=build_hfc(overlay, clustering),
            )
            env = base_env
            env.framework = fw
        accuracy = embedding_accuracy(
            fw.space,
            fw.physical,
            fw.overlay.proxies,
            sample_pairs=min(400, fw.overlay.size * 3),
            seed=spawn(rng, f"acc-{placement_name}"),
        )
        reqs = generate_requests(
            env, WorkloadConfig(request_count=requests), seed=wl_seed_value
        )
        rows.append(
            LandmarkRow(
                placement=placement_name,
                median_rel_error=accuracy["median"],
                hfc_mean_delay=_mean_delay(
                    HierarchicalRouter(fw.hfc), reqs, fw.overlay
                ),
            )
        )
    return rows


def render_landmark_ablation(rows: Sequence[LandmarkRow]) -> str:
    """A7 rows as a printable table."""
    return ascii_table(
        ["landmark placement", "median rel. err", "HFC mean delay"],
        [[r.placement, r.median_rel_error, r.hfc_mean_delay] for r in rows],
    )


# -- A6: cluster-aggregation representation ----------------------------------------


@dataclass
class AggregationRow:
    representation: str
    hfc_mean_delay: float


def run_aggregation_ablation(
    *,
    requests: int = 100,
    spec: Optional[EnvironmentSpec] = None,
    seed: RngLike = None,
) -> List[AggregationRow]:
    """A6: all-borders visibility (the paper's design) vs single-logical-node
    (centroid) aggregation (the PNNI-style design the paper rejects)."""
    from repro.routing.aggregation import CentroidAggregationRouter

    rng = ensure_rng(seed)
    spec = spec or _small_spec()
    env = build_environment(spec, seed=spawn(rng, "env"))
    fw = env.framework
    reqs = generate_requests(
        env, WorkloadConfig(request_count=requests), seed=spawn(rng, "wl")
    )
    return [
        AggregationRow(
            representation="all borders (paper)",
            hfc_mean_delay=_mean_delay(
                HierarchicalRouter(fw.hfc), reqs, fw.overlay
            ),
        ),
        AggregationRow(
            representation="single logical node",
            hfc_mean_delay=_mean_delay(
                CentroidAggregationRouter(fw.hfc), reqs, fw.overlay
            ),
        ),
    ]


def render_aggregation_ablation(rows: Sequence[AggregationRow]) -> str:
    """A6 rows as a printable table."""
    return ascii_table(
        ["cluster representation", "HFC mean delay"],
        [[r.representation, r.hfc_mean_delay] for r in rows],
    )


# -- A5: mesh information quality -----------------------------------------------------


@dataclass
class MeshInfoRow:
    weight: str
    mesh_mean_delay: float


def run_mesh_information_ablation(
    *,
    requests: int = 100,
    spec: Optional[EnvironmentSpec] = None,
    seed: RngLike = None,
) -> List[MeshInfoRow]:
    """A5: mesh baseline with coordinate vs true link weights."""
    rng = ensure_rng(seed)
    spec = spec or _small_spec()
    env = build_environment(spec, seed=spawn(rng, "env"))
    fw = env.framework
    reqs = generate_requests(
        env, WorkloadConfig(request_count=requests), seed=spawn(rng, "wl")
    )
    rows: List[MeshInfoRow] = []
    for weight in ("coords", "true"):
        mesh = build_mesh(fw.overlay, weight=weight, seed=spawn(rng, f"mesh-{weight}"))
        router = MeshRouter(fw.overlay, mesh)
        rows.append(
            MeshInfoRow(
                weight=weight,
                mesh_mean_delay=_mean_delay(router, reqs, fw.overlay),
            )
        )
    return rows


def render_mesh_information_ablation(rows: Sequence[MeshInfoRow]) -> str:
    """A5 rows as a printable table."""
    return ascii_table(
        ["mesh link weights", "mesh mean delay"],
        [[r.weight, r.mesh_mean_delay] for r in rows],
    )


# -- A8: mesh family -------------------------------------------------------------


@dataclass
class MeshFamilyRow:
    topology: str
    mean_delay: float
    edges: int


def run_mesh_family_ablation(
    *,
    requests: int = 100,
    spec: Optional[EnvironmentSpec] = None,
    seed: RngLike = None,
) -> List[MeshFamilyRow]:
    """A8: regular mesh vs Gabriel proximity mesh vs HFC, same environment."""
    from repro.overlay.mesh import build_gabriel_mesh

    rng = ensure_rng(seed)
    spec = spec or _small_spec()
    env = build_environment(spec, seed=spawn(rng, "env"))
    fw = env.framework
    reqs = generate_requests(
        env, WorkloadConfig(request_count=requests), seed=spawn(rng, "wl")
    )
    regular = build_mesh(fw.overlay, seed=spawn(rng, "mesh"))
    gabriel = build_gabriel_mesh(fw.overlay)
    hfc_graph_edges = fw.hfc.overlay_graph("coords").edge_count
    rows = [
        MeshFamilyRow(
            topology="regular mesh (paper)",
            mean_delay=_mean_delay(MeshRouter(fw.overlay, regular), reqs, fw.overlay),
            edges=regular.edge_count,
        ),
        MeshFamilyRow(
            topology="gabriel mesh",
            mean_delay=_mean_delay(MeshRouter(fw.overlay, gabriel), reqs, fw.overlay),
            edges=gabriel.edge_count,
        ),
        MeshFamilyRow(
            topology="HFC (hierarchical)",
            mean_delay=_mean_delay(HierarchicalRouter(fw.hfc), reqs, fw.overlay),
            edges=hfc_graph_edges,
        ),
    ]
    return rows


def render_mesh_family_ablation(rows: Sequence[MeshFamilyRow]) -> str:
    """A8 rows as a printable table."""
    return ascii_table(
        ["overlay topology", "mean delay", "edges"],
        [[r.topology, r.mean_delay, r.edges] for r in rows],
    )
