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
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.mstcluster import Clustering, cluster_nodes
from repro.cluster.quality import separation_ratio, size_statistics
from repro.coords.embedding import build_coordinate_space, embedding_accuracy
from repro.core.config import FrameworkConfig
from repro.experiments.environments import EnvironmentSpec, build_environment, scaled_table1
from repro.experiments.workload import (
    WorkloadConfig,
    generate_requests,
    resolve_requests,
)
from repro.overlay.hfc import HFCTopology, build_hfc
from repro.overlay.mesh import build_mesh
from repro.overlay.network import OverlayNetwork, ProxyId
from repro.routing.hierarchical import (
    _NO_CONFIGURATION,
    ClusterId,
    ClusterServicePath,
    HierarchicalRouter,
)
from repro.routing.meshrouting import MeshRouter
from repro.services.graph import ServiceGraph, SlotId
from repro.state.overhead import mean_coordinates_overhead, mean_service_overhead
from repro.util.errors import NoFeasiblePathError
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



# -- A4: CSP relaxation method --------------------------------------------------------


@dataclass
class MethodRow:
    method: str
    hfc_mean_delay: float


#: a cluster-level label key: the border its cluster was entered by (None: at the source)
_Entry = Optional[ProxyId]


class ExactCspRouter(HierarchicalRouter):
    """A4's third row: the CSP as dynamic programming over (slot, cluster,
    entry-border) states — the imprecision-free version of the back-tracking
    cost model, one request at a time in scalar Python. It replaces only the
    CSP stage's solver (:meth:`_solve_csps`); the rest of the pipeline is
    the production one."""

    def __init__(self, hfc: Any, **kwargs: Any) -> None:
        super().__init__(hfc, **kwargs)
        self.method = "exact"

    def _solve_csps(self, jobs: Sequence[Any], offering: Dict[str, List[ClusterId]]) -> List[Any]:
        outcomes: List[Any] = []
        for sg, _, _, cs, cd, pd in jobs:
            candidates = {slot: offering[service] for slot, service in sg.services.items()}
            try:
                cost, assignment = self._solve_exact(sg, candidates, cs, cd, pd)
            except NoFeasiblePathError as err:
                outcomes.append(err)
            else:
                outcomes.append(ClusterServicePath(tuple(assignment), cs, cd, cost))
        return outcomes

    def _solve_exact(
        self, sg: ServiceGraph, candidates: Dict[SlotId, List[ClusterId]], cs: ClusterId, cd: ClusterId, pd: ProxyId
    ) -> Tuple[float, List[Tuple[SlotId, ClusterId]]]:
        view = self._view
        distance, border, external = view.space.distance, view.border, view.external_estimate
        State = Tuple[SlotId, ClusterId, _Entry]
        dist: Dict[State, float] = {}
        parent: Dict[State, Optional[State]] = {}
        # (slot, cluster) -> its states in first-insertion order
        states_by: Dict[Tuple[SlotId, ClusterId], List[State]] = {}

        def internal(entry: _Entry, exit_border: ProxyId) -> float:
            # unknown in the source cluster, nothing where entry is exit
            return 0.0 if entry is None or entry == exit_border else distance(entry, exit_border)

        def relax(state: State, cost: float, origin: Optional[State]) -> None:
            known = state in dist
            if not known or cost < dist[state]:
                if not known:
                    states_by.setdefault((state[0], state[1]), []).append(state)
                dist[state] = cost
                parent[state] = origin

        source_slots = set(sg.source_slots())
        for slot in sg.topological_order():
            for cj in candidates[slot]:
                if slot in source_slots:  # pd has no coordinates for ps: only the external link counts
                    entry, cost = (None, 0.0) if cj == cs else (border(cj, cs), external(cs, cj))
                    relax((slot, cj, entry), cost, None)
                for pred in sg.predecessors(slot):
                    for ci in candidates[pred]:
                        for pstate in tuple(states_by.get((pred, ci), ())):
                            if ci == cj:
                                relax((slot, cj, pstate[2]), dist[pstate], pstate)
                            else:
                                cost = dist[pstate] + internal(pstate[2], border(ci, cj)) + external(ci, cj)
                                relax((slot, cj, border(cj, ci)), cost, pstate)

        best_state: Optional[State] = None
        best_total = float("inf")
        for slot in sg.sink_slots():
            for state, cost in dist.items():
                if state[0] == slot:
                    _, cluster, entry = state
                    if cluster == cd:
                        total = cost + (0.0 if entry is None else distance(entry, pd))
                    else:
                        tail = external(cluster, cd) + internal(entry, border(cluster, cd))
                        total = cost + (tail + distance(border(cd, cluster), pd))
                    if total < best_total:
                        best_total, best_state = total, state
        if best_state is None or best_total == float("inf"):
            raise NoFeasiblePathError(_NO_CONFIGURATION)
        assignment: List[Tuple[SlotId, ClusterId]] = []
        node: Optional[State] = best_state
        while node is not None:
            assignment.append((node[0], node[1]))
            node = parent[node]
        assignment.reverse()
        return best_total, assignment


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
    routers = [fw.hierarchical_router(method="external"), fw.hierarchical_router(), ExactCspRouter(fw.hfc)]
    return [
        MethodRow(method=router.method, hfc_mean_delay=_mean_delay(router, reqs, fw.overlay))
        for router in routers
    ]



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
    hfc_graph_edges = fw.hfc.link_count()
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
