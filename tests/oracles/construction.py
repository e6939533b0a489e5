"""The pre-vectorization Section-3 construction: full-matrix landmark
objective, the scalar simplex that re-sorts every step, per-host scalar
embedding, per-round full-distance Prim (and a dense Kruskal that fixes the
tree among ties), the small-cluster merge that measures one centroid at a
time, one ``closest_pair`` scan per cluster pair — and the pre-columnar
substrate under it: the generators wiring a ``Graph`` one ``add_edge`` at a
time, greedy k-center over dict Dijkstra rows."""

import heapq
import math
import time
from dataclasses import dataclass
from typing import Dict, Hashable, List, Sequence, Tuple

import numpy as np

from repro.cluster import mstcluster
from repro.cluster.mstcluster import Clustering
from repro.coords.embedding import (
    EmbeddingReport,
    _gauss_array,
    _relative_error,
    choose_landmarks,
    classical_mds,
    embed_landmarks,
    locate_host,
)
from repro.coords.neldermead import MinimizeResult, minimize_with_restarts
from repro.coords.space import CoordinateSpace, cross_distances
from repro.graph.graph import Graph
from repro.graph.mst import MstEdges
from repro.netsim.topology import TransitStubConfig
from repro.util.errors import EmbeddingError, GraphError, TopologyError
from repro.util.rng import ensure_rng
from tests.oracles.shortest_paths import dijkstra

Node = Hashable


class LoggedGraph(Graph):
    """A ``Graph`` that also keeps its ``add_edge`` calls, in order."""

    def __init__(self) -> None:
        super().__init__()
        self.log: List[Tuple[int, int, float]] = []

    def add_edge(self, u, v, weight=1.0) -> None:
        super().add_edge(u, v, weight)
        self.log.append((u, v, weight))


@dataclass
class ReferenceTopology:
    graph: LoggedGraph
    positions: Dict[int, Tuple[float, float]]
    node_kind: Dict[int, str]
    stub_domain: Dict[int, int]


def _link_delay(config, a, b) -> float:
    distance = math.dist(a, b)
    return config.min_link_delay + config.delay_per_unit * distance


def _waxman_wire_reference(graph, nodes, positions, config, rng) -> None:
    """Forced random spanning tree, then one Waxman draw per unlinked pair:
    ``math.dist`` for the diameter, again for the probability, again for the
    delay, ``graph.has_edge`` asked of every pair."""
    if len(nodes) <= 1:
        return
    order = nodes[:]
    rng.shuffle(order)
    for i in range(1, len(order)):
        u = order[i]
        v = order[rng.randrange(i)]
        graph.add_edge(u, v, _link_delay(config, positions[u], positions[v]))
    diameter = max(
        math.dist(positions[u], positions[v])
        for i, u in enumerate(nodes)
        for v in nodes[i + 1 :]
    )
    diameter = max(diameter, 1e-9)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            if graph.has_edge(u, v):
                continue
            d = math.dist(positions[u], positions[v])
            p = config.waxman_alpha * math.exp(-d / (config.waxman_beta * diameter))
            if rng.random() < p:
                graph.add_edge(u, v, _link_delay(config, positions[u], positions[v]))


def transit_stub_reference(total_nodes, config=None, seed=None) -> ReferenceTopology:
    """``transit_stub`` wiring a ``Graph`` edge by edge."""
    config = config or TransitStubConfig()
    rng = ensure_rng(seed)
    transit_count = config.transit_domains * config.transit_nodes_per_domain
    stub_domain_count = transit_count * config.stub_domains_per_transit_node
    stub_budget = total_nodes - transit_count
    if stub_budget < 2 * stub_domain_count:
        raise TopologyError(f"total_nodes={total_nodes} too small for config")

    graph = LoggedGraph()
    positions = {}
    node_kind = {}
    stub_domain = {}
    next_id = 0

    transit_by_domain = []
    for _ in range(config.transit_domains):
        center = (
            rng.uniform(0.15, 0.85) * config.plane_size,
            rng.uniform(0.15, 0.85) * config.plane_size,
        )
        domain_nodes = []
        for _ in range(config.transit_nodes_per_domain):
            positions[next_id] = (
                center[0] + rng.gauss(0.0, config.transit_spread),
                center[1] + rng.gauss(0.0, config.transit_spread),
            )
            node_kind[next_id] = "transit"
            graph.add_node(next_id)
            domain_nodes.append(next_id)
            next_id += 1
        _waxman_wire_reference(graph, domain_nodes, positions, config, rng)
        transit_by_domain.append(domain_nodes)

    for i in range(len(transit_by_domain)):
        a = rng.choice(transit_by_domain[i])
        b = rng.choice(transit_by_domain[(i + 1) % len(transit_by_domain)])
        if a != b and not graph.has_edge(a, b):
            graph.add_edge(a, b, _link_delay(config, positions[a], positions[b]))
    if len(transit_by_domain) > 2:
        for domain in transit_by_domain:
            a = rng.choice(domain)
            other = rng.choice([d for d in transit_by_domain if d is not domain])
            b = rng.choice(other)
            if a != b and not graph.has_edge(a, b):
                graph.add_edge(a, b, _link_delay(config, positions[a], positions[b]))

    base = stub_budget // stub_domain_count
    extra = stub_budget % stub_domain_count
    domain_index = 0
    for attach in [n for domain in transit_by_domain for n in domain]:
        for _ in range(config.stub_domains_per_transit_node):
            size = base + (1 if domain_index < extra else 0)
            center = (
                positions[attach][0] + rng.gauss(0.0, config.stub_spread * 2),
                positions[attach][1] + rng.gauss(0.0, config.stub_spread * 2),
            )
            domain_nodes = []
            for _ in range(size):
                positions[next_id] = (
                    center[0] + rng.gauss(0.0, config.stub_spread),
                    center[1] + rng.gauss(0.0, config.stub_spread),
                )
                node_kind[next_id] = "stub"
                stub_domain[next_id] = domain_index
                graph.add_node(next_id)
                domain_nodes.append(next_id)
                next_id += 1
            _waxman_wire_reference(graph, domain_nodes, positions, config, rng)
            gateway = min(
                domain_nodes, key=lambda n: math.dist(positions[n], positions[attach])
            )
            graph.add_edge(
                gateway, attach, _link_delay(config, positions[gateway], positions[attach])
            )
            domain_index += 1
    return ReferenceTopology(graph, positions, node_kind, stub_domain)


def waxman_reference(
    node_count, alpha=0.6, beta=0.3, plane_size=1000.0, seed=None
) -> ReferenceTopology:
    """``waxman`` wiring a ``Graph`` edge by edge."""
    rng = ensure_rng(seed)
    config = TransitStubConfig(waxman_alpha=alpha, waxman_beta=beta, plane_size=plane_size)
    graph = LoggedGraph()
    positions = {
        i: (rng.uniform(0, plane_size), rng.uniform(0, plane_size))
        for i in range(node_count)
    }
    graph.add_nodes(range(node_count))
    _waxman_wire_reference(graph, list(range(node_count)), positions, config, rng)
    return ReferenceTopology(
        graph,
        positions,
        {i: "stub" for i in range(node_count)},
        {i: 0 for i in range(node_count)},
    )


def choose_landmarks_reference(graph, count, seed=None) -> List[int]:
    """Greedy k-center over dict rows from the heap Dijkstra; a router with
    no row entry counts as distance 0 (never picked), as it used to."""
    rng = ensure_rng(seed)
    nodes = graph.nodes()
    first = rng.choice(nodes)
    landmarks = [first]
    min_dist = dict(dijkstra(graph, first)[0])
    while len(landmarks) < count:
        nxt = max(nodes, key=lambda n: min_dist.get(n, 0.0))
        landmarks.append(nxt)
        for node, d in dijkstra(graph, nxt)[0].items():
            if d < min_dist.get(node, float("inf")):
                min_dist[node] = d
    return landmarks


def nelder_mead_reference(
    objective, x0, *, initial_step=1.0, xtol=1e-6, ftol=1e-9, max_iterations=2000
) -> MinimizeResult:
    """``nelder_mead`` re-sorting the whole simplex every iteration: a stable
    ``argsort``, two fancy-index copies, both spreads, fresh temporaries for
    the centroid and every trial vertex."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError(f"x0 must be a non-empty 1-D vector, got shape {x0.shape}")
    n = x0.size

    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        step = initial_step if x0[i] == 0 else initial_step * max(abs(x0[i]), 1.0) * 0.1
        simplex[i + 1, i] += step if step != 0 else initial_step
    values = np.array([objective(v) for v in simplex])

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    iterations = 0
    converged = False
    while iterations < max_iterations:
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]

        x_spread = np.maximum.reduce(np.absolute(simplex[1:] - simplex[0]), axis=None)
        f_spread = abs(values[-1] - values[0])
        if x_spread <= xtol and f_spread <= ftol:
            converged = True
            break

        centroid = np.add.reduce(simplex[:-1], axis=0) / n
        worst = simplex[-1]

        reflected = centroid + alpha * (centroid - worst)
        f_reflected = objective(reflected)
        if values[0] <= f_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, f_reflected
        elif f_reflected < values[0]:
            expanded = centroid + gamma * (reflected - centroid)
            f_expanded = objective(expanded)
            if f_expanded < f_reflected:
                simplex[-1], values[-1] = expanded, f_expanded
            else:
                simplex[-1], values[-1] = reflected, f_reflected
        else:
            contracted = centroid + rho * (worst - centroid)
            f_contracted = objective(contracted)
            if f_contracted < values[-1]:
                simplex[-1], values[-1] = contracted, f_contracted
            else:
                best = simplex[0]
                for i in range(1, n + 1):
                    simplex[i] = best + sigma * (simplex[i] - best)
                    values[i] = objective(simplex[i])
        iterations += 1

    order = np.argsort(values, kind="stable")
    simplex, values = simplex[order], values[order]
    return MinimizeResult(
        x=simplex[0].copy(),
        fun=float(values[0]),
        iterations=iterations,
        converged=converged,
    )


def host_objective_reference(landmarks, measured):
    """``solve_host``'s objective as numpy ufuncs into two buffers: the form
    its float objective must equal bit for bit."""
    safe = np.where(measured > 0, measured, 1.0)
    diff = np.empty_like(landmarks)
    est = np.empty(landmarks.shape[0])

    def objective(point):
        np.subtract(landmarks, point, out=diff)
        np.multiply(diff, diff, out=diff)
        np.add.reduce(diff, axis=1, out=est)
        np.sqrt(est, out=est)
        np.subtract(est, measured, out=est)
        np.divide(est, safe, out=est)
        np.multiply(est, est, out=est)
        return float(np.add.reduce(est))

    return objective


def solve_host_reference(landmark_coords, measured_to_landmarks, *, max_iterations=800):
    """``solve_host`` with the numpy objective: the same two starts, steps
    and tolerances."""
    landmarks = np.asarray(landmark_coords, dtype=float)
    measured = np.asarray(measured_to_landmarks, dtype=float)
    weights = 1.0 / np.maximum(measured, 1e-9)
    centroid = (landmarks * weights[:, None]).sum(axis=0) / weights.sum()
    nearest = landmarks[int(np.argmin(measured))]
    scale = float(np.max(measured)) or 1.0
    return minimize_with_restarts(
        host_objective_reference(landmarks, measured),
        [centroid, nearest],
        initial_step=scale * 0.1,
        max_iterations=max_iterations,
        xtol=scale * 1e-7,
    )


def embed_landmarks_reference(measured, dim, *, max_iterations=3000, seed=None) -> np.ndarray:
    """``embed_landmarks`` with the objective over the full m x m distance
    matrix, its upper triangle re-indexed on every evaluation."""
    measured = np.asarray(measured, dtype=float)
    m = measured.shape[0]
    rng = ensure_rng(seed)
    initial = classical_mds(measured, dim)

    def objective(flat):
        pts = flat.reshape(m, dim)
        diff = pts[:, None, :] - pts[None, :, :]
        return _relative_error(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), measured)

    scale = float(np.max(measured)) or 1.0
    jitter = initial + rng.gauss(0.0, 1.0) * 0.0
    starts = [initial.ravel(), (jitter + scale * 0.05 * _gauss_array(rng, (m, dim))).ravel()]
    runs = [
        nelder_mead_reference(
            objective,
            start,
            initial_step=scale * 0.05,
            max_iterations=max_iterations,
            xtol=scale * 1e-6,
        )
        for start in starts
    ]
    return min(runs, key=lambda run: run.fun).x.reshape(m, dim)


def euclidean_mst_reference(points: np.ndarray) -> List[Tuple[int, int, float]]:
    """Per-round full-distance Prim (``sqrt`` over all n candidates a round)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise GraphError(f"points must be 2-D (n, k), got shape {pts.shape}")
    n = pts.shape[0]
    if n == 0:
        return []
    in_tree = np.zeros(n, dtype=bool)
    best_dist = np.full(n, np.inf)
    best_from = np.zeros(n, dtype=int)
    edges: List[Tuple[int, int, float]] = []
    current = 0
    in_tree[0] = True
    for _ in range(n - 1):
        delta = pts - pts[current]
        dist = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        closer = (~in_tree) & (dist < best_dist)
        best_dist[closer] = dist[closer]
        best_from[closer] = current
        masked = np.where(in_tree, np.inf, best_dist)
        nxt = int(np.argmin(masked))
        if not np.isfinite(masked[nxt]):
            raise GraphError("euclidean_mst: disconnected input (NaN coordinates?)")
        edges.append((int(best_from[nxt]), nxt, float(best_dist[nxt])))
        in_tree[nxt] = True
        current = nxt
    return edges


def euclidean_mst_kruskal_reference(points: np.ndarray) -> List[Tuple[int, int, float]]:
    """Dense Kruskal under the order ``(d², min(i, j), max(i, j))``: every
    pair's difference-form squared distance, one sort, a union-find. With
    tied distances the MST is not unique and Prim's pick depends on its
    visiting order; this is the tree ``euclidean_mst`` promises."""
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    i, j = np.triu_indices(n, 1)
    delta = pts[j] - pts[i]
    d2 = np.einsum("ij,ij->i", delta, delta)
    forest = UnionFind(range(n))
    edges: List[Tuple[int, int, float]] = []
    for e in np.lexsort((j, i, d2)):
        if forest.union(int(i[e]), int(j[e])):
            edges.append((int(i[e]), int(j[e]), float(np.sqrt(d2[e]))))
    return edges


def merge_small_clusters_reference(points, clusters, min_size) -> List[List[int]]:
    """``_merge_small_clusters`` measuring one centroid at a time with
    ``np.linalg.norm``, a strict ``<`` keeping the first of equals."""
    clusters = [list(c) for c in clusters]
    centroids = [points[c].mean(axis=0) for c in clusters]
    while len(clusters) > 1:
        sizes = [len(c) for c in clusters]
        small = [i for i, s in enumerate(sizes) if s < min_size]
        if not small:
            break
        victim = min(small, key=lambda i: (sizes[i], clusters[i][0]))
        best = None
        best_d = float("inf")
        for i, centroid in enumerate(centroids):
            if i == victim:
                continue
            d = float(np.linalg.norm(centroid - centroids[victim]))
            if d < best_d:
                best, best_d = i, d
        assert best is not None
        clusters[best] = sorted(clusters[best] + clusters[victim])
        centroids[best] = points[clusters[best]].mean(axis=0)
        del clusters[victim], centroids[victim]
    return clusters


def cluster_nodes_reference(
    space, nodes=None, config=None, *, mst=euclidean_mst_reference
) -> Clustering:
    """``cluster_nodes`` with a reference tree (*mst*, the Prim by default)
    swapped in for the kernel, and the reference merge for the vectorised
    one."""
    fast = mstcluster.euclidean_mst, mstcluster._merge_small_clusters
    mstcluster.euclidean_mst = lambda points: MstEdges(mst(points))
    mstcluster._merge_small_clusters = merge_small_clusters_reference
    try:
        return mstcluster.cluster_nodes(space, nodes, config)
    finally:
        mstcluster.euclidean_mst, mstcluster._merge_small_clusters = fast


def closest_pair(space, group_a, group_b):
    """The closest pair ``(a, b, distance)`` with a in *group_a*, b in *group_b*.

    The paper's border-proxy selection rule (Section 3.3) for one pair of
    groups, gathering both groups' coordinates per call; ties break toward
    the earliest indices.
    """
    if not group_a or not group_b:
        raise EmbeddingError("closest_pair requires two non-empty groups")
    dist = cross_distances(space.array(group_a), space.array(group_b))
    flat = int(np.argmin(dist))
    i, j = divmod(flat, dist.shape[1])
    return group_a[i], group_b[j], float(dist[i, j])


def select_borders_closest_reference(space, clustering) -> Dict[Tuple[int, int], int]:
    """One :func:`closest_pair` per cluster pair."""
    borders = {}
    k = clustering.cluster_count
    for i in range(k):
        for j in range(i + 1, k):
            a, b, _ = closest_pair(
                space, clustering.members(i), clustering.members(j)
            )
            borders[(i, j)] = a
            borders[(j, i)] = b
    return borders


@dataclass
class ReferenceConstruction:
    space: CoordinateSpace
    report: EmbeddingReport
    clustering: Clustering
    borders: Dict[Tuple[int, int], int]
    #: wall seconds per phase (embedding / clustering / borders / total)
    timings: Dict[str, float]


def construct_reference(
    physical,
    proxies,
    *,
    seed,
    landmark_count=10,
    dimension=2,
    probes=3,
    clustering_config=None,
) -> ReferenceConstruction:
    """Embedding → clustering → borders through the reference loops.

    Consumes the RNG and the noise stream in the order
    ``build_coordinate_space`` does, but measures every host's landmark
    delays from the host side and solves one scalar Nelder-Mead per host.
    """
    timings = {}
    start = time.perf_counter()
    rng = ensure_rng(seed)
    landmarks = list(choose_landmarks(physical, landmark_count, rng))
    m = len(landmarks)
    measured = np.zeros((m, m), dtype=float)
    for i in range(m):
        for j in range(i + 1, m):
            measured[i, j] = measured[j, i] = physical.measure(
                landmarks[i], landmarks[j], probes=probes
            )
    landmark_coords = embed_landmarks(measured, dimension, seed=rng)
    diff = landmark_coords[:, None, :] - landmark_coords[None, :, :]
    fit_error = _relative_error(
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), measured
    )
    index = {router: i for i, router in enumerate(landmarks)}
    coords = {}
    hosts = 0
    for host in proxies:
        if host in index:
            coords[host] = landmark_coords[index[host]]
            continue
        to_host = [physical.measure(host, lm, probes=probes) for lm in landmarks]
        coords[host] = locate_host(landmark_coords, to_host)
        hosts += 1
    space = CoordinateSpace(coords)
    report = EmbeddingReport(
        landmark_ids=landmarks,
        landmark_coordinates=landmark_coords,
        dimension=dimension,
        measurement_count=probes * (m * (m - 1) // 2 + m * hosts),
        landmark_fit_error=fit_error,
    )
    timings["embedding"] = time.perf_counter() - start

    start = time.perf_counter()
    clustering = cluster_nodes_reference(space, proxies, clustering_config)
    timings["clustering"] = time.perf_counter() - start

    start = time.perf_counter()
    borders = select_borders_closest_reference(space, clustering)
    timings["borders"] = time.perf_counter() - start
    timings["total"] = sum(timings.values())
    return ReferenceConstruction(space, report, clustering, borders, timings)


class UnionFind:
    """Disjoint-set forest with path compression and union by rank."""

    def __init__(self, items: Sequence[Node] = ()) -> None:
        self._parent: Dict[Node, Node] = {}
        self._rank: Dict[Node, int] = {}
        for item in items:
            self.add(item)

    def add(self, item: Node) -> None:
        """Register *item* as its own singleton set (no-op if known)."""
        if item not in self._parent:
            self._parent[item] = item
            self._rank[item] = 0

    def find(self, item: Node) -> Node:
        """Representative of *item*'s set (with path compression)."""
        if item not in self._parent:
            raise GraphError(f"{item!r} not in union-find")
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def union(self, a: Node, b: Node) -> bool:
        """Merge the sets of *a* and *b*; returns False if already merged."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return True

    def connected(self, a: Node, b: Node) -> bool:
        """True if *a* and *b* are in the same set."""
        return self.find(a) == self.find(b)

    def groups(self) -> List[List[Node]]:
        """All sets as lists (deterministic order by first insertion)."""
        by_root: Dict[Node, List[Node]] = {}
        for item in self._parent:
            by_root.setdefault(self.find(item), []).append(item)
        return list(by_root.values())


def kruskal_mst(graph: Graph) -> Graph:
    """Minimum spanning forest of *graph* via Kruskal's algorithm.

    Works on disconnected graphs (returns a spanning forest). Ties are broken
    deterministically by edge insertion order.
    """
    forest = Graph()
    forest.add_nodes(graph.nodes())
    uf = UnionFind(graph.nodes())
    edges = sorted(graph.edges(), key=lambda e: e[2])
    for u, v, w in edges:
        if uf.union(u, v):
            forest.add_edge(u, v, w)
    return forest


def prim_mst(graph: Graph) -> Graph:
    """Minimum spanning tree of a ``Graph`` via a heap Prim, the twin
    ``kruskal_mst`` is checked against; raises if *graph* is disconnected."""
    nodes = graph.nodes()
    if not nodes:
        return Graph()
    tree = Graph()
    tree.add_node(nodes[0])
    visited = {nodes[0]}
    heap: List[Tuple[float, int, Node, Node]] = []
    counter = 0
    for v, w in graph.neighbors(nodes[0]).items():
        heapq.heappush(heap, (w, counter, nodes[0], v))
        counter += 1
    while heap and len(visited) < len(nodes):
        w, _, u, v = heapq.heappop(heap)
        if v in visited:
            continue
        visited.add(v)
        tree.add_edge(u, v, w)
        for nxt, nw in graph.neighbors(v).items():
            if nxt not in visited:
                heapq.heappush(heap, (nw, counter, v, nxt))
                counter += 1
    if len(visited) < len(nodes):
        raise GraphError("prim_mst requires a connected graph")
    return tree
