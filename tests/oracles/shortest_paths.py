"""The heap Dijkstra over :class:`repro.graph.Graph`: the oracle of the
relaxation kernel (``repro.graph.shortest_paths.ArcIndex``).

It once answered the substrate's routes, the mesh baseline's all-pairs table,
the HFC border routes and the HFC relay expansion; the kernel answers all of
them now, and the tests hold its rows and parents to this. A lazy-deletion
heap keeps the implementation short while staying O((V+E) log V).
:func:`overlay_graph` builds the explicit HFC overlay graph the relay
expansion is held to, :func:`physical_graph` the physical links as a
:class:`Graph` and :func:`reachable` a delay row as a mapping.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.graph.graph import Graph
from repro.util.errors import GraphError, TopologyError

Node = Hashable


def physical_graph(physical: Any) -> Graph:
    """The links of a :class:`~repro.netsim.topology.PhysicalTopology` (or of a
    :class:`~repro.netsim.physical.PhysicalNetwork`'s topology) as a weighted
    :class:`Graph`: routers ``0 .. n - 1`` in order, links in column order,
    which fixes the adjacency order."""
    topology = getattr(physical, "topology", physical)
    graph = Graph()
    graph.add_nodes(range(topology.node_count))
    for u, v, w in zip(topology.edge_u.tolist(), topology.edge_v.tolist(), topology.edge_w.tolist()):
        graph.add_edge(u, v, w)
    return graph


def reachable(row: Any) -> Dict[int, float]:
    """A :class:`~repro.netsim.physical.DelayRow` as ``{router: delay}`` over
    the routers it reaches."""
    return {v: delay for v, delay in enumerate(row.array.tolist()) if delay != float("inf")}


def dijkstra(
    graph: Graph,
    source: Node,
    targets: Optional[Iterable[Node]] = None,
) -> Tuple[Dict[Node, float], Dict[Node, Node]]:
    """Single-source shortest paths from *source*.

    Returns ``(dist, parent)`` where ``dist[v]`` is the shortest distance from
    *source* to every reachable ``v`` and ``parent`` maps each reached node
    (except the source) to its predecessor on a shortest path.

    If *targets* is given, the search stops early once every target has been
    settled (unreachable targets simply stay absent from ``dist``).
    """
    if source not in graph:
        raise GraphError(f"source {source!r} not in graph")
    remaining = set(targets) if targets is not None else None
    dist: Dict[Node, float] = {source: 0.0}
    parent: Dict[Node, Node] = {}
    settled = set()
    heap: List[Tuple[float, int, Node]] = [(0.0, 0, source)]
    counter = 1  # tie-breaker so heterogeneous node types never get compared
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, w in graph.neighbors(u).items():
            nd = d + w
            if v not in dist or nd < dist[v]:
                dist[v] = nd
                parent[v] = u
                heapq.heappush(heap, (nd, counter, v))
                counter += 1
    return dist, parent


def shortest_path(graph: Graph, source: Node, target: Node) -> Tuple[List[Node], float]:
    """Shortest path from *source* to *target* as ``(node_list, distance)``.

    Raises :class:`GraphError` if *target* is unreachable.
    """
    dist, parent = dijkstra(graph, source, targets=[target])
    if target not in dist:
        raise GraphError(f"{target!r} unreachable from {source!r}")
    return reconstruct_path(parent, source, target), dist[target]


def reconstruct_path(parent: Dict[Node, Node], source: Node, target: Node) -> List[Node]:
    """Walk *parent* pointers from *target* back to *source*."""
    path = [target]
    node = target
    while node != source:
        if node not in parent:
            raise GraphError(f"no parent chain from {target!r} to {source!r}")
        node = parent[node]
        path.append(node)
    path.reverse()
    return path


def single_source_distances(graph: Graph, source: Node) -> Dict[Node, float]:
    """Distances only (convenience wrapper around :func:`dijkstra`)."""
    dist, _ = dijkstra(graph, source)
    return dist


def all_pairs_distances(
    graph: Graph, sources: Optional[Iterable[Node]] = None
) -> Dict[Node, Dict[Node, float]]:
    """Shortest distances from each node in *sources* (default: all nodes).

    Returns ``{source: {node: distance}}``. For the simulation sizes used in
    the paper (≤1200 physical nodes, ≤1000 proxies) repeated Dijkstra is the
    right trade-off versus Floyd-Warshall's O(V^3).
    """
    if sources is None:
        sources = graph.nodes()
    return {s: single_source_distances(graph, s) for s in sources}


def eccentricity(graph: Graph, node: Node) -> float:
    """Greatest shortest-path distance from *node* to any reachable node."""
    dist = single_source_distances(graph, node)
    return max(dist.values())


def overlay_graph(hfc, weight: str = "coords") -> Graph:
    """The explicit HFC overlay graph of the topology *hfc*.

    ``weight="coords"`` uses coordinate estimates (what routing sees);
    ``weight="true"`` uses ground-truth delays (what evaluation sees).
    Intra-cluster: complete; inter-cluster: border links only.
    """
    if weight not in ("coords", "true"):
        raise TopologyError(f"weight must be 'coords' or 'true', got {weight!r}")
    measure = hfc.space.distance if weight == "coords" else hfc.overlay.true_delay
    graph = Graph()
    graph.add_nodes(hfc.overlay.proxies)
    for members in hfc.clustering.clusters:
        for a_idx, u in enumerate(members):
            for v in members[a_idx + 1 :]:
                graph.add_edge(u, v, measure(u, v))
    for (i, j), u in hfc.borders.items():
        if i < j:
            v = hfc.borders[(j, i)]
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, measure(u, v))
    return graph
