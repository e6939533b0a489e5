"""Internet topology generators (the GT-ITM substitute).

The paper generates physical topologies with the transit-stub (TS) model of
Zegura, Calvert & Bhattacharjee [26]. We implement the same structural model
from scratch:

* a small number of **transit domains**, each a connected random graph of
  transit routers, with the transit domains themselves connected;
* each transit router attaches a few **stub domains**, each a connected
  random graph of stub routers;
* every router has a position in a 2-D plane, and each link's propagation
  delay is proportional to the Euclidean distance between its endpoints
  (plus a small per-hop constant), so that topological locality implies
  delay locality — the property distance-based clustering exploits.

Intra-domain wiring follows the Waxman model: the probability of an edge
``(u, v)`` is ``alpha * exp(-d(u, v) / (beta * L))`` where ``L`` is the
domain diameter. A spanning tree is forced first so domains are always
connected.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.graph.graph import Graph
from repro.util.errors import TopologyError
from repro.util.rng import RngLike, ensure_rng

Point = Tuple[float, float]


@dataclass
class TransitStubConfig:
    """Parameters of the transit-stub generator.

    The defaults are tuned so that ``transit_stub(n)`` for n in
    {300, 600, 900, 1200} (Table 1's physical sizes) produces topologies with
    a transit core of a few domains and stubs carrying ~85% of the routers,
    matching the flavour of the GT-ITM configurations used in 2003-era papers.
    """

    transit_domains: int = 3
    transit_nodes_per_domain: int = 4
    stub_domains_per_transit_node: int = 3
    #: Waxman parameters for intra-domain wiring.
    waxman_alpha: float = 0.9
    waxman_beta: float = 0.35
    #: Plane is [0, plane_size] x [0, plane_size]; delays scale with distance.
    plane_size: float = 1000.0
    #: ms of delay per plane-distance unit (speed-of-light-ish scaling).
    delay_per_unit: float = 0.05
    #: fixed per-link processing/queueing delay floor, in ms.
    min_link_delay: float = 0.5
    #: transit domains span the whole plane; stubs cluster near their parent.
    stub_spread: float = 60.0
    transit_spread: float = 120.0


@dataclass
class PhysicalTopology:
    """A generated physical network.

    Attributes:
        graph: weighted graph; node ids are ints, weights are delays in ms.
        positions: plane coordinates per node (drives link delays).
        node_kind: ``"transit"`` or ``"stub"`` per node.
        stub_domain: domain index per stub node (transit nodes map to -1).
    """

    graph: Graph
    positions: Dict[int, Point]
    node_kind: Dict[int, str]
    stub_domain: Dict[int, int] = field(default_factory=dict)

    @property
    def stub_nodes(self) -> List[int]:
        """All stub routers (overlay proxies are placed on these)."""
        return [n for n, kind in self.node_kind.items() if kind == "stub"]

    @property
    def transit_nodes(self) -> List[int]:
        """All transit routers."""
        return [n for n, kind in self.node_kind.items() if kind == "transit"]


def _link_delay(config: TransitStubConfig, a: Point, b: Point) -> float:
    distance = math.dist(a, b)
    return config.min_link_delay + config.delay_per_unit * distance


def _waxman_wire(
    graph: Graph,
    nodes: List[int],
    positions: Dict[int, Point],
    config: TransitStubConfig,
    rng: random.Random,
) -> None:
    """Connect *nodes* with Waxman edges plus a forced random spanning tree."""
    if len(nodes) <= 1:
        return
    # Forced spanning tree: attach each node to a random earlier node.
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


def transit_stub(
    total_nodes: int,
    config: Optional[TransitStubConfig] = None,
    seed: RngLike = None,
) -> PhysicalTopology:
    """Generate a transit-stub physical topology with ~*total_nodes* routers.

    The transit core size is fixed by *config*; the remaining budget is split
    evenly across stub domains (each stub domain gets at least 2 routers).
    The returned topology is always connected.
    """
    config = config or TransitStubConfig()
    rng = ensure_rng(seed)

    transit_count = config.transit_domains * config.transit_nodes_per_domain
    stub_domain_count = transit_count * config.stub_domains_per_transit_node
    stub_budget = total_nodes - transit_count
    if stub_budget < 2 * stub_domain_count:
        raise TopologyError(
            f"total_nodes={total_nodes} too small for config "
            f"({transit_count} transit nodes, {stub_domain_count} stub domains)"
        )

    graph = Graph()
    positions: Dict[int, Point] = {}
    node_kind: Dict[int, str] = {}
    stub_domain: Dict[int, int] = {}
    next_id = 0

    # 1. Transit domains: centers spread over the plane, nodes around centers.
    transit_by_domain: List[List[int]] = []
    for _ in range(config.transit_domains):
        center = (
            rng.uniform(0.15, 0.85) * config.plane_size,
            rng.uniform(0.15, 0.85) * config.plane_size,
        )
        domain_nodes = []
        for _ in range(config.transit_nodes_per_domain):
            pos = (
                center[0] + rng.gauss(0.0, config.transit_spread),
                center[1] + rng.gauss(0.0, config.transit_spread),
            )
            positions[next_id] = pos
            node_kind[next_id] = "transit"
            graph.add_node(next_id)
            domain_nodes.append(next_id)
            next_id += 1
        _waxman_wire(graph, domain_nodes, positions, config, rng)
        transit_by_domain.append(domain_nodes)

    # 2. Inter-transit-domain links: ring plus one random chord per domain.
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

    # 3. Stub domains hanging off transit nodes.
    base = stub_budget // stub_domain_count
    extra = stub_budget % stub_domain_count
    domain_index = 0
    transit_nodes = [n for domain in transit_by_domain for n in domain]
    for attach in transit_nodes:
        for _ in range(config.stub_domains_per_transit_node):
            size = base + (1 if domain_index < extra else 0)
            center = (
                positions[attach][0] + rng.gauss(0.0, config.stub_spread * 2),
                positions[attach][1] + rng.gauss(0.0, config.stub_spread * 2),
            )
            domain_nodes = []
            for _ in range(size):
                pos = (
                    center[0] + rng.gauss(0.0, config.stub_spread),
                    center[1] + rng.gauss(0.0, config.stub_spread),
                )
                positions[next_id] = pos
                node_kind[next_id] = "stub"
                stub_domain[next_id] = domain_index
                graph.add_node(next_id)
                domain_nodes.append(next_id)
                next_id += 1
            _waxman_wire(graph, domain_nodes, positions, config, rng)
            # Uplink: the stub router closest to its transit attachment point.
            gateway = min(
                domain_nodes, key=lambda n: math.dist(positions[n], positions[attach])
            )
            graph.add_edge(
                gateway, attach, _link_delay(config, positions[gateway], positions[attach])
            )
            domain_index += 1

    return PhysicalTopology(
        graph=graph, positions=positions, node_kind=node_kind, stub_domain=stub_domain
    )


def waxman(
    node_count: int,
    alpha: float = 0.6,
    beta: float = 0.3,
    plane_size: float = 1000.0,
    delay_per_unit: float = 0.05,
    min_link_delay: float = 0.5,
    seed: RngLike = None,
) -> PhysicalTopology:
    """A flat Waxman random topology (no transit/stub structure).

    Used in tests and as a structural ablation against transit-stub: Waxman
    graphs lack the strong locality clusters, so distance-based clustering
    finds fewer/looser clusters on them.
    """
    if node_count < 1:
        raise TopologyError("node_count must be >= 1")
    rng = ensure_rng(seed)
    config = TransitStubConfig(
        waxman_alpha=alpha,
        waxman_beta=beta,
        plane_size=plane_size,
        delay_per_unit=delay_per_unit,
        min_link_delay=min_link_delay,
    )
    graph = Graph()
    positions = {
        i: (rng.uniform(0, plane_size), rng.uniform(0, plane_size))
        for i in range(node_count)
    }
    node_kind = {i: "stub" for i in range(node_count)}
    graph.add_nodes(range(node_count))
    _waxman_wire(graph, list(range(node_count)), positions, config, rng)
    return PhysicalTopology(
        graph=graph,
        positions=positions,
        node_kind=node_kind,
        stub_domain={i: 0 for i in range(node_count)},
    )
