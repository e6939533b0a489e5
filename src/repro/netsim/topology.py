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
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.util.errors import GraphError, TopologyError
from repro.util.rng import RngLike, ensure_rng, uniform_draws

Point = Tuple[float, float]
#: the generators' edge log: appendable ``u`` / ``v`` (``'q'``) and ``delay``
#: (``'d'``) columns, eight bytes a link each, handed to numpy without a copy
EdgeLog = Tuple[array, array, array]


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


@dataclass(eq=False)
class PhysicalTopology:
    """A generated physical network, its links held as columns.

    Routers are the ints ``0 .. node_count - 1``. Link ``i`` joins
    ``edge_u[i]`` and ``edge_v[i]`` with delay ``edge_w[i]`` ms; the columns
    keep generation order, which is what a snapshot stores and what fixes the
    adjacency order of the :attr:`graph` view.

    Attributes:
        edge_u, edge_v: link endpoints, ``int64``.
        edge_w: link delays in ms, ``float64``.
        positions: plane coordinates per node (drives link delays).
        node_kind: ``"transit"`` or ``"stub"`` per node.
        stub_domain: domain index per stub node (transit nodes map to -1).
    """

    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_w: np.ndarray
    positions: Dict[int, Point]
    node_kind: Dict[int, str]
    stub_domain: Dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.edge_u = np.ascontiguousarray(self.edge_u, dtype=np.int64)
        self.edge_v = np.ascontiguousarray(self.edge_v, dtype=np.int64)
        self.edge_w = np.ascontiguousarray(self.edge_w, dtype=float)
        u, v, w = self.edge_u, self.edge_v, self.edge_w
        if not (u.ndim == 1 and u.shape == v.shape == w.shape):
            raise GraphError("edge columns must be three 1-D arrays of one length")
        n = self.node_count
        if len(u) == 0:
            return
        low, high = np.minimum(u, v), np.maximum(u, v)
        if low.min() < 0 or high.max() >= n:
            raise GraphError(f"link endpoint outside the routers 0..{n - 1}")
        pairs = low * n
        pairs += high
        del low, high
        loops = u == v
        if loops.any():
            raise GraphError(f"self-loop on {int(u[loops.argmax()])!r} is not allowed")
        bad = ~(w >= 0)  # a NaN delay is caught here too
        if bad.any():
            i = int(bad.argmax())
            raise GraphError(
                f"negative weight {float(w[i])!r} on edge ({int(u[i])!r}, {int(v[i])!r})"
            )
        pairs.sort()
        if (pairs[1:] == pairs[:-1]).any():
            raise GraphError("parallel links are not supported")

    @property
    def node_count(self) -> int:
        """Number of routers."""
        return len(self.node_kind)

    @cached_property
    def graph(self) -> Graph:
        """The links as a weighted :class:`Graph`, derived on first use: a view
        for the object API (neighbours, ``has_edge``, ``PhysicalNetwork.route``'s
        parent pointers). The columns stay the truth; nothing writes through it."""
        graph = Graph()
        graph.add_nodes(range(self.node_count))
        for u, v, w in zip(self.edge_u.tolist(), self.edge_v.tolist(), self.edge_w.tolist()):
            graph.add_edge(u, v, w)
        return graph

    @property
    def stub_nodes(self) -> List[int]:
        """All stub routers (overlay proxies are placed on these)."""
        return [n for n, kind in self.node_kind.items() if kind == "stub"]

    @property
    def transit_nodes(self) -> List[int]:
        """All transit routers."""
        return [n for n, kind in self.node_kind.items() if kind == "transit"]


def _waxman_wire(
    log: EdgeLog,
    nodes: List[int],
    positions: Dict[int, Point],
    config: TransitStubConfig,
    rng: random.Random,
) -> None:
    """Log Waxman links among *nodes* plus a forced random spanning tree.

    Pairs lie flat in draw order (``i < j``, row-major). Only what fixes a
    seeded topology bit for bit stays a scalar call per pair: ``math.dist``
    (once: diameter, probability and delay all read it) and ``math.exp``; the
    arithmetic around them is IEEE-exact in numpy as in Python, and the
    unlinked pairs' ``rng.random()`` draws come in bulk (``uniform_draws``).
    """
    count = len(nodes)
    if count <= 1:
        return
    rows = np.arange(count)
    starts = rows * count - rows * (rows + 1) // 2  # flat index of pair (i, i + 1)
    # Forced spanning tree: attach each node to a random earlier node. Only
    # these pairs can already be linked when the Waxman pass reaches them.
    place = {node: i for i, node in enumerate(nodes)}
    order = nodes[:]
    rng.shuffle(order)
    free = np.ones(count * (count - 1) // 2, dtype=bool)
    for i in range(1, count):
        u = order[i]
        v = order[rng.randrange(i)]
        _log_link(log, config, positions, u, v)
        low, high = sorted((place[u], place[v]))
        free[starts[low] + high - low - 1] = False
    points = [positions[n] for n in nodes]
    dist = math.dist
    lengths = np.array([dist(p, q) for i, p in enumerate(points) for q in points[i + 1 :]])
    scale = config.waxman_beta * max(float(lengths.max()), 1e-9)
    chance = config.waxman_alpha * np.array(list(map(math.exp, (-lengths / scale).tolist())))
    hits = np.flatnonzero(free)[uniform_draws(rng, int(free.sum())) < chance[free]]
    first = np.searchsorted(starts, hits, side="right") - 1
    second = hits - starts[first] + first + 1
    ids = np.array(nodes, dtype=np.int64)
    delays = config.min_link_delay + config.delay_per_unit * lengths[hits]
    for column, values in zip(log, (ids[first], ids[second], delays)):
        column.frombytes(values.tobytes())


def _log_link(
    log: EdgeLog, config: TransitStubConfig, positions: Dict[int, Point], u: int, v: int
) -> None:
    """Log the link ``{u, v}`` with its distance-proportional delay."""
    log[0].append(u)
    log[1].append(v)
    distance = math.dist(positions[u], positions[v])
    log[2].append(config.min_link_delay + config.delay_per_unit * distance)


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

    log: EdgeLog = (array("q"), array("q"), array("d"))
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
            domain_nodes.append(next_id)
            next_id += 1
        _waxman_wire(log, domain_nodes, positions, config, rng)
        transit_by_domain.append(domain_nodes)

    # 2. Inter-transit-domain links: ring plus one random chord per domain.
    # Only the transit core is logged so far, and only its links can repeat.
    core = {frozenset(pair) for pair in zip(log[0], log[1])}

    def link_core(a: int, b: int) -> None:
        if a != b and frozenset((a, b)) not in core:
            core.add(frozenset((a, b)))
            _log_link(log, config, positions, a, b)

    for i in range(len(transit_by_domain)):
        a = rng.choice(transit_by_domain[i])
        b = rng.choice(transit_by_domain[(i + 1) % len(transit_by_domain)])
        link_core(a, b)
    if len(transit_by_domain) > 2:
        for domain in transit_by_domain:
            a = rng.choice(domain)
            other = rng.choice([d for d in transit_by_domain if d is not domain])
            b = rng.choice(other)
            link_core(a, b)

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
                domain_nodes.append(next_id)
                next_id += 1
            _waxman_wire(log, domain_nodes, positions, config, rng)
            # Uplink: the stub router closest to its transit attachment point.
            gateway = min(
                domain_nodes, key=lambda n: math.dist(positions[n], positions[attach])
            )
            _log_link(log, config, positions, gateway, attach)
            domain_index += 1

    return PhysicalTopology(*log, positions, node_kind, stub_domain)


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
    log: EdgeLog = (array("q"), array("q"), array("d"))
    positions = {
        i: (rng.uniform(0, plane_size), rng.uniform(0, plane_size))
        for i in range(node_count)
    }
    _waxman_wire(log, list(range(node_count)), positions, config, rng)
    return PhysicalTopology(
        *log,
        positions,
        node_kind={i: "stub" for i in range(node_count)},
        stub_domain={i: 0 for i in range(node_count)},
    )
