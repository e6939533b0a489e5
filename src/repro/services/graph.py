"""Service graphs (SG): linear and non-linear dependency DAGs.

A service request carries an SG expressing *which* services are needed and
*in what order* they may be composed (paper Section 2.1, Figure 2). An SG is
a DAG whose nodes are service *slots* — a slot has a unique id plus the name
of the service filling it, so the same service may legitimately appear twice
(the MPEG example compresses twice). A **feasible configuration** is any
directed path from a source slot (no predecessors) to a sink slot (no
successors): a linear SG has exactly one configuration, a non-linear SG may
have many, and the router picks whichever configuration yields the shortest
mapped path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, List, Sequence, Set, Tuple

from repro.services.catalog import ServiceName
from repro.util.errors import ServiceModelError

SlotId = int


@dataclass(frozen=True)
class ServiceGraph:
    """An immutable service-dependency DAG.

    Attributes:
        services: slot id -> service name.
        edges: dependency edges ``(a, b)`` meaning slot a feeds slot b
            (the paper's ``s_a -> s_b``).
    """

    services: Dict[SlotId, ServiceName]
    edges: FrozenSet[Tuple[SlotId, SlotId]] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.services:
            raise ServiceModelError("service graph must contain at least one slot")
        object.__setattr__(self, "edges", frozenset(self.edges))
        for a, b in self.edges:
            if a not in self.services or b not in self.services:
                raise ServiceModelError(f"edge ({a}, {b}) references unknown slot")
            if a == b:
                raise ServiceModelError(f"self-dependency on slot {a}")
        # Reject cycles up front: everything downstream assumes a DAG.
        self.topological_order()

    # -- facts derived once (the graph is frozen; ``cached_property`` keeps
    # them in the instance dict, outside ``==`` / ``repr`` / ``replace``) ----

    def _links(self) -> Tuple[Dict[SlotId, List[SlotId]], Dict[SlotId, List[SlotId]]]:
        """``(successors, predecessors)`` of every slot, each list ascending."""
        successors: Dict[SlotId, List[SlotId]] = {s: [] for s in self.services}
        predecessors: Dict[SlotId, List[SlotId]] = {s: [] for s in self.services}
        for a, b in sorted(self.edges):
            successors[a].append(b)
            predecessors[b].append(a)
        return successors, predecessors

    #: kept from the first ``successors`` / ``predecessors`` query on: a graph
    #: that is only ever routed as a chain (the common case; a workload holds
    #: thousands) never asks, and :attr:`_shape` works on a transient copy
    _adjacency = cached_property(_links)

    @cached_property
    def _shape(self) -> Tuple[Tuple[SlotId, ...], Tuple[SlotId, ...], Tuple[SlotId, ...]]:
        """``(topological order, source slots, sink slots)``: Kahn's algorithm
        with sorted tie-breaking, run once per graph; raises on a cycle."""
        successors, predecessors = self._links()
        indegree = {s: len(p) for s, p in predecessors.items()}
        ready = sorted(s for s, d in indegree.items() if d == 0)
        order: List[SlotId] = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            changed = False
            for succ in successors[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
                    changed = True
            if changed:
                ready.sort()
        if len(order) != len(self.services):
            raise ServiceModelError("service graph contains a cycle")
        return (
            tuple(order),
            tuple(s for s, preds in predecessors.items() if not preds),
            tuple(s for s, succs in successors.items() if not succs),
        )

    @cached_property
    def signature(self) -> Hashable:
        """A hashable identity of the SG's shape and service names."""
        slots = tuple(sorted(self.services))
        return slots, tuple(map(self.services.get, slots)), tuple(sorted(self.edges))

    # -- structure --------------------------------------------------------

    @property
    def slot_count(self) -> int:
        """Number of service slots."""
        return len(self.services)

    def slots(self) -> List[SlotId]:
        """All slot ids in insertion order."""
        return list(self.services)

    def service_of(self, slot: SlotId) -> ServiceName:
        """The service name filling *slot*."""
        try:
            return self.services[slot]
        except KeyError:
            raise ServiceModelError(f"unknown slot {slot}") from None

    def service_names(self) -> Set[ServiceName]:
        """The distinct service names appearing in the SG."""
        return set(self.services.values())

    def successors(self, slot: SlotId) -> List[SlotId]:
        """Slots directly depending on *slot*."""
        return list(self._adjacency[0].get(slot, ()))

    def predecessors(self, slot: SlotId) -> List[SlotId]:
        """Slots *slot* directly depends on."""
        return list(self._adjacency[1].get(slot, ()))

    def source_slots(self) -> List[SlotId]:
        """Slots with no predecessors (the SG's *source services*)."""
        return list(self._shape[1])

    def sink_slots(self) -> List[SlotId]:
        """Slots with no successors (the SG's *sink services*)."""
        return list(self._shape[2])

    @cached_property
    def is_linear(self) -> bool:
        """True if the SG is a single chain (one configuration)."""
        order = self._shape[0]
        return len(self.edges) == len(order) - 1 and all(
            edge in self.edges for edge in zip(order, order[1:])
        )

    def topological_order(self) -> List[SlotId]:
        """Slots in a deterministic topological order (a fresh list).

        Kahn's algorithm with sorted tie-breaking, run once per graph.
        """
        return list(self._shape[0])

    # -- configurations ------------------------------------------------------

    def configurations(self, limit: int = 10000) -> List[List[SlotId]]:
        """All feasible configurations (source-slot -> sink-slot paths).

        Exponential in the worst case, so guarded by *limit*; intended for
        small SGs, tests, and brute-force verification of the routers.
        """
        sinks = set(self.sink_slots())
        results: List[List[SlotId]] = []

        def extend(path: List[SlotId]) -> None:
            if len(results) >= limit:
                raise ServiceModelError(f"more than {limit} configurations")
            node = path[-1]
            if node in sinks:
                results.append(list(path))
                return
            for succ in self.successors(node):
                path.append(succ)
                extend(path)
                path.pop()

        for source in self.source_slots():
            extend([source])
        return results

    def is_configuration(self, slots: Sequence[SlotId]) -> bool:
        """True if *slots* is a feasible configuration of this SG."""
        if not slots:
            return False
        if slots[0] not in self.source_slots() or slots[-1] not in self.sink_slots():
            return False
        return all((a, b) in self.edges for a, b in zip(slots, slots[1:]))


def linear_graph(service_names: Sequence[ServiceName]) -> ServiceGraph:
    """A linear SG: names[0] -> names[1] -> ... (paper Figure 2(a))."""
    if not service_names:
        raise ServiceModelError("linear service graph needs at least one service")
    services = {i: name for i, name in enumerate(service_names)}
    edges = {(i, i + 1) for i in range(len(service_names) - 1)}
    return ServiceGraph(services=services, edges=frozenset(edges))


def branching_graph(
    chains: Sequence[Sequence[ServiceName]],
    tail: Sequence[ServiceName] = (),
) -> ServiceGraph:
    """A non-linear SG: several alternative source chains merging into one tail.

    Example — the paper's Figure 2(b) shape::

        branching_graph(chains=[["s0"], ["s3"]], tail=["s1", "s2"])

    gives configurations s0->s1->s2 and s3->s1->s2; add extra edges for
    skip configurations via :class:`ServiceGraph` directly.
    """
    if not chains or not any(chains):
        raise ServiceModelError("branching graph needs at least one non-empty chain")
    services: Dict[SlotId, ServiceName] = {}
    edges: Set[Tuple[SlotId, SlotId]] = set()
    next_id = 0
    chain_tails: List[SlotId] = []
    for chain in chains:
        if not chain:
            raise ServiceModelError("chains must be non-empty")
        prev = None
        for name in chain:
            services[next_id] = name
            if prev is not None:
                edges.add((prev, next_id))
            prev = next_id
            next_id += 1
        assert prev is not None
        chain_tails.append(prev)
    prev_tail = None
    for name in tail:
        services[next_id] = name
        if prev_tail is None:
            for t in chain_tails:
                edges.add((t, next_id))
        else:
            edges.add((prev_tail, next_id))
        prev_tail = next_id
        next_id += 1
    return ServiceGraph(services=services, edges=frozenset(edges))
