"""Service-DAG construction and shortest-path solving (the [11] substrate).

The paper's flat routing algorithm maps (service topology × request) into a
directed acyclic *service DAG* whose nodes are ``service-slot/instance``
pairs, plus a source node (the request's source proxy) and a sink node (its
destination proxy). Edges follow the service graph's dependency edges, so
**any** source→sink path in the DAG is a feasible service path, and a
shortest-path run returns an optimal one.

:func:`solve_vectorised` relaxes each service-graph edge as one numpy
min-plus product. Property tests pin it to a plain-Python label-setting
specification and to exhaustive search (``tests/oracles/servicedag.py``).

Instances are opaque ids: proxies for intra-cluster/flat routing, cluster
ids for the inter-cluster level — the solver does not care.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.services.graph import ServiceGraph, SlotId
from repro.util.errors import NoFeasiblePathError, RoutingError

Instance = Hashable
#: dense distance callback: (instances_a, instances_b) -> (len_a, len_b) array
BlockFn = Callable[[Sequence[Instance], Sequence[Instance]], np.ndarray]


@dataclass
class DagSolution:
    """Result of a service-DAG shortest-path run.

    Attributes:
        cost: total length of the optimal mapped path, including the edges
            from the source instance and to the destination instance.
        assignment: ``(slot, instance)`` pairs along the chosen feasible
            configuration, in dependency order.
    """

    cost: float
    assignment: List[Tuple[SlotId, Instance]]


def _check_inputs(
    sg: ServiceGraph, candidates: Dict[SlotId, Sequence[Instance]]
) -> None:
    unknown = set(candidates) - set(sg.slots())
    if unknown:
        raise RoutingError(f"candidates given for unknown slots: {sorted(unknown)}")


def solve_vectorised(
    sg: ServiceGraph,
    candidates: Dict[SlotId, Sequence[Instance]],
    source: Instance,
    destination: Instance,
    block: BlockFn,
) -> DagSolution:
    """Numpy min-plus service-DAG shortest path.

    ``candidates[slot]`` lists the instances able to fill *slot*; slots
    missing from the mapping (or mapped to an empty list) are unusable and
    prune every configuration through them. Raises
    :class:`NoFeasiblePathError` if no feasible configuration survives.

    Per service-graph edge ``a -> b`` the relaxation is a vectorised min-plus
    product between a's label vector and the dense (a-candidates ×
    b-candidates) distance block, so the run costs O(Σ_edges |a|·|b|) numpy
    work instead of Python-loop time.
    """
    _check_inputs(sg, candidates)
    cands: Dict[SlotId, List[Instance]] = {
        slot: list(candidates.get(slot, ())) for slot in sg.slots()
    }
    dist: Dict[SlotId, np.ndarray] = {}
    # parent[slot] holds (pred_slot per candidate, pred_index per candidate);
    # pred_slot None means "reached straight from the source".
    parent: Dict[SlotId, List[Optional[Tuple[SlotId, int]]]] = {}

    source_slots = set(sg.source_slots())
    for slot in sg.topological_order():
        instances = cands[slot]
        if not instances:
            continue
        n = len(instances)
        labels = np.full(n, np.inf)
        origins: List[Optional[Tuple[SlotId, int]]] = [None] * n
        if slot in source_slots:
            labels = np.asarray(
                block([source], instances), dtype=float
            ).reshape(n)
            origins = [None] * n
        for pred in sg.predecessors(slot):
            if pred not in dist or not cands[pred]:
                continue
            w = np.asarray(block(cands[pred], instances), dtype=float)
            via = dist[pred][:, None] + w
            best_pred = np.argmin(via, axis=0)
            best_cost = via[best_pred, np.arange(n)]
            better = best_cost < labels
            labels = np.where(better, best_cost, labels)
            for j in np.nonzero(better)[0]:
                origins[int(j)] = (pred, int(best_pred[int(j)]))
        if np.isfinite(labels).any():
            dist[slot] = labels
            parent[slot] = origins

    best: Optional[Tuple[SlotId, int]] = None
    best_cost = float("inf")
    for slot in sg.sink_slots():
        if slot not in dist:
            continue
        instances = cands[slot]
        tail = np.asarray(block(instances, [destination]), dtype=float).reshape(
            len(instances)
        )
        totals = dist[slot] + tail
        idx = int(np.argmin(totals))
        if totals[idx] < best_cost:
            best_cost = float(totals[idx])
            best = (slot, idx)
    if best is None or not np.isfinite(best_cost):
        raise NoFeasiblePathError("no feasible configuration maps onto instances")

    assignment: List[Tuple[SlotId, Instance]] = []
    node: Optional[Tuple[SlotId, int]] = best
    while node is not None:
        slot, idx = node
        assignment.append((slot, cands[slot][idx]))
        node = parent[slot][idx]
    assignment.reverse()
    return DagSolution(cost=best_cost, assignment=assignment)
