"""Service-DAG oracles: the per-request solvers the one ragged kernel
(``repro.routing.batch.relax``) replaced in ``src/`` —
:func:`solve_vectorised`, one dense min-plus block per service-graph edge,
and :func:`solve_child_spec`, a conquer child through it — beside the
plain-Python label-setting specification and exhaustive search over small
cases."""

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.routing.batch import child_infeasible_error
from repro.services.graph import ServiceGraph, SlotId
from repro.util.errors import NoFeasiblePathError, RoutingError

Instance = Hashable
#: distance callback: (instance, instance) -> float
PairFn = Callable[[Instance, Instance], float]
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


def provider_block(provider: Any) -> BlockFn:
    """*provider*'s dense ``(len(us), len(vs))`` block: the kernel's
    ``pairs`` of every point of *us* against every point of *vs*."""

    def block(us: Sequence[Instance], vs: Sequence[Instance]) -> np.ndarray:
        return provider.pairs(provider.points(list(us))[:, None], provider.points(list(vs))[None, :])

    return block


def solve_child_spec(child: Any, candidates: Sequence[Sequence[Any]], provider: Any) -> List[Any]:
    """The proxies serving one child's slots, through :func:`solve_vectorised`
    and *provider*; a child with no slots picks nobody."""
    if not child.slots:
        return []
    sub_sg = ServiceGraph(
        services=dict(zip(child.slots, child.services)),
        edges=frozenset(zip(child.slots, child.slots[1:])),
    )
    try:
        solution = solve_vectorised(
            sub_sg,
            {slot: list(cands) for slot, cands in zip(child.slots, candidates)},
            child.source_proxy,
            child.destination_proxy,
            provider_block(provider),
        )
    except NoFeasiblePathError:
        raise child_infeasible_error(child) from None
    return [proxy for _, proxy in solution.assignment]


def solve_reference(
    sg: ServiceGraph,
    candidates: Dict[SlotId, Sequence[Instance]],
    source: Instance,
    destination: Instance,
    pair: PairFn,
) -> DagSolution:
    """Plain-Python service-DAG shortest path (executable specification).

    ``candidates[slot]`` lists the instances able to fill *slot*; slots
    missing from the mapping (or mapped to an empty list) are unusable and
    prune every configuration through them. Raises
    :class:`NoFeasiblePathError` if no feasible configuration survives.
    """
    _check_inputs(sg, candidates)
    dist: Dict[Tuple[SlotId, int], float] = {}
    parent: Dict[Tuple[SlotId, int], Optional[Tuple[SlotId, int]]] = {}

    source_slots = set(sg.source_slots())
    for slot in sg.topological_order():
        cands = list(candidates.get(slot, ()))
        for idx, inst in enumerate(cands):
            key = (slot, idx)
            if slot in source_slots:
                dist[key] = pair(source, inst)
                parent[key] = None
            for pred in sg.predecessors(slot):
                pred_cands = list(candidates.get(pred, ()))
                for pidx, pinst in enumerate(pred_cands):
                    pkey = (pred, pidx)
                    if pkey not in dist:
                        continue
                    cost = dist[pkey] + pair(pinst, inst)
                    if key not in dist or cost < dist[key]:
                        dist[key] = cost
                        parent[key] = pkey

    best_key: Optional[Tuple[SlotId, int]] = None
    best_cost = float("inf")
    for slot in sg.sink_slots():
        for idx, inst in enumerate(candidates.get(slot, ())):
            key = (slot, idx)
            if key not in dist:
                continue
            total = dist[key] + pair(inst, destination)
            if total < best_cost:
                best_cost = total
                best_key = key
    if best_key is None or best_cost == float("inf"):
        raise NoFeasiblePathError("no feasible configuration maps onto instances")

    assignment: List[Tuple[SlotId, Instance]] = []
    key: Optional[Tuple[SlotId, int]] = best_key
    while key is not None:
        slot, idx = key
        assignment.append((slot, list(candidates[slot])[idx]))
        key = parent[key]
    assignment.reverse()
    return DagSolution(cost=best_cost, assignment=assignment)


def brute_force(
    sg: ServiceGraph,
    candidates: Dict[SlotId, Sequence[Instance]],
    source: Instance,
    destination: Instance,
    pair: PairFn,
    limit: int = 200000,
) -> DagSolution:
    """Exhaustive optimum over all configurations × instance mappings.

    Exponential; exists purely so tests can pin the two solvers to the true
    optimum on small cases.
    """
    best_cost = float("inf")
    best_assignment: Optional[List[Tuple[SlotId, Instance]]] = None
    explored = 0
    for config in sg.configurations():
        stack: List[Tuple[int, float, List[Tuple[SlotId, Instance]]]] = [(0, 0.0, [])]
        while stack:
            depth, cost, chosen = stack.pop()
            explored += 1
            if explored > limit:
                raise RoutingError(f"brute_force exceeded {limit} states")
            if depth == len(config):
                total = cost + pair(chosen[-1][1], destination)
                if total < best_cost:
                    best_cost = total
                    best_assignment = chosen
                continue
            slot = config[depth]
            prev_inst = source if depth == 0 else chosen[-1][1]
            for inst in candidates.get(slot, ()):
                stack.append(
                    (depth + 1, cost + pair(prev_inst, inst), chosen + [(slot, inst)])
                )
    if best_assignment is None or best_cost == float("inf"):
        raise NoFeasiblePathError("no feasible configuration maps onto instances")
    return DagSolution(cost=best_cost, assignment=best_assignment)
