"""Service-DAG oracles: the plain-Python label-setting specification of
``solve_vectorised`` and exhaustive search over small cases."""

from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.routing.servicedag import DagSolution, _check_inputs
from repro.services.graph import ServiceGraph, SlotId
from repro.util.errors import NoFeasiblePathError, RoutingError

Instance = Hashable
#: distance callback: (instance, instance) -> float
PairFn = Callable[[Instance, Instance], float]


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
