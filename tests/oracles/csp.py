"""The scalar cluster-level relaxation ``HierarchicalRouter._solve_label``
vectorizes: one Python-level update per (predecessor, candidate) pair."""

from typing import Dict, List, Optional, Tuple

from repro.routing.hierarchical import ClusterId, HierarchicalRouter, _Entry
from repro.services.graph import ServiceGraph, SlotId
from repro.services.request import ServiceRequest
from repro.util.errors import NoFeasiblePathError


class ReferenceCspRouter(HierarchicalRouter):
    """Per-request routing through the scalar loop (``route_many`` keeps the
    production chain kernel, so compare against per-request ``route``)."""

    def _solve_label(
        self,
        request: ServiceRequest,
        sg: ServiceGraph,
        candidates: Dict[SlotId, List[ClusterId]],
        cs: ClusterId,
        cd: ClusterId,
        *,
        with_internal: bool,
    ) -> Tuple[float, List[Tuple[SlotId, ClusterId]]]:
        hfc = self.hfc
        dist: Dict[Tuple[SlotId, ClusterId], float] = {}
        entry: Dict[Tuple[SlotId, ClusterId], _Entry] = {}
        parent: Dict[Tuple[SlotId, ClusterId], Optional[Tuple[SlotId, ClusterId]]] = {}

        source_slots = set(sg.source_slots())
        for slot in sg.topological_order():
            for cj in candidates[slot]:
                key = (slot, cj)
                if slot in source_slots:
                    cost, ent = self._start(cj, cs, with_internal)
                    dist[key] = cost
                    entry[key] = ent
                    parent[key] = None
                for pred in sg.predecessors(slot):
                    for ci in candidates[pred]:
                        pkey = (pred, ci)
                        if pkey not in dist:
                            continue
                        if ci == cj:
                            cost = dist[pkey]
                            ent = entry[pkey]
                        else:
                            cost = dist[pkey] + hfc.external_estimate(ci, cj)
                            if with_internal:
                                # The back-tracking step: look up through which
                                # border this label entered ci, and charge the
                                # internal segment to ci's exit border.
                                cost += self._internal(
                                    entry[pkey], hfc.border(ci, cj)
                                )
                            ent = hfc.border(cj, ci)
                        if key not in dist or cost < dist[key]:
                            dist[key] = cost
                            entry[key] = ent
                            parent[key] = pkey

        best_key: Optional[Tuple[SlotId, ClusterId]] = None
        best_total = float("inf")
        for slot in sg.sink_slots():
            for ci in candidates[slot]:
                key = (slot, ci)
                if key not in dist:
                    continue
                total = dist[key] + self._tail(
                    ci, entry[key], cd, request.destination_proxy, with_internal
                )
                if total < best_total:
                    best_total = total
                    best_key = key
        if best_key is None or best_total == float("inf"):
            raise NoFeasiblePathError(
                "no cluster-level configuration satisfies the request"
            )
        assignment: List[Tuple[SlotId, ClusterId]] = []
        node: Optional[Tuple[SlotId, ClusterId]] = best_key
        while node is not None:
            assignment.append(node)
            node = parent[node]
        assignment.reverse()
        return best_total, assignment
