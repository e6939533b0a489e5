"""The scalar Section-5 pipeline: the independent reference the production
router's one batched pipeline is compared against.

``HierarchicalRouter`` resolves a list of requests stage by stage through
padded numpy kernels; :class:`ReferenceCspRouter` resolves one request at a
time, top to bottom — map, a Python-level relaxation with one update per
(predecessor, candidate) pair for linear *and* branching graphs, dissect,
one ``solve_child_spec`` per child (candidates from a whole-overlay provider
scan, both end relays then the merge pass), compose — and never enters the chain
kernels (``_solve_chains``, ``solve_specs``) nor the per-slot numpy
``_solve_label``. Only ``_solve_exact`` (scalar, and the sole implementation
of that ablation) and the cost helpers are shared with production.
"""

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.routing.batch import solve_child_spec
from repro.routing.hierarchical import (
    ChildHops,
    ChildRequest,
    ClusterId,
    ClusterServicePath,
    HierarchicalResult,
    HierarchicalRouter,
    _Entry,
)
from repro.routing.path import Hop, merge_consecutive_hops
from repro.services.graph import ServiceGraph, SlotId
from repro.services.request import ServiceRequest
from repro.util.errors import NoFeasiblePathError


def flat_child_hops(child: ChildRequest, picked: Sequence) -> Tuple[Hop, ...]:
    """A solved child's hops the way the flat router builds them: both end
    relays always, then the merge pass."""
    hops = [Hop(proxy=child.source_proxy)]
    hops += map(Hop, picked, child.services, child.slots)
    hops.append(Hop(proxy=child.destination_proxy))
    return tuple(merge_consecutive_hops(hops))


class ReferenceCspRouter(HierarchicalRouter):
    """Per-request routing through scalar loops at every stage."""

    def _resolve(
        self, requests: List[ServiceRequest]
    ) -> List[Union[HierarchicalResult, NoFeasiblePathError]]:
        results: List[Union[HierarchicalResult, NoFeasiblePathError]] = []
        for request in requests:
            try:
                csp = self.cluster_level_path(request)
                children = self.dissect(request, csp)
                child_paths = [self.solve_child(request, c) for c in children]
                path = self.compose(request, child_paths)
            except NoFeasiblePathError as err:
                results.append(err)
                continue
            results.append(
                HierarchicalResult(
                    path=path,
                    csp=csp,
                    child_requests=children,
                    child_hops=[child_path.hops for child_path in child_paths],
                )
            )
        return results

    def cluster_level_path(self, request: ServiceRequest) -> ClusterServicePath:
        self.refresh_capabilities()
        view = self._view
        cs = view.cluster_of(request.source_proxy)
        cd = view.cluster_of(request.destination_proxy)
        sg = request.service_graph
        candidates = {
            slot: [
                cid
                for cid in range(view.cluster_count)
                if sg.service_of(slot) in self.cluster_capabilities.get(cid, frozenset())
            ]
            for slot in sg.slots()
        }
        if sg.is_linear and any(not candidates[s] for s in sg.slots()):
            missing = [sg.service_of(s) for s in sg.slots() if not candidates[s]]
            raise NoFeasiblePathError(
                f"services unavailable in every cluster: {missing}"
            )
        if self.method == "exact":
            cost, assignment = self._solve_exact(request, sg, candidates, cs, cd)
        else:
            cost, assignment = self._relax_scalar(
                request, sg, candidates, cs, cd,
                with_internal=self.method == "backtrack",
            )
        return ClusterServicePath(
            assignment=tuple(assignment),
            source_cluster=cs,
            destination_cluster=cd,
            estimated_cost=cost,
        )

    def _conquer(
        self, jobs: Sequence[Tuple[ServiceRequest, ChildRequest]]
    ) -> List[ChildHops]:
        # candidates the way the flat router lists them: a whole-overlay
        # provider scan per slot, filtered by cluster membership
        overlay = self.hfc.overlay
        outcomes: List[ChildHops] = []
        for _, child in jobs:
            members = set(self.hfc.members(child.cluster))
            candidates = tuple(
                tuple(p for p in overlay.providers_of(service) if p in members)
                for service in child.services
            )
            try:
                picked = solve_child_spec(child, candidates, self._provider)
            except NoFeasiblePathError as err:
                outcomes.append(err)
                continue
            outcomes.append(flat_child_hops(child, picked))
        return outcomes

    def _relax_scalar(
        self,
        request: ServiceRequest,
        sg: ServiceGraph,
        candidates: Dict[SlotId, List[ClusterId]],
        cs: ClusterId,
        cd: ClusterId,
        *,
        with_internal: bool,
    ) -> Tuple[float, List[Tuple[SlotId, ClusterId]]]:
        hfc = self._view
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
