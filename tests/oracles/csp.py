"""The scalar Section-5 pipeline: the independent reference the production
router's one batched pipeline is compared against.

``HierarchicalRouter`` resolves a list of requests stage by stage through
ragged numpy kernels and folds each child's picks into its request's hops;
:class:`ReferenceCspRouter` resolves one request at a time, top to bottom —
map, a Python-level relaxation with one update per (predecessor, candidate)
pair for linear *and* branching graphs, its own dissection into runs, one
``solve_child_spec`` per child (candidates from a whole-overlay provider
scan, both end relays then the merge pass), and a composition that merges the
whole concatenated path — and never enters the service-DAG kernel
(``relax`` under either cost gather) nor the production ``dissect`` /
``compose``. Its cost helpers are its own; an ``exact`` router (A4's
``ExactCspRouter`` mixed in) brings its own scalar DP.
"""

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.ablations import ExactCspRouter
from repro.overlay.network import ProxyId
from repro.routing.hierarchical import (
    ChildHops,
    ChildRequest,
    ClusterId,
    ClusterServicePath,
    HierarchicalResult,
    HierarchicalRouter,
)
from repro.routing.path import Hop, ServicePath, merge_consecutive_hops
from repro.services.graph import ServiceGraph, SlotId
from repro.services.request import ServiceRequest
from repro.util.errors import NoFeasiblePathError, RoutingError
from tests.oracles.servicedag import solve_child_spec

#: a label key at the cluster level: the border a cluster was entered by
_Entry = Optional[ProxyId]


def flat_child_hops(child: ChildRequest, picked: Sequence) -> Tuple[Hop, ...]:
    """A solved child's hops the way the flat router builds them: both end
    relays always, then the merge pass."""
    hops = [Hop(proxy=child.source_proxy)]
    hops += map(Hop, picked, child.services, child.slots)
    hops.append(Hop(proxy=child.destination_proxy))
    return tuple(merge_consecutive_hops(hops))


def child_hops(child: ChildRequest, proxies: Sequence) -> Tuple[Hop, ...]:
    """Hops of a solved child, *proxies* serving its slots in order: a
    chain's service hops are all kept, only a relay end can duplicate its
    neighbour, so the ends are added only where they do not. An empty child
    is the direct link between its endpoints."""
    hops = list(map(Hop, proxies, child.services, child.slots))
    if not hops or hops[0].proxy != child.source_proxy:
        hops.insert(0, Hop(child.source_proxy))
    if hops[-1].proxy != child.destination_proxy:
        hops.append(Hop(child.destination_proxy))
    return tuple(hops)


def dissect_runs(
    border, request: ServiceRequest, csp: ClusterServicePath
) -> List[ChildRequest]:
    """The request split along the CSP, run by run: consecutive slots in one
    cluster form a child; an empty child in the source's cluster and one in
    the destination's close the ends the CSP leaves open."""
    services = request.service_graph.services
    runs: List[Tuple[ClusterId, List[SlotId]]] = []
    for slot, cluster in csp.assignment:
        if runs and runs[-1][0] == cluster:
            runs[-1][1].append(slot)
        else:
            runs.append((cluster, [slot]))
    if not runs or runs[0][0] != csp.source_cluster:
        runs.insert(0, (csp.source_cluster, []))
    if runs[-1][0] != csp.destination_cluster:
        runs.append((csp.destination_cluster, []))
    clusters = [cluster for cluster, _ in runs]
    crossings = list(zip(clusters, clusters[1:]))
    sources = [request.source_proxy] + [border(b, a) for a, b in crossings]
    destinations = [border(a, b) for a, b in crossings] + [request.destination_proxy]
    return [
        ChildRequest(
            cluster, tuple(slots), tuple([services[s] for s in slots]), source, destination
        )
        for (cluster, slots), source, destination in zip(runs, sources, destinations)
    ]


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
            result = HierarchicalResult(path, csp, request, self)
            # what this pipeline built, not what a result would derive
            result.child_requests = children
            result.child_hops = [child_path.hops for child_path in child_paths]
            results.append(result)
        return results

    def dissect(self, request: ServiceRequest, csp: ClusterServicePath) -> List[ChildRequest]:
        return dissect_runs(self.hfc.border, request, csp)

    def compose(
        self,
        request: ServiceRequest,
        child_paths: Sequence[Union[ServicePath, Sequence[Hop]]],
    ) -> ServicePath:
        """The children's hops concatenated, then the whole path merged."""
        hops: List[Hop] = []
        for child in child_paths:
            hops.extend(child.hops if isinstance(child, ServicePath) else child)
        merged = merge_consecutive_hops(hops)
        if not merged:
            raise RoutingError("composition produced an empty path")
        return ServicePath(hops=tuple(merged))

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
        if self.method == "exact":  # A4's own DP, when its router is mixed in
            cost, assignment = self._solve_exact(sg, candidates, cs, cd, request.destination_proxy)  # type: ignore[attr-defined]
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

    def _conquer(self, children: Sequence[ChildRequest]) -> List[ChildHops]:
        # candidates the way the flat router lists them: a whole-overlay
        # provider scan per slot, filtered by cluster membership
        overlay = self.hfc.overlay
        outcomes: List[ChildHops] = []
        for child in children:
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

    def _internal(self, entry: _Entry, exit_border: ProxyId) -> float:
        """Estimated in-cluster segment from the entry border to the exit
        border; zero when unknown (source cluster) or when they coincide."""
        if entry is None or entry == exit_border:
            return 0.0
        return self._view.space.distance(entry, exit_border)

    def _tail(
        self, cluster: ClusterId, entry: _Entry, cd: ClusterId, pd: ProxyId, with_internal: bool
    ) -> float:
        """Bound on the remaining distance from the last service cluster to pd."""
        view = self._view
        if cluster == cd:
            if not with_internal or entry is None:
                return 0.0
            return view.space.distance(entry, pd)
        cost = view.external_estimate(cluster, cd)
        if with_internal:
            cost += self._internal(entry, view.border(cluster, cd))
            cost += view.space.distance(view.border(cd, cluster), pd)
        return cost

    def _start(self, cluster: ClusterId, cs: ClusterId) -> Tuple[float, _Entry]:
        """Cost and entry border for reaching the first service cluster: pd
        cannot estimate the segment from ps to cs's exit border (it has no
        coordinates for ps), so only the external link counts."""
        if cluster == cs:
            return 0.0, None
        view = self._view
        return view.external_estimate(cs, cluster), view.border(cluster, cs)

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
                    cost, ent = self._start(cj, cs)
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


class ReferenceExactRouter(ExactCspRouter, ReferenceCspRouter):
    """A4's exact DP through the scalar pipeline."""


def router_for(hfc, method: str, *, reference: bool = False, **kwargs) -> HierarchicalRouter:
    """A router resolving CSPs by *method* — ``"exact"`` is A4's
    :class:`ExactCspRouter` — production or (*reference*) scalar."""
    if method == "exact":
        return (ReferenceExactRouter if reference else ExactCspRouter)(hfc, **kwargs)
    return (ReferenceCspRouter if reference else HierarchicalRouter)(hfc, method=method, **kwargs)
