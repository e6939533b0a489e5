"""Hierarchical service-path finding (paper Section 5).

The destination proxy resolves a request top-down:

1. **map**: from its aggregate table SCT_C it finds, per service slot, the
   *clusters* offering the service, and builds a cluster-level service DAG;
2. **apply shortest-paths**: a modified DAG-shortest-paths run returns the
   Cluster-level Service Path (CSP). The modification is the paper's
   *back-tracking* step: besides external border-link lengths, the
   relaxation accounts for internal border-to-border segments estimated
   from the globally known border coordinates (and, inside the destination
   proxy's own cluster, exact member coordinates);
3. **divide**: the CSP is dissected into child requests — maximal runs of
   consecutive services mapped into the same cluster; a child's endpoints
   are the entry/exit border proxies (original endpoints at the ends);
4. **conquer**: each cluster solves its child optimally with the flat
   algorithm restricted to its members and full local state; the child
   paths are composed into the final concrete service path.

Three variants of step 2 are provided (`method=`):

* ``"backtrack"`` (default, the paper's): labels carry the border through
  which the cluster was entered, found by back-tracking the chosen
  predecessor, and internal segments are added during relaxation;
* ``"exact"``: dynamic programming over (slot, cluster, entry-border) states
  — the imprecision-free version of the same cost model (ablation);
* ``"external"``: unmodified DAG-shortest-paths on external link lengths
  only — the naive baseline the paper's example argues against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.overlay.hfc import HFCTopology
from repro.overlay.network import ProxyId
from repro.routing.batch import (
    BATCH_SIZE_BUCKETS,
    BatchRouteResult,
    ChildOutcome,
    ChildSpec,
    ConquerContext,
    query_tables,
    service_graph_signature,
    solve_child_spec,
    solve_specs,
)
from repro.routing.path import Hop, ServicePath, merge_consecutive_hops
from repro.routing.providers import CoordinateProvider
from repro.services.catalog import ServiceName
from repro.services.graph import ServiceGraph, SlotId
from repro.services.placement import aggregate_capability
from repro.services.request import ServiceRequest
from repro.telemetry import Telemetry, get_telemetry
from repro.telemetry.tracing import WALL_SPAN_BUCKETS
from repro.util.errors import NoFeasiblePathError, RoutingError

ClusterId = int
#: a label key at the cluster level
_Entry = Optional[ProxyId]

METHODS = ("backtrack", "exact", "external")

#: one prepared batch-CSP row: (job index, request, chain, candidate lists,
#: source cluster, destination cluster)
_CspChainRow = Tuple[
    int, ServiceRequest, List[SlotId], List[List[ClusterId]], ClusterId, ClusterId
]


@dataclass(frozen=True)
class ClusterServicePath:
    """The CSP: which cluster serves each slot, plus the estimated bound."""

    assignment: Tuple[Tuple[SlotId, ClusterId], ...]
    source_cluster: ClusterId
    destination_cluster: ClusterId
    estimated_cost: float

    def cluster_sequence(self) -> List[ClusterId]:
        """Clusters in path order with consecutive duplicates collapsed."""
        seq: List[ClusterId] = []
        for _, cluster in self.assignment:
            if not seq or seq[-1] != cluster:
                seq.append(cluster)
        return seq


@dataclass(frozen=True)
class ChildRequest:
    """A dissected piece of the original request, solvable inside one cluster.

    ``slots`` may be empty: the cluster then only relays from
    *source_proxy* to *destination_proxy* (e.g. the source's own cluster
    when no service is mapped there).
    """

    cluster: ClusterId
    slots: Tuple[SlotId, ...]
    services: Tuple[ServiceName, ...]
    source_proxy: ProxyId
    destination_proxy: ProxyId


@dataclass
class HierarchicalResult:
    """Everything produced while resolving one request hierarchically."""

    path: ServicePath
    csp: ClusterServicePath
    child_requests: List[ChildRequest]
    child_paths: List[ServicePath]


class HierarchicalRouter:
    """Divide-and-conquer service routing over an HFC topology."""

    #: sentinel: the router has never synchronised with its feed
    _UNSYNCED = object()

    # class-level defaults so partially wired routers (tests construct
    # them field-by-field around __init__) behave as feed-less
    capability_feed = None
    _feed_version: object = _UNSYNCED

    def __init__(
        self,
        hfc: HFCTopology,
        *,
        method: str = "backtrack",
        cluster_capabilities: Optional[Dict[ClusterId, FrozenSet[ServiceName]]] = None,
        telemetry: Optional[Telemetry] = None,
        capability_feed=None,
    ) -> None:
        """
        Args:
            hfc: the HFC topology (clusters, borders, coordinates).
            method: CSP computation variant; one of ``backtrack``, ``exact``,
                ``external``.
            cluster_capabilities: SCT_C contents; defaults to the exact
                aggregation of the current placement (a converged state
                protocol). Pass protocol-produced tables to study staleness.
            telemetry: observability scope; defaults to the process-wide
                one (every resolution opens a ``route`` span tree and
                bumps the request counters).
            capability_feed: an optional versioned SCT_C source (anything
                with ``.version`` and ``.capabilities()``, e.g.
                :meth:`repro.state.protocol.StateDistributionProtocol.capability_feed`
                or :class:`repro.core.versioning.MutableCapabilityFeed`).
                When bound, the router re-pulls the view whenever the feed
                version moves — it supersedes *cluster_capabilities*.
        """
        if method not in METHODS:
            raise RoutingError(f"method must be one of {METHODS}, got {method!r}")
        self.hfc = hfc
        self.method = method
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.capability_feed = capability_feed
        self._feed_version: object = self._UNSYNCED
        if cluster_capabilities is None and capability_feed is None:
            cluster_capabilities = {
                cid: aggregate_capability(hfc.overlay.placement, hfc.members(cid))
                for cid in range(hfc.cluster_count)
            }
        self.cluster_capabilities = cluster_capabilities or {}
        self._provider = CoordinateProvider(hfc.space)

    # -- versioned capability view ---------------------------------------------

    def refresh_capabilities(self) -> bool:
        """Synchronise SCT_C with the bound feed; True if the view changed.

        No-op without a feed or when the feed version is unchanged since
        the last sync. On a change, :meth:`_capabilities_changed` runs so
        subclasses can drop derived state (the CSP cache) — callers never
        need to guess when to invalidate.
        """
        feed = self.capability_feed
        if feed is None:
            return False
        version = feed.version
        if version == self._feed_version:
            return False
        self.cluster_capabilities = dict(feed.capabilities())
        self._feed_version = version
        # fire on ANY replacement, the first sync included: a feed can be
        # bound to a router that already cached answers computed from the
        # constructor-default view, and those are stale the moment the
        # feed's content takes over
        self._capabilities_changed()
        return True

    def _capabilities_changed(self) -> None:
        """Hook: the capability view was replaced (subclasses drop caches)."""

    def rebind(self, hfc: HFCTopology) -> None:
        """Point this router at a (possibly rebuilt) HFC topology.

        Recovery flows keep one long-lived router across overlay repairs
        instead of constructing a new one per failure; after a membership
        change rebuilt the topology they rebind. Feed-less routers get the
        ground-truth capability view of the new placement; feed-bound ones
        are forced to resynchronise on the next refresh. Either way
        :meth:`_capabilities_changed` fires, because topology-derived
        caches (CSP keys embed cluster ids, which a rebuild renumbers) are
        all invalid now.
        """
        self.hfc = hfc
        self._provider = CoordinateProvider(hfc.space)
        if self.capability_feed is None:
            self.cluster_capabilities = {
                cid: aggregate_capability(hfc.overlay.placement, hfc.members(cid))
                for cid in range(hfc.cluster_count)
            }
            self._capabilities_changed()
        else:
            self._feed_version = self._UNSYNCED
            self.refresh_capabilities()

    # -- CSP cache hooks (no-ops here; the cached subclass persists CSPs) -------

    def _csp_cache_get(self, key: Hashable) -> Optional["ClusterServicePath"]:
        """Look up a CSP by its identity key; None on a miss."""
        return None

    def _csp_cache_put(self, key: Hashable, csp: "ClusterServicePath") -> None:
        """Store a computed CSP under its identity key."""

    # -- public API -----------------------------------------------------------

    def route(self, request: ServiceRequest) -> ServicePath:
        """Resolve *request* and return the final composed service path."""
        return self.route_detailed(request).path

    def route_detailed(self, request: ServiceRequest) -> HierarchicalResult:
        """Resolve *request*, keeping the CSP and the child decomposition."""
        tracer = self.telemetry.tracer
        registry = self.telemetry.registry
        with tracer.span("route", router="hierarchical", method=self.method):
            try:
                with tracer.span("route.csp"):
                    csp = self.cluster_level_path(request)
                with tracer.span("route.dissect"):
                    children = self.dissect(request, csp)
                with tracer.span("route.conquer", children=len(children)):
                    child_paths = [
                        self.solve_child(request, child) for child in children
                    ]
                with tracer.span("route.compose"):
                    path = self.compose(request, child_paths)
            except NoFeasiblePathError:
                registry.counter(
                    "routing.requests", router="hierarchical", outcome="infeasible"
                ).inc()
                raise
        registry.counter(
            "routing.requests", router="hierarchical", outcome="ok"
        ).inc()
        return HierarchicalResult(
            path=path, csp=csp, child_requests=children, child_paths=child_paths
        )

    # -- batched resolution -----------------------------------------------------

    def route_many(self, requests: Sequence[ServiceRequest]) -> List[ServicePath]:
        """Resolve a batch of requests through the shared-precompute engine.

        Returns one path per request, in order; raises the first
        :class:`NoFeasiblePathError` (in request order) with the same type
        and message the per-request :meth:`route` call produces. Paths are
        bit-identical to routing each request individually.
        """
        result = self.route_many_detailed(requests)
        result.raise_first()
        return [path for path in result.paths if path is not None]

    def route_many_detailed(
        self, requests: Sequence[ServiceRequest]
    ) -> BatchRouteResult:
        """Resolve a batch, capturing per-request outcomes.

        The batch shares everything that does not depend on the individual
        request: one capability sync, the cluster-level border tables, a
        per-(service-graph shape, source-cluster, destination) CSP memo on
        top of whatever version-driven cache a subclass maintains, and a
        per-(cluster, service) candidate index for the conquer step.

        Subclasses that override :meth:`solve_child` (e.g. the recursive
        router) conquer through their own hook.
        """
        requests = list(requests)
        tracer = self.telemetry.tracer
        registry = self.telemetry.registry
        started = time.perf_counter()
        count = len(requests)
        csps: List[Optional[ClusterServicePath]] = [None] * count
        errors: List[Optional[NoFeasiblePathError]] = [None] * count
        children_of: List[Optional[List[ChildRequest]]] = [None] * count
        paths: List[Optional[ServicePath]] = [None] * count
        # label-setting methods relax linear requests in padded chain kernels
        chain_engine = self.method != "exact"
        with tracer.span("route.batch", router="hierarchical", requests=count):
            with tracer.span("route.batch.precompute"):
                precompute_started = time.perf_counter()
                self.refresh_capabilities()
                if chain_engine:
                    query_tables(self.hfc)
                context = ConquerContext(self.hfc)
                precompute_seconds = time.perf_counter() - precompute_started

            # map + cluster-level shortest paths, memoized per CSP identity
            csp_memo: Dict[Hashable, Tuple[str, object]] = {}
            service_clusters: Dict[ServiceName, List[ClusterId]] = {}
            pending: Dict[Hashable, Tuple[ServiceRequest, List[int]]] = {}
            with tracer.span("route.batch.csp"):
                for idx, request in enumerate(requests):
                    key = (
                        service_graph_signature(request.service_graph),
                        self.hfc.cluster_of(request.source_proxy),
                        request.destination_proxy,
                    )
                    hit = csp_memo.get(key)
                    if hit is not None:
                        kind, value = hit
                        if kind == "ok":
                            csps[idx] = value  # type: ignore[assignment]
                        else:
                            # replay the memoized infeasibility verbatim
                            error = value  # type: ignore[assignment]
                            errors[idx] = type(error)(*error.args)
                        continue
                    job = pending.get(key)
                    if job is not None:
                        job[1].append(idx)
                        continue
                    if not (chain_engine and request.service_graph.is_linear):
                        # exact method or a non-chain SG:
                        # resolve per request (subclass caches included)
                        try:
                            csp = self.cluster_level_path(request)
                        except NoFeasiblePathError as err:
                            csp_memo[key] = ("err", err)
                            errors[idx] = err
                        else:
                            csp_memo[key] = ("ok", csp)
                            csps[idx] = csp
                        continue
                    cached = self._csp_cache_get(key)
                    if cached is not None:
                        csp_memo[key] = ("ok", cached)
                        csps[idx] = cached
                        continue
                    pending[key] = (request, [idx])
                if pending:
                    jobs = list(pending.items())
                    solved = self._solve_csp_chains(
                        [(key, job[0]) for key, job in jobs], service_clusters
                    )
                    for (key, (_, indices)), (kind, value) in zip(jobs, solved):
                        csp_memo[key] = (kind, value)
                        if kind == "ok":
                            self._csp_cache_put(key, value)
                            for idx in indices:
                                csps[idx] = value
                        else:
                            for pos, idx in enumerate(indices):
                                errors[idx] = (
                                    value if pos == 0 else type(value)(*value.args)
                                )

            with tracer.span("route.batch.dissect"):
                for idx, request in enumerate(requests):
                    csp = csps[idx]
                    if csp is not None:
                        children_of[idx] = self.dissect(request, csp)

            # conquer: flatten every child across the batch, solve, regroup
            outcomes_of: Dict[int, List[ChildOutcome]] = {}
            custom_conquer = (
                type(self).solve_child is not HierarchicalRouter.solve_child
                or type(self)._conquer_custom
                is not HierarchicalRouter._conquer_custom
            )
            with tracer.span("route.batch.conquer"):
                if custom_conquer:
                    self._conquer_custom(requests, children_of, outcomes_of)
                else:
                    specs: List[ChildSpec] = []
                    owners: List[int] = []
                    for idx, request in enumerate(requests):
                        children = children_of[idx]
                        if children is None:
                            continue
                        outcomes_of[idx] = []
                        for child in children:
                            specs.append(context.spec_for(child))
                            owners.append(idx)
                    solved = solve_specs(
                        specs,
                        self._provider,
                        space=self.hfc.space
                        if isinstance(self._provider, CoordinateProvider)
                        else None,
                    )
                    for owner, outcome in zip(owners, solved):
                        outcomes_of[owner].append(outcome)

            with tracer.span("route.batch.compose"):
                for idx, request in enumerate(requests):
                    outcomes = outcomes_of.get(idx)
                    if outcomes is None:
                        continue
                    failure = next(
                        (value for kind, value in outcomes if kind == "err"), None
                    )
                    if failure is not None:
                        # spec outcomes carry error args; the custom-conquer
                        # path keeps the original instance
                        errors[idx] = (
                            failure
                            if isinstance(failure, NoFeasiblePathError)
                            else NoFeasiblePathError(*failure)
                        )
                        continue
                    paths[idx] = self.compose(
                        request, [path for _, path in outcomes]
                    )

        ok = sum(1 for path in paths if path is not None)
        registry.counter("routing.batch.batches", router="hierarchical").inc()
        registry.counter("routing.batch.requests", router="hierarchical").inc(count)
        registry.histogram(
            "routing.batch.size", buckets=BATCH_SIZE_BUCKETS, router="hierarchical"
        ).observe(count)
        registry.gauge(
            "routing.batch.precompute_seconds", router="hierarchical"
        ).set(precompute_seconds)
        if count:
            registry.histogram(
                "routing.batch.request_seconds",
                buckets=WALL_SPAN_BUCKETS,
                router="hierarchical",
            ).observe((time.perf_counter() - started) / count)
        if ok:
            registry.counter(
                "routing.requests", router="hierarchical", outcome="ok"
            ).inc(ok)
        if count - ok:
            registry.counter(
                "routing.requests", router="hierarchical", outcome="infeasible"
            ).inc(count - ok)
        return BatchRouteResult(paths=paths, errors=errors)

    def _conquer_custom(
        self,
        requests: Sequence[ServiceRequest],
        children_of: Sequence[Optional[List[ChildRequest]]],
        outcomes_of: Dict[int, List[ChildOutcome]],
    ) -> None:
        """Conquer hook for routers with a custom :meth:`solve_child`.

        The base implementation replays the scalar semantics per request:
        children are solved in order through :meth:`solve_child`, stopping
        at the first infeasible child. Subclasses may override this to
        batch child solves (the recursive router groups children per
        sub-hierarchy and feeds each group's router one ``route_many``
        call) as long as the recorded outcomes stay identical.
        """
        for idx, request in enumerate(requests):
            children = children_of[idx]
            if children is None:
                continue
            outcomes: List[ChildOutcome] = []
            for child in children:
                try:
                    outcomes.append(("ok", self.solve_child(request, child)))
                except NoFeasiblePathError as err:
                    outcomes.append(("err", err))
                    break
            outcomes_of[idx] = outcomes

    # -- batched cluster-level relaxation ---------------------------------------

    def _solve_csp_chains(
        self,
        jobs: Sequence[Tuple[Hashable, ServiceRequest]],
        service_clusters: Dict[ServiceName, List[ClusterId]],
    ) -> List[Tuple[str, object]]:
        """Cluster-level paths for a batch of linear requests, bucketed by
        chain length and relaxed in padded numpy passes.

        *jobs* carries ``(key, request)`` pairs where ``key[1]`` is the
        source cluster. Returns one ``("ok", ClusterServicePath)`` or
        ``("err", NoFeasiblePathError)`` per job, with exactly the CSPs and
        errors :meth:`cluster_level_path` produces per request.
        """
        hfc = self.hfc
        with_internal = self.method == "backtrack"
        tables = query_tables(hfc)
        caps = self.cluster_capabilities
        cluster_range = range(hfc.cluster_count)
        results: List[Optional[Tuple[str, object]]] = [None] * len(jobs)
        prepared: List[_CspChainRow] = []
        buckets: Dict[int, List[int]] = {}
        for j, (key, request) in enumerate(jobs):
            sg = request.service_graph
            cand_by_slot: Dict[SlotId, List[ClusterId]] = {}
            for slot in sg.slots():
                service = sg.service_of(slot)
                cands = service_clusters.get(service)
                if cands is None:
                    cands = [
                        cid
                        for cid in cluster_range
                        if service in caps.get(cid, frozenset())
                    ]
                    service_clusters[service] = cands
                cand_by_slot[slot] = cands
            if any(not cand_by_slot[s] for s in sg.slots()):
                missing = [
                    sg.service_of(s) for s in sg.slots() if not cand_by_slot[s]
                ]
                results[j] = (
                    "err",
                    NoFeasiblePathError(
                        f"services unavailable in every cluster: {missing}"
                    ),
                )
                continue
            chain = sg.topological_order()
            prepared.append(
                (
                    j,
                    request,
                    chain,
                    [cand_by_slot[s] for s in chain],
                    key[1],  # type: ignore[index]
                    hfc.cluster_of(request.destination_proxy),
                )
            )
            buckets.setdefault(len(chain), []).append(len(prepared) - 1)
        for length, rows in buckets.items():
            self._solve_csp_chain_bucket(
                prepared, rows, length, tables, with_internal, results
            )
        return results  # type: ignore[return-value]

    def _solve_csp_chain_bucket(
        self,
        prepared: Sequence[_CspChainRow],
        rows: List[int],
        length: int,
        tables,
        with_internal: bool,
        results: List[Optional[Tuple[str, object]]],
    ) -> None:
        """One padded relaxation pass per chain position for a length bucket.

        Equivalence with the scalar reference rests on the same three facts
        as :meth:`_solve_label` — shared scalar-sourced tables,
        preserved ``(dist + ext) + internal`` association, first-occurrence
        ``argmin`` matching strict-``<`` updates in candidate order — plus
        one batching fact: padding lanes sit after the real candidates and
        carry ``inf`` labels, so they never steal an argmin tie.
        """
        ext = tables.ext
        border_row = tables.border_row
        border_list = tables.border_list
        d_border = tables.d_border
        nb = len(border_list)
        count = len(rows)
        width = max(len(cl) for row in rows for cl in prepared[row][3])
        cand = np.zeros((count, length, width), dtype=np.int64)
        vmask = np.zeros((count, length, width), dtype=bool)
        cs_arr = np.empty(count, dtype=np.int64)
        for b, row in enumerate(rows):
            _, _, _, cand_lists, cs, _ = prepared[row]
            cs_arr[b] = cs
            for t, cl in enumerate(cand_lists):
                m = len(cl)
                cand[b, t, :m] = cl
                vmask[b, t, :m] = True

        # source-slot labels straight from the tables (same floats _start
        # reads back out of external_estimate/border)
        k0 = cand[:, 0]
        at_home = k0 == cs_arr[:, None]
        labels = np.where(at_home, 0.0, ext[cs_arr[:, None], k0])
        entry = np.where(at_home, -1, border_row[k0, cs_arr[:, None]])
        labels = np.where(vmask[:, 0], labels, np.inf)
        parents: List[np.ndarray] = []
        for t in range(1, length):
            kp = cand[:, t - 1]
            kc = cand[:, t]
            same = kp[:, :, None] == kc[:, None, :]
            costs = labels[:, :, None] + ext[kp[:, :, None], kc[:, None, :]]
            if with_internal and nb:
                # back-tracking, batched: entry border of each label to the
                # exit border toward the candidate cluster
                exit_codes = border_row[kp[:, :, None], kc[:, None, :]]
                safe_entry = np.where(entry < 0, 0, entry)
                segments = d_border[
                    safe_entry[:, :, None],
                    np.where(exit_codes < 0, 0, exit_codes),
                ]
                costs = costs + np.where(
                    (entry[:, :, None] < 0) | (entry[:, :, None] == exit_codes),
                    0.0,
                    segments,
                )
            costs = np.where(same, labels[:, :, None], costs)
            entries = np.where(
                same, entry[:, :, None], border_row[kc[:, None, :], kp[:, :, None]]
            )
            win = np.argmin(costs, axis=1)
            gather = win[:, None, :]
            labels = np.take_along_axis(costs, gather, axis=1)[:, 0, :]
            entry = np.take_along_axis(entries, gather, axis=1)[:, 0, :]
            labels = np.where(vmask[:, t], labels, np.inf)
            parents.append(win)

        # scalar sink scan (exact per-destination distances) + backtrack
        for b, row in enumerate(rows):
            job_index, request, chain, cand_lists, cs, cd = prepared[row]
            pd = request.destination_proxy
            last = cand_lists[length - 1]
            best_j = -1
            best_total = float("inf")
            for j, ci in enumerate(last):
                cost = labels[b, j]
                if not math.isfinite(cost):
                    continue
                code = int(entry[b, j])
                ent = None if code < 0 else border_list[code]
                total = cost + self._tail(ci, ent, cd, pd, with_internal)
                if total < best_total:
                    best_total = total
                    best_j = j
            if best_j < 0 or best_total == float("inf"):
                results[job_index] = (
                    "err",
                    NoFeasiblePathError(
                        "no cluster-level configuration satisfies the request"
                    ),
                )
                continue
            assignment: List[Tuple[SlotId, ClusterId]] = []
            j = best_j
            for t in range(length - 1, 0, -1):
                assignment.append((chain[t], cand_lists[t][j]))
                j = int(parents[t - 1][b, j])
            assignment.append((chain[0], cand_lists[0][j]))
            assignment.reverse()
            results[job_index] = (
                "ok",
                ClusterServicePath(
                    assignment=tuple(assignment),
                    source_cluster=cs,
                    destination_cluster=cd,
                    estimated_cost=float(best_total),
                ),
            )

    # -- step 1+2: cluster-level service DAG -----------------------------------

    def cluster_candidates(self, sg: ServiceGraph) -> Dict[SlotId, List[ClusterId]]:
        """Clusters able to fill each slot, per SCT_C (the *map* step)."""
        result: Dict[SlotId, List[ClusterId]] = {}
        for slot in sg.slots():
            service = sg.service_of(slot)
            result[slot] = [
                cid
                for cid in range(self.hfc.cluster_count)
                if service in self.cluster_capabilities.get(cid, frozenset())
            ]
        return result

    def cluster_level_path(self, request: ServiceRequest) -> ClusterServicePath:
        """Compute the CSP with the configured method."""
        self.refresh_capabilities()
        hfc = self.hfc
        cs = hfc.cluster_of(request.source_proxy)
        cd = hfc.cluster_of(request.destination_proxy)
        sg = request.service_graph
        candidates = self.cluster_candidates(sg)
        if any(not c for c in candidates.values()) and not sg.is_linear:
            # Non-linear SGs may route around empty slots; linear ones cannot.
            pass
        if sg.is_linear and any(not candidates[s] for s in sg.slots()):
            missing = [
                sg.service_of(s) for s in sg.slots() if not candidates[s]
            ]
            raise NoFeasiblePathError(
                f"services unavailable in every cluster: {missing}"
            )
        if self.method == "exact":
            cost, assignment = self._solve_exact(request, sg, candidates, cs, cd)
        else:
            cost, assignment = self._solve_label(
                request, sg, candidates, cs, cd, with_internal=self.method == "backtrack"
            )
        return ClusterServicePath(
            assignment=tuple(assignment),
            source_cluster=cs,
            destination_cluster=cd,
            estimated_cost=cost,
        )

    # internal-distance helpers ------------------------------------------------

    def _internal(self, entry: _Entry, exit_border: ProxyId) -> float:
        """Estimated in-cluster segment from the entry border to the exit
        border; zero when unknown (source cluster) or when they coincide."""
        if entry is None or entry == exit_border:
            return 0.0
        return self.hfc.space.distance(entry, exit_border)

    def _tail(
        self, cluster: ClusterId, entry: _Entry, cd: ClusterId, pd: ProxyId,
        with_internal: bool,
    ) -> float:
        """Bound on the remaining distance from the last service cluster to pd."""
        hfc = self.hfc
        if cluster == cd:
            if not with_internal or entry is None:
                return 0.0
            return hfc.space.distance(entry, pd)
        cost = hfc.external_estimate(cluster, cd)
        if with_internal:
            cost += self._internal(entry, hfc.border(cluster, cd))
            cost += hfc.space.distance(hfc.border(cd, cluster), pd)
        return cost

    def _start(
        self, cluster: ClusterId, cs: ClusterId, with_internal: bool
    ) -> Tuple[float, _Entry]:
        """Cost and entry border for reaching the first service cluster."""
        if cluster == cs:
            return 0.0, None
        # pd cannot estimate the segment from ps to the exit border of cs
        # (it has no coordinates for ps), so only the external link counts.
        del with_internal  # the source-side internal segment is unknown either way
        return (
            self.hfc.external_estimate(cs, cluster),
            self.hfc.border(cluster, cs),
        )

    # label-setting with optional back-tracking, vectorized over precomputed
    # border tables -----------------------------------------------------------

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
        """One numpy pass per slot; bit-identical to the scalar reference
        loop kept as the test oracle (``tests/oracles/csp.py``).

        Per slot, all (predecessor-label × candidate-cluster) relaxations
        evaluate at once against the precomputed tables of
        :func:`~repro.routing.batch.query_tables`. Bit-equality holds
        because (a) the tables are filled by the same scalar calls the
        reference makes, (b) the float additions keep the reference's
        association order ``(dist + ext) + internal``, and (c)
        ``np.argmin``'s first-occurrence tie-break equals the reference's
        strict-``<`` update over the same (predecessor, candidate)
        iteration order, with the start label compared first. Missing
        labels are carried as ``inf`` (the reference simply leaves them out
        of its dict): an all-``inf`` column stays unlabeled, and a finite
        winner can never be preceded by an ``inf`` entry in argmin order.
        """
        hfc = self.hfc
        tables = query_tables(hfc)
        ext = tables.ext
        border_row = tables.border_row
        border_list = tables.border_list
        code_of = tables.border_code
        d_border = tables.d_border
        nb = len(border_list)

        # per finalized slot: candidates, label costs (inf = unlabeled),
        # entry-border codes (-1 = None), parent pointers (slot, index)
        info: Dict[
            SlotId,
            Tuple[List[ClusterId], np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        ] = {}
        source_slots = set(sg.source_slots())
        for slot in sg.topological_order():
            cand = candidates[slot]
            n = len(cand)
            if n == 0:
                info[slot] = (
                    cand,
                    np.empty(0, dtype=float),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=np.int64),
                )
                continue
            cand_arr = np.asarray(cand, dtype=np.int64)
            if slot in source_slots:
                init_cost = np.empty(n, dtype=float)
                init_ent = np.empty(n, dtype=np.int64)
                for j, cj in enumerate(cand):
                    cost, ent = self._start(cj, cs, with_internal)
                    init_cost[j] = cost
                    init_ent[j] = -1 if ent is None else code_of[ent]
            else:
                init_cost = np.full(n, np.inf)
                init_ent = np.full(n, -1, dtype=np.int64)

            pred_cluster: List[np.ndarray] = []
            pred_cost: List[np.ndarray] = []
            pred_entry: List[np.ndarray] = []
            pred_slot: List[np.ndarray] = []
            pred_index: List[np.ndarray] = []
            for pred in sg.predecessors(slot):
                pcand, pdist, pent, _, _ = info[pred]
                m = len(pcand)
                if m == 0:
                    continue
                pred_cluster.append(np.asarray(pcand, dtype=np.int64))
                pred_cost.append(pdist)
                pred_entry.append(pent)
                pred_slot.append(np.full(m, pred, dtype=np.int64))
                pred_index.append(np.arange(m, dtype=np.int64))

            if pred_cluster:
                ci_arr = np.concatenate(pred_cluster)
                d_arr = np.concatenate(pred_cost)
                e_arr = np.concatenate(pred_entry)
                ps_arr = np.concatenate(pred_slot)
                pi_arr = np.concatenate(pred_index)

                same = ci_arr[:, None] == cand_arr[None, :]
                cost_diff = d_arr[:, None] + ext[ci_arr[:, None], cand_arr[None, :]]
                if with_internal and nb:
                    # the back-tracking step, batched: from the border each
                    # label entered through to the exit border toward cj
                    exit_codes = border_row[ci_arr[:, None], cand_arr[None, :]]
                    safe_entry = np.where(e_arr < 0, 0, e_arr)
                    segments = d_border[safe_entry[:, None], exit_codes]
                    cost_diff = cost_diff + np.where(
                        (e_arr[:, None] < 0) | (e_arr[:, None] == exit_codes),
                        0.0,
                        segments,
                    )
                costs = np.where(same, d_arr[:, None], cost_diff)
                entries = np.where(
                    same, e_arr[:, None], border_row[cand_arr[None, :], ci_arr[:, None]]
                )
                combined = np.vstack([init_cost[None, :], costs])
                win = np.argmin(combined, axis=0)
                cols = np.arange(n)
                dist_arr = combined[win, cols]
                relaxed = win > 0
                row = np.where(relaxed, win - 1, 0)
                ent_arr = np.where(relaxed, entries[row, cols], init_ent)
                pslot_arr = np.where(relaxed, ps_arr[row], -1)
                pidx_arr = np.where(relaxed, pi_arr[row], -1)
            else:
                dist_arr = init_cost
                ent_arr = init_ent
                pslot_arr = np.full(n, -1, dtype=np.int64)
                pidx_arr = np.full(n, -1, dtype=np.int64)
            info[slot] = (cand, dist_arr, ent_arr, pslot_arr, pidx_arr)

        # the sink scan stays scalar: it needs exact per-destination
        # distances the tables deliberately do not hold
        best_key: Optional[Tuple[SlotId, int]] = None
        best_total = float("inf")
        for slot in sg.sink_slots():
            cand, dist_arr, ent_arr, _, _ = info[slot]
            for j, ci in enumerate(cand):
                cost = dist_arr[j]
                if not math.isfinite(cost):
                    continue
                code = int(ent_arr[j])
                ent = None if code < 0 else border_list[code]
                total = cost + self._tail(
                    ci, ent, cd, request.destination_proxy, with_internal
                )
                if total < best_total:
                    best_total = total
                    best_key = (slot, j)
        if best_key is None or best_total == float("inf"):
            raise NoFeasiblePathError(
                "no cluster-level configuration satisfies the request"
            )
        assignment: List[Tuple[SlotId, ClusterId]] = []
        slot, j = best_key
        while True:
            cand, _, _, pslot_arr, pidx_arr = info[slot]
            assignment.append((slot, cand[j]))
            parent_slot = int(pslot_arr[j])
            if parent_slot < 0:
                break
            slot, j = parent_slot, int(pidx_arr[j])
        assignment.reverse()
        return float(best_total), assignment

    # exact DP over (slot, cluster, entry border) -------------------------------

    def _solve_exact(
        self,
        request: ServiceRequest,
        sg: ServiceGraph,
        candidates: Dict[SlotId, List[ClusterId]],
        cs: ClusterId,
        cd: ClusterId,
    ) -> Tuple[float, List[Tuple[SlotId, ClusterId]]]:
        hfc = self.hfc
        State = Tuple[SlotId, ClusterId, _Entry]
        dist: Dict[State, float] = {}
        parent: Dict[State, Optional[State]] = {}
        # (slot, cluster) -> its states in first-insertion order: replaces
        # the O(|states|) full-dict scan per (pred, ci) pair; the list order
        # equals the dict-comprehension order the scan produced, so
        # tie-breaking is unchanged
        states_by: Dict[Tuple[SlotId, ClusterId], List[State]] = {}

        def _relax(state: State, cost: float, origin: Optional[State]) -> None:
            known = state in dist
            if not known or cost < dist[state]:
                if not known:
                    states_by.setdefault((state[0], state[1]), []).append(state)
                dist[state] = cost
                parent[state] = origin

        source_slots = set(sg.source_slots())
        for slot in sg.topological_order():
            for cj in candidates[slot]:
                if slot in source_slots:
                    cost, ent = self._start(cj, cs, True)
                    _relax((slot, cj, ent), cost, None)
                for pred in sg.predecessors(slot):
                    for ci in candidates[pred]:
                        for pstate in tuple(states_by.get((pred, ci), ())):
                            _, _, ent_i = pstate
                            if ci == cj:
                                cost = dist[pstate]
                                state = (slot, cj, ent_i)
                            else:
                                cost = (
                                    dist[pstate]
                                    + self._internal(ent_i, hfc.border(ci, cj))
                                    + hfc.external_estimate(ci, cj)
                                )
                                state = (slot, cj, hfc.border(cj, ci))
                            _relax(state, cost, pstate)

        best_state: Optional[State] = None
        best_total = float("inf")
        for slot in sg.sink_slots():
            for state, cost in dist.items():
                if state[0] != slot:
                    continue
                total = cost + self._tail(
                    state[1], state[2], cd, request.destination_proxy, True
                )
                if total < best_total:
                    best_total = total
                    best_state = state
        if best_state is None or best_total == float("inf"):
            raise NoFeasiblePathError(
                "no cluster-level configuration satisfies the request"
            )
        assignment: List[Tuple[SlotId, ClusterId]] = []
        node: Optional[State] = best_state
        while node is not None:
            assignment.append((node[0], node[1]))
            node = parent[node]
        assignment.reverse()
        return best_total, assignment

    # -- step 3: divide ---------------------------------------------------------

    def dissect(
        self, request: ServiceRequest, csp: ClusterServicePath
    ) -> List[ChildRequest]:
        """Split the request along the CSP into per-cluster child requests."""
        hfc = self.hfc
        sg = request.service_graph
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

        children: List[ChildRequest] = []
        for k, (cluster, slots) in enumerate(runs):
            source = (
                request.source_proxy
                if k == 0
                else hfc.border(cluster, runs[k - 1][0])
            )
            destination = (
                request.destination_proxy
                if k == len(runs) - 1
                else hfc.border(cluster, runs[k + 1][0])
            )
            children.append(
                ChildRequest(
                    cluster=cluster,
                    slots=tuple(slots),
                    services=tuple(sg.service_of(s) for s in slots),
                    source_proxy=source,
                    destination_proxy=destination,
                )
            )
        return children

    # -- step 4: conquer -----------------------------------------------------------

    def solve_child(
        self, request: ServiceRequest, child: ChildRequest
    ) -> ServicePath:
        """Optimal intra-cluster resolution of one child request ([11] flat).

        An empty child (no services) degenerates to the direct intra-cluster
        link between its endpoints.
        """
        # Candidates per slot are the cluster's own providers, in the
        # overlay's proxy order (the order a whole-overlay provider scan
        # filtered by membership yields, and the batch path's order).
        # Placement is read live: a crash or a rebind may have rewritten it.
        overlay = self.hfc.overlay
        placement = overlay.placement
        members = sorted(self.hfc.members(child.cluster), key=overlay.index_of)
        spec = ChildSpec(
            cluster=child.cluster,
            slots=tuple(child.slots),
            services=tuple(child.services),
            source_proxy=child.source_proxy,
            destination_proxy=child.destination_proxy,
            candidates=tuple(
                (slot, tuple(p for p in members if service in placement[p]))
                for slot, service in zip(child.slots, child.services)
            ),
        )
        return solve_child_spec(spec, self._provider)

    def compose(
        self, request: ServiceRequest, child_paths: Sequence[ServicePath]
    ) -> ServicePath:
        """Concatenate child paths into the final service path."""
        hops: List[Hop] = []
        for child_path in child_paths:
            hops.extend(child_path.hops)
        merged = merge_consecutive_hops(hops)
        if not merged:
            raise RoutingError("composition produced an empty path")
        return ServicePath(hops=tuple(merged))
