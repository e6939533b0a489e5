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

The router runs these steps as **one pipeline over a list of requests**
(:meth:`HierarchicalRouter._resolve`): a single request is the list of one,
and ``route`` / ``route_detailed`` / ``route_many`` / ``route_many_detailed``
are views of its result. Each stage shares per call what does not depend on
the individual request (the capability sync, the border tables, the CSP
memo, the touched clusters' member lists) and the public stage methods
(``cluster_level_path`` / ``dissect`` / ``solve_child`` / ``compose``) are
the size-one case of their stage.

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

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.overlay.hfc import HFCTopology
from repro.overlay.network import ProxyId
from repro.routing.batch import (
    BATCH_SIZE_BUCKETS,
    BatchRouteResult,
    QueryTables,
    backtrack,
    child_hops,
    child_specs,
    padded,
    query_tables,
    service_graph_signature,
    solve_specs,
    staircase,
)
from repro.routing.path import Hop, ServicePath, merge_consecutive_hops
from repro.routing.providers import CoordinateProvider, DistanceProvider
from repro.services.catalog import ServiceName
from repro.services.graph import ServiceGraph, SlotId
from repro.services.placement import aggregate_capability
from repro.services.request import ServiceRequest
from repro.telemetry import Telemetry, get_telemetry
from repro.telemetry.tracing import WALL_SPAN_BUCKETS
from repro.util.errors import ClusteringError, NoFeasiblePathError, RoutingError

ClusterId = int
#: a label key at the cluster level
_Entry = Optional[ProxyId]

METHODS = ("backtrack", "exact", "external")
_NO_CONFIGURATION = "no cluster-level configuration satisfies the request"

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


class ChildRequest(NamedTuple):
    """A dissected piece of the original request, solvable inside one cluster
    (plain data: a routed batch builds thousands).

    ``slots`` may be empty: the cluster then only relays from
    *source_proxy* to *destination_proxy* (e.g. the source's own cluster
    when no service is mapped there).
    """

    cluster: ClusterId
    slots: Tuple[SlotId, ...]
    services: Tuple[ServiceName, ...]
    source_proxy: ProxyId
    destination_proxy: ProxyId


#: what the conquer hook answers per child: its hop sequence (what
#: ``ServicePath.hops`` holds), or why its cluster cannot serve it
ChildHops = Union[Tuple[Hop, ...], NoFeasiblePathError]
#: what the CSP stage holds per request: the path or its infeasibility
_CspOutcome = Union[ClusterServicePath, NoFeasiblePathError]
#: one linear request waiting for the chain kernel: (request, source cluster)
_ChainJob = Tuple[ServiceRequest, ClusterId]


def _internal_segments(
    d_border: np.ndarray, entry: np.ndarray, exit_codes: np.ndarray
) -> np.ndarray:
    """``d_border[entry, exit]`` per label — :meth:`HierarchicalRouter._internal`
    as a table lookup: zero where the entry border is unknown (code -1) or is
    the exit border itself. A -1 exit (no border toward one's own cluster)
    reads a finite entry the caller's same-cluster mask discards."""
    segments = d_border[np.where(entry < 0, 0, entry), np.where(exit_codes < 0, 0, exit_codes)]
    return np.where((entry < 0) | (entry == exit_codes), 0.0, segments)


@dataclass
class HierarchicalResult:
    """Everything produced while resolving one request hierarchically."""

    path: ServicePath
    csp: ClusterServicePath
    child_requests: List[ChildRequest]
    #: per child, the hop sequence its cluster answered with
    child_hops: List[Tuple[Hop, ...]]

    @cached_property
    def child_paths(self) -> List[ServicePath]:
        """The children's answers as service paths, wrapped on first read."""
        return [ServicePath(hops=hops) for hops in self.child_hops]


class HierarchicalRouter:
    """Divide-and-conquer service routing over an HFC topology."""

    #: sentinel: the router has never synchronised with its feed
    _UNSYNCED = object()

    # class-level defaults so partially wired routers (tests construct
    # them field-by-field around __init__) behave as feed-less routers
    # whose cluster level is the topology itself
    capability_feed: Any = None
    _feed_version: object = _UNSYNCED
    #: the cluster-level surface the CSP stage relaxes over (``cluster_count``
    #: / ``cluster_of`` / ``border`` / ``external_estimate`` / ``space``);
    #: None means the topology itself. Subclasses that route on coarser or
    #: pruned cluster-level information bind their view here — dissection
    #: and conquer always run on :attr:`hfc`.
    cluster_view: Any = None
    #: the map step's index, ``service -> cluster ids ascending``, and the
    #: capability view it was built from. A view is replaced, never edited in
    #: place; however that happens (feed sync, ``rebind``, a subclass, plain
    #: assignment to :attr:`cluster_capabilities`), the next map step finds
    #: another object there and builds the index again
    _offering_index: Tuple[Any, Dict[ServiceName, List[ClusterId]]] = (None, {})

    def __init__(
        self,
        hfc: HFCTopology,
        *,
        method: str = "backtrack",
        cluster_capabilities: Optional[Dict[ClusterId, FrozenSet[ServiceName]]] = None,
        telemetry: Optional[Telemetry] = None,
        capability_feed: Any = None,
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
        self.method = method
        self.telemetry = telemetry if telemetry is not None else get_telemetry()
        self.capability_feed = capability_feed
        self._bind(hfc)
        if cluster_capabilities is None and capability_feed is None:
            cluster_capabilities = self._placement_capabilities()
        self.cluster_capabilities = cluster_capabilities or {}

    def _bind(self, hfc: HFCTopology) -> None:
        """Attach everything derived from the topology object.

        Runs from the constructor and from :meth:`rebind`, so a subclass
        that wraps the topology (a cluster-level view, a masking distance
        provider) extends this one method and is wrapped again on every
        rebind.
        """
        self.hfc = hfc
        self._provider: DistanceProvider = CoordinateProvider(hfc.space)

    def _placement_capabilities(self) -> Dict[ClusterId, FrozenSet[ServiceName]]:
        """Ground-truth SCT_C: each cluster's aggregate of the live placement."""
        hfc = self.hfc
        return {
            cid: aggregate_capability(hfc.overlay.placement, hfc.members(cid))
            for cid in range(hfc.cluster_count)
        }

    @property
    def _view(self) -> Any:
        """The cluster-level surface: :attr:`cluster_view`, else the topology."""
        view = self.cluster_view
        return self.hfc if view is None else view

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
        self._bind(hfc)
        if self.capability_feed is None:
            self.cluster_capabilities = self._placement_capabilities()
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

    # -- public API: four views of the one pipeline -------------------------------

    def route(self, request: ServiceRequest) -> ServicePath:
        """Resolve *request* and return the final composed service path."""
        return self.route_detailed(request).path

    def route_detailed(self, request: ServiceRequest) -> HierarchicalResult:
        """Resolve *request*, keeping the CSP and the child decomposition."""
        (result,) = self._resolve([request])
        if isinstance(result, NoFeasiblePathError):
            raise result
        return result

    def route_many(self, requests: Sequence[ServiceRequest]) -> List[ServicePath]:
        """Resolve a batch; one path per request, in order.

        Raises the first :class:`NoFeasiblePathError` in request order, with
        the type and message :meth:`route` raises for that request.
        """
        result = self.route_many_detailed(requests)
        result.raise_first()
        return [path for path in result.paths if path is not None]

    def route_many_detailed(
        self, requests: Sequence[ServiceRequest]
    ) -> BatchRouteResult:
        """Resolve a batch, capturing per-request outcomes."""
        paths: List[Optional[ServicePath]] = []
        errors: List[Optional[NoFeasiblePathError]] = []
        for result in self._resolve(list(requests)):
            if isinstance(result, NoFeasiblePathError):
                paths.append(None)
                errors.append(result)
            else:
                paths.append(result.path)
                errors.append(None)
        return BatchRouteResult(paths=paths, errors=errors)

    # -- the pipeline -------------------------------------------------------------

    def _resolve(
        self, requests: List[ServiceRequest]
    ) -> List[Union[HierarchicalResult, NoFeasiblePathError]]:
        """Section 5 for a list of requests: one span tree, four stages.

        A single request is the list of one. Each stage runs once per call
        over every request still alive; an infeasible request carries its
        error through the remaining stages instead of aborting the call, so
        every slot ends as a :class:`HierarchicalResult` or the
        :class:`NoFeasiblePathError` of its first failing stage.
        """
        tracer = self.telemetry.tracer
        started = time.perf_counter()
        count = len(requests)
        results: List[Any] = []
        with tracer.span(
            "route", router="hierarchical", method=self.method, requests=count
        ):
            with tracer.span("route.csp"):
                csps: List[Any] = self._csp_stage(requests)
            with tracer.span("route.dissect"):
                children_of = [
                    None
                    if isinstance(csp, NoFeasiblePathError)
                    else self.dissect(request, csp)
                    for request, csp in zip(requests, csps)
                ]
            jobs = [
                (request, child)
                for request, children in zip(requests, children_of)
                if children is not None
                for child in children
            ]
            with tracer.span("route.conquer", children=len(jobs)):
                solved = iter(self._conquer(jobs))
            with tracer.span("route.compose"):
                for request, csp, children in zip(requests, csps, children_of):
                    if children is None:
                        results.append(csp)
                        continue
                    outcomes: List[Any] = list(islice(solved, len(children)))
                    failure = next(
                        (o for o in outcomes if isinstance(o, NoFeasiblePathError)),
                        None,
                    )
                    if failure is not None:
                        results.append(failure)
                        continue
                    results.append(
                        HierarchicalResult(
                            path=self.compose(request, outcomes),
                            csp=csp,
                            child_requests=children,
                            child_hops=outcomes,
                        )
                    )

        registry = self.telemetry.registry
        infeasible = sum(isinstance(r, NoFeasiblePathError) for r in results)
        registry.counter("routing.batch.batches", router="hierarchical").inc()
        registry.counter("routing.batch.requests", router="hierarchical").inc(count)
        registry.histogram(
            "routing.batch.size", buckets=BATCH_SIZE_BUCKETS, router="hierarchical"
        ).observe(count)
        if count:
            registry.histogram(
                "routing.batch.request_seconds",
                buckets=WALL_SPAN_BUCKETS,
                router="hierarchical",
            ).observe((time.perf_counter() - started) / count)
        for outcome, hits in (("ok", count - infeasible), ("infeasible", infeasible)):
            if hits:
                registry.counter(
                    "routing.requests", router="hierarchical", outcome=outcome
                ).inc(hits)
        return results

    # -- steps 1+2: map, cluster-level shortest paths ------------------------------

    def cluster_candidates(
        self,
        sg: ServiceGraph,
        offering: Optional[Dict[ServiceName, List[ClusterId]]] = None,
    ) -> Dict[SlotId, List[ClusterId]]:
        """Clusters able to fill each slot, per SCT_C (the *map* step).

        *offering* collects the per-service cluster lists of one pipeline
        call's requests.
        """
        if offering is None:
            offering = {}
        capabilities = self.cluster_capabilities
        indexed, index = self._offering_index
        if indexed is not capabilities:
            index = {}
            for cid in range(self._view.cluster_count):
                for service in capabilities.get(cid, ()):
                    index.setdefault(service, []).append(cid)
            self._offering_index = capabilities, index
        for service in sg.services.values():
            if service not in offering:
                offering[service] = index.get(service) or []
        return {slot: offering[service] for slot, service in sg.services.items()}

    def cluster_level_path(self, request: ServiceRequest) -> ClusterServicePath:
        """Compute the CSP of one request with the configured method."""
        (csp,) = self._csp_stage([request])
        if isinstance(csp, NoFeasiblePathError):
            raise csp
        return csp

    def _csp_stage(self, requests: Sequence[ServiceRequest]) -> List[_CspOutcome]:
        """The CSP (or its infeasibility) of every request of one call.

        Shared per call: one capability sync, the per-service cluster lists
        and a memo keyed by CSP identity — (service-graph shape, source
        cluster, destination proxy) — in front of the version-driven cache a
        subclass keeps behind :meth:`_csp_cache_get` / :meth:`_csp_cache_put`.
        Which solver runs is read off the request itself: chains under the
        label-setting methods wait for the padded staircase kernel; only the
        inputs it cannot take (branching graphs, ``exact``) are solved one
        by one.
        """
        self.refresh_capabilities()
        view = self._view
        memo: Dict[Hashable, _CspOutcome] = {}
        chains: Dict[Hashable, _ChainJob] = {}
        offering: Dict[ServiceName, List[ClusterId]] = {}
        keys: List[Hashable] = []
        for request in requests:
            sg = request.service_graph
            cs = None
            try:
                cs = view.cluster_of(request.source_proxy)
                view.cluster_of(request.destination_proxy)
            except ClusteringError:
                # not (or, after a leave, no longer) a member: this request's
                # own infeasibility, not the failure of the whole call
                role, proxy = (
                    ("source", request.source_proxy)
                    if cs is None
                    else ("destination", request.destination_proxy)
                )
                keys.append(("not a member", len(keys)))
                memo[keys[-1]] = NoFeasiblePathError(
                    f"{role} proxy {proxy!r} is not an overlay member"
                )
                continue
            key = (service_graph_signature(sg), cs, request.destination_proxy)
            keys.append(key)
            if key in memo or key in chains:
                continue
            cached = self._csp_cache_get(key)
            if cached is not None:
                memo[key] = cached
                continue
            candidates = self.cluster_candidates(sg, offering)
            linear = sg.is_linear
            if linear and not all(candidates.values()):
                # a branching SG may route around an empty slot; a chain cannot
                missing = [sg.service_of(s) for s in sg.slots() if not candidates[s]]
                memo[key] = NoFeasiblePathError(
                    f"services unavailable in every cluster: {missing}"
                )
            elif linear and self.method != "exact":
                chains[key] = (request, cs)
            else:
                try:
                    csp = self._solve_general(request, candidates, cs)
                except NoFeasiblePathError as err:
                    memo[key] = err
                else:
                    memo[key] = csp
                    self._csp_cache_put(key, csp)
        solved = self._solve_chains(list(chains.values()), offering)
        for key, outcome in zip(chains, solved):
            memo[key] = outcome
            if not isinstance(outcome, NoFeasiblePathError):
                self._csp_cache_put(key, outcome)
        # every slot gets its own error instance: raising one object from
        # two places would chain their tracebacks
        outcomes = (memo[key] for key in keys)
        return [
            type(o)(*o.args) if isinstance(o, NoFeasiblePathError) else o
            for o in outcomes
        ]

    def _solve_general(
        self,
        request: ServiceRequest,
        candidates: Dict[SlotId, List[ClusterId]],
        cs: ClusterId,
    ) -> ClusterServicePath:
        """One request through the per-request solvers (any graph, any method)."""
        cd = self._view.cluster_of(request.destination_proxy)
        sg = request.service_graph
        if self.method == "exact":
            cost, assignment = self._solve_exact(request, sg, candidates, cs, cd)
        else:
            cost, assignment = self._solve_label(
                request, sg, candidates, cs, cd,
                with_internal=self.method == "backtrack",
            )
        return ClusterServicePath(
            assignment=tuple(assignment),
            source_cluster=cs,
            destination_cluster=cd,
            estimated_cost=cost,
        )

    # -- the padded chain kernel ---------------------------------------------------

    def _solve_chains(
        self, jobs: Sequence[_ChainJob], offering: Dict[ServiceName, List[ClusterId]]
    ) -> List[_CspOutcome]:
        """Cluster-level paths of linear requests (every slot has candidates):
        one padded relaxation pass per chain position over each staircase
        block of rows (longest chain first; position *t* relaxes the rows
        reaching it).

        Equivalence with the scalar reference rests on the same three facts
        as :meth:`_solve_label` — shared scalar-sourced tables,
        preserved ``(dist + ext) + internal`` association, first-occurrence
        ``argmin`` matching strict-``<`` updates in candidate order — plus
        one batching fact: padding lanes sit after the real candidates and
        carry ``inf`` labels, so they never steal an argmin tie.
        """
        if not jobs:
            return []
        view = self._view
        tables = query_tables(view)
        ext, border_row, d_border = tables.ext, tables.border_row, tables.d_border
        with_internal = self.method == "backtrack" and len(tables.border_list) > 0
        # per distinct service of the call: its candidate clusters, padded
        code = {service: at for at, service in enumerate(offering)}
        clusters, offered = padded(list(offering.values()))
        lane = np.arange(clusters.shape[1])
        chains = [request.service_graph.topological_order() for request, _ in jobs]
        results: List[Optional[_CspOutcome]] = [None] * len(jobs)
        for members in staircase([len(chain) for chain in chains]):
            requests = [jobs[j][0] for j in members]
            slot_code, live = padded(
                [
                    [code[request.service_graph.services[s]] for s in chains[j]]
                    for j, request in zip(members, requests)
                ]
            )
            alive, last = live.sum(axis=0).tolist(), live.sum(axis=1) - 1
            cand, vmask = clusters[slot_code], offered[slot_code]
            destinations = [request.destination_proxy for request in requests]
            cds = [view.cluster_of(pd) for pd in destinations]
            cs_arr = np.array([jobs[j][1] for j in members], dtype=np.int64)[:, None]

            # source-slot labels straight from the tables (same floats _start
            # reads back out of external_estimate/border)
            k0 = cand[:, 0]
            at_home = k0 == cs_arr
            labels = np.where(at_home, 0.0, ext[cs_arr, k0])
            labels[~vmask[:, 0]] = np.inf
            entry = np.where(at_home, -1, border_row[k0, cs_arr])
            parents: List[np.ndarray] = []
            at = np.arange(len(members))[:, None]
            for t in range(1, len(alive)):
                n = alive[t]
                kp, kc = cand[:n, t - 1, :, None], cand[:n, t, None, :]
                label, ent = labels[:n, :, None], entry[:n, :, None]
                same = kp == kc
                costs = label + ext[kp, kc]
                if with_internal:
                    # back-tracking, batched: entry border of each label to
                    # the exit border toward the candidate cluster
                    costs = costs + _internal_segments(d_border, ent, border_row[kp, kc])
                costs = np.where(same, label, costs)
                entries = np.where(same, ent, border_row[kc, kp])
                win = np.argmin(costs, axis=1)
                entry[:n] = entries[at[:n], win, lane]
                labels[:n] = np.where(vmask[:n, t], costs[at[:n], win, lane], np.inf)
                parents.append(win)

            totals = self._sink(tables, labels, entry, cand[at[:, 0], last], cds, destinations)
            winner = np.argmin(totals, axis=1)
            bounds = totals[at[:, 0], winner].tolist()
            lanes = backtrack(parents, winner, last, alive)
            chosen = cand[at, np.arange(len(alive)), lanes].tolist()
            for j, cd, bound, picked in zip(members, cds, bounds, chosen):
                results[j] = (
                    NoFeasiblePathError(_NO_CONFIGURATION)
                    if bound == float("inf")
                    else ClusterServicePath(tuple(zip(chains[j], picked)), jobs[j][1], cd, bound)
                )
        return results  # type: ignore[return-value]

    def _sink(
        self,
        tables: QueryTables,
        labels: np.ndarray,
        entry: np.ndarray,
        clusters: np.ndarray,
        cds: Sequence[ClusterId],
        destinations: Sequence[ProxyId],
    ) -> np.ndarray:
        """``label + tail`` of every last-slot label ``(rows, lanes)``, row *b*
        ending at ``destinations[b]`` in cluster ``cds[b]`` — :meth:`_tail` as
        table lookups. Three facts keep every float and tie-break of the scalar
        scan: the summands are the tables' own ``ext`` / ``d_border`` entries in
        :meth:`_tail`'s association ``(ext + internal) + dist``; the exact
        distances to a destination are one short row over *its own cluster's*
        borders (all a destination proxy can know), filled by the same
        ``space.distance(border, pd)`` calls; and an unlabeled lane carries
        ``inf``, so a first-occurrence ``argmin`` is the scan's strict ``<``.
        """
        cd = np.array(cds, dtype=np.int64)[:, None]
        tail = tables.ext[clusters, cd]
        if self.method == "backtrack" and tables.border_list:
            border_row, ptr = tables.border_row, tables.border_ptr
            distance = self._view.space.distance
            known: Dict[ProxyId, List[float]] = {}
            for pd, c in zip(destinations, cds):
                if pd not in known:
                    known[pd] = [
                        distance(tables.border_list[code], pd)
                        for code in range(ptr[c], ptr[c + 1])
                    ]
            to_pd, _ = padded([known[pd] for pd in destinations], float)
            home = clusters == cd
            internal = _internal_segments(tables.d_border, entry, border_row[clusters, cd])
            # the border of cd the path reaches pd from; -1: none, no charge
            via = np.where(home, entry, border_row[cd, clusters])
            dist = np.where(
                via < 0, 0.0, to_pd[np.arange(len(cds))[:, None], np.maximum(via - ptr[cd], 0)]
            )
            tail = np.where(home, dist, (tail + internal) + dist)
        return labels + tail

    # internal-distance helpers ------------------------------------------------

    def _internal(self, entry: _Entry, exit_border: ProxyId) -> float:
        """Estimated in-cluster segment from the entry border to the exit
        border; zero when unknown (source cluster) or when they coincide."""
        if entry is None or entry == exit_border:
            return 0.0
        return self._view.space.distance(entry, exit_border)

    def _tail(
        self, cluster: ClusterId, entry: _Entry, cd: ClusterId, pd: ProxyId,
        with_internal: bool,
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

    def _start(
        self, cluster: ClusterId, cs: ClusterId, with_internal: bool
    ) -> Tuple[float, _Entry]:
        """Cost and entry border for reaching the first service cluster."""
        if cluster == cs:
            return 0.0, None
        # pd cannot estimate the segment from ps to the exit border of cs
        # (it has no coordinates for ps), so only the external link counts.
        del with_internal  # the source-side internal segment is unknown either way
        view = self._view
        return view.external_estimate(cs, cluster), view.border(cluster, cs)

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
        tables = query_tables(self._view)
        ext = tables.ext
        border_row = tables.border_row
        d_border = tables.d_border
        nb = len(tables.border_list)

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
                # the floats _start reads back out of external_estimate/border
                init_cost = np.where(cand_arr == cs, 0.0, ext[cs, cand_arr])
                init_ent = np.where(cand_arr == cs, -1, border_row[cand_arr, cs])
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
                    cost_diff = cost_diff + _internal_segments(
                        d_border, e_arr[:, None], border_row[ci_arr[:, None], cand_arr[None, :]]
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

        # the one sink, over the sink slots' labels side by side in slot order
        sinks = sg.sink_slots()
        totals = self._sink(
            tables,
            np.concatenate([info[slot][1] for slot in sinks])[None],
            np.concatenate([info[slot][2] for slot in sinks])[None],
            np.array([c for slot in sinks for c in info[slot][0]], dtype=np.int64)[None],
            [cd],
            [request.destination_proxy],
        )[0]
        if not totals.size or totals.min() == float("inf"):
            raise NoFeasiblePathError(_NO_CONFIGURATION)
        j = int(np.argmin(totals))
        best_total = totals[j]
        for slot in sinks:
            if j < len(info[slot][0]):
                break
            j -= len(info[slot][0])
        assignment: List[Tuple[SlotId, ClusterId]] = []
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
        view = self._view
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
                                    + self._internal(ent_i, view.border(ci, cj))
                                    + view.external_estimate(ci, cj)
                                )
                                state = (slot, cj, view.border(cj, ci))
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
            raise NoFeasiblePathError(_NO_CONFIGURATION)
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
        border = self.hfc.border
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

        # child k runs from the border it is entered through to the border
        # facing child k+1; the request's own endpoints close the two ends
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

    # -- step 4: conquer -----------------------------------------------------------

    def _conquer(
        self, jobs: Sequence[Tuple[ServiceRequest, ChildRequest]]
    ) -> List[ChildHops]:
        """Solve every ``(request, child)`` of one pipeline call: per job, in
        order, the child's hop sequence or its :class:`NoFeasiblePathError`.

        The one conquer hook, and its whole contract. Here every child is an
        optimal flat solve inside its cluster over the members' live
        placement (one :func:`child_specs` and one :func:`solve_specs` over
        all the children of the call, hops built from the picked proxies); a
        subclass with another way to cross a cluster (the recursive router
        descends a level) overrides it, one with an extra admission rule
        post-checks the hops.
        """
        children = [child for _, child in jobs]
        picks = solve_specs(
            children,
            child_specs(self.hfc, children),
            self._provider,
            space=self.hfc.space
            if isinstance(self._provider, CoordinateProvider)
            else None,
        )
        return [
            picked if isinstance(picked, NoFeasiblePathError) else child_hops(child, picked)
            for child, picked in zip(children, picks)
        ]

    def solve_child(
        self, request: ServiceRequest, child: ChildRequest
    ) -> ServicePath:
        """Optimal intra-cluster resolution of one child request ([11] flat).

        An empty child (no services) degenerates to the direct intra-cluster
        link between its endpoints.
        """
        (outcome,) = self._conquer([(request, child)])
        if isinstance(outcome, NoFeasiblePathError):
            raise outcome
        return ServicePath(hops=outcome)

    def compose(
        self,
        request: ServiceRequest,
        child_paths: Sequence[Union[ServicePath, Sequence[Hop]]],
    ) -> ServicePath:
        """Concatenate the children's answers — paths, or the hop sequences
        the conquer hook hands over — into the final service path."""
        hops: List[Hop] = []
        for child in child_paths:
            hops.extend(child.hops if isinstance(child, ServicePath) else child)
        merged = merge_consecutive_hops(hops)
        if not merged:
            raise RoutingError("composition produced an empty path")
        return ServicePath(hops=tuple(merged))
