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
from functools import cached_property, partial
from itertools import chain, islice
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
    child_hops,
    child_specs,
    offering_index,
    placement_capabilities,
    query_tables,
    ragged_chunks,
    rebind_derived,
    segment_argmin,
    service_graph_signature,
    solve_specs,
)
from repro.routing.path import Hop, ServicePath, merge_consecutive_hops
from repro.routing.providers import CoordinateProvider, DistanceProvider
from repro.services.catalog import ServiceName
from repro.services.graph import ServiceGraph, SlotId
from repro.services.request import ServiceRequest
from repro.telemetry import NULL_TELEMETRY, Telemetry, get_telemetry
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
    telemetry: Telemetry = NULL_TELEMETRY
    #: the cluster-level surface the CSP stage relaxes over (``cluster_count``
    #: / ``cluster_of`` / ``border`` / ``external_estimate`` / ``space``);
    #: None means the topology itself. Subclasses that route on coarser or
    #: pruned cluster-level information bind their view here — dissection
    #: and conquer always run on :attr:`hfc`.
    cluster_view: Any = None
    #: the map step's index (:func:`~repro.routing.batch.offering_index`) and
    #: the capability view it was built from. A view is replaced, never edited in
    #: place; however that happens (feed sync, a subclass, plain assignment to
    #: :attr:`cluster_capabilities`), the next map step finds another object
    #: there and builds the index again, unless a ``rebind`` patched it
    _offering_index: Tuple[Any, Dict[ServiceName, List[ClusterId]]] = (None, {})
    #: the metric handles :meth:`_resolve` bumps, bound once per telemetry scope
    _metrics: Tuple[Any, ...] = (None,)

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
            cluster_capabilities = placement_capabilities(hfc)
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
        ground-truth capability view of the new placement, patched from
        the old one (:func:`~repro.routing.batch.rebind_derived`); feed-bound
        ones are forced to resynchronise on the next refresh. Either way
        :meth:`_capabilities_changed` fires, because topology-derived
        caches (CSP keys embed cluster ids, which a rebuild renumbers) are
        all invalid now. A ``routing.rebind`` event says what it did.
        """
        old = getattr(self, "hfc", None)
        self._bind(hfc)
        if self.capability_feed is None:
            self.cluster_capabilities, self._offering_index, event = rebind_derived(
                old, hfc, self.cluster_capabilities, self._offering_index
            )
            self._capabilities_changed()
        else:
            event = dict(mode="feed")
            self._feed_version = self._UNSYNCED
            self.refresh_capabilities()
        self.telemetry.events.record("routing.rebind", **event)

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
            # the chain kernels add the triples they relaxed and their chunks
            with tracer.span("route.csp", relaxed=0, chunks=0):
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
            with tracer.span("route.conquer", children=len(jobs), relaxed=0, chunks=0):
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
        batches = registry.counter("routing.batch.batches", router="hierarchical")
        if self._metrics[0] is not batches:  # a new telemetry scope, or its registry cleared
            histogram = partial(registry.histogram, router="hierarchical")
            self._metrics = (
                batches,
                registry.counter("routing.batch.requests", router="hierarchical"),
                histogram("routing.batch.size", buckets=BATCH_SIZE_BUCKETS),
                histogram("routing.batch.request_seconds", buckets=WALL_SPAN_BUCKETS),
                {},  # per outcome, registered on its first hit
            )
        _, requested, sizes, seconds, outcomes = self._metrics
        infeasible = sum(isinstance(r, NoFeasiblePathError) for r in results)
        batches.inc()
        requested.inc(count)
        sizes.observe(count)
        if count:
            seconds.observe((time.perf_counter() - started) / count)
        for outcome, hits in (("ok", count - infeasible), ("infeasible", infeasible)):
            if hits:
                if outcome not in outcomes:
                    outcomes[outcome] = registry.counter("routing.requests", router="hierarchical", outcome=outcome)
                outcomes[outcome].inc(hits)
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
            index = offering_index(capabilities, self._view.cluster_count)
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
        label-setting methods wait for the ragged chain kernel; only the
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

    # -- the ragged chain kernel ---------------------------------------------------

    def _solve_chains(
        self, jobs: Sequence[_ChainJob], offering: Dict[ServiceName, List[ClusterId]]
    ) -> List[_CspOutcome]:
        """Cluster-level paths of linear requests (every slot has candidates):
        one relaxation pass per chain position over the real ``(row,
        predecessor, candidate)`` triples of each chunk of rows
        (:func:`~repro.routing.batch.ragged_chunks`).

        Equivalent to the scalar reference by :meth:`_solve_label`'s three
        facts; a candidate in its predecessor's cluster adds ``ext``'s zero
        diagonal and ``d_entry``'s zero column, keeping the label as the
        reference's ``ci == cj`` branch does. Label-free gathers are made once
        per chunk; an entry is carried as the offset of its ``d_entry`` row.
        """
        if not jobs:
            return []
        view = self._view
        tables = query_tables(view)
        k, stride = tables.cluster_count, len(tables.border_list) + 1
        ext, exits_of, entries_of, d_entry = tables.flat
        with_internal = self.method == "backtrack" and stride > 1
        # per distinct service of the call: its candidate clusters, side by side
        code = {service: at for at, service in enumerate(offering)}
        clusters = np.fromiter(chain.from_iterable(offering.values()), dtype=np.int64)
        chains = [request.service_graph.topological_order() for request, _ in jobs]
        services = [request.service_graph.services for request, _ in jobs]
        rows = [[code[named[slot]] for slot in c] for named, c in zip(services, chains)]
        sources = np.fromiter((cs for _, cs in jobs), dtype=np.int64, count=len(jobs))
        destinations = [request.destination_proxy for request, _ in jobs]
        cds = [view.cluster_of(pd) for pd in destinations]
        results: List[_CspOutcome] = []
        relaxed = chunks = 0
        for r0, r1, lay in ragged_chunks(list(map(len, offering.values())), rows):
            lane_cluster = clusters.take(lay.items)
            k0, cs = lane_cluster[: lay.heads], sources[r0:r1].take(lay.head_rows)
            # the floats _start reads back out of external_estimate / border
            labels = np.empty(len(lane_cluster))
            entry = np.zeros(len(lane_cluster), dtype=np.int64)
            head = cs * k + k0
            labels[: lay.heads], entry[: lay.heads] = ext.take(head), entries_of.take(head)
            parent = np.arange(len(lane_cluster))
            # few triple-length arrays stay alive: int32 border codes
            kp = lane_cluster.take(lay.pred)
            kp *= k
            kp += lane_cluster[lay.heads :].repeat(lay.seg_len)
            step = ext.take(kp)
            if with_internal:
                exits, entries = exits_of.take(kp), entries_of.take(kp)
                same = entries == 0
            del kp
            for lanes, at, starts, lengths in lay.positions:
                pred = lay.pred[at]
                costs = labels.take(pred)
                costs += step[at]
                if with_internal:  # entry border of each label to its exit border
                    held = entry.take(pred)
                    costs += d_entry.take(held + exits[at])
                labels[lanes], first = segment_argmin(costs, starts, lengths)
                parent[lanes] = pred.take(first)
                if with_internal:  # a candidate in its predecessor's cluster keeps its entry
                    entry[lanes] = np.where(same[at], held, entries[at]).take(first)
            block = labels.take(lay.tail)
            block[lay.beyond] = np.inf
            tail = entry.take(lay.tail) // stride, lane_cluster.take(lay.tail)
            totals = self._sink(tables, block, *tail, cds[r0:r1], destinations[r0:r1])
            winner = (np.arange(r1 - r0), totals.argmin(axis=1))
            chosen = lay.walk(parent, lay.tail[winner], lane_cluster)
            for j, bound, picked in zip(range(r0, r1), totals[winner].tolist(), chosen):
                results.append(
                    NoFeasiblePathError(_NO_CONFIGURATION)
                    if bound == float("inf")
                    else ClusterServicePath(tuple(zip(chains[j], picked)), jobs[j][1], cds[j], bound)
                )
            relaxed += len(lay.pred)
            chunks += 1
        self.telemetry.tracer.add(relaxed=relaxed, chunks=chunks)
        return results

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
        table lookups (entries shifted by one, 0 for none), in :meth:`_tail`'s
        association ``(ext + internal) + dist``. The exact distances to a
        destination are a row over *its own cluster's* borders only (all a
        destination proxy can know), from the same ``space.distance`` calls.
        """
        ext, exits_of, _, d_entry = tables.flat
        k, stride = tables.cluster_count, len(tables.border_list) + 1
        cd = np.array(cds, dtype=np.int64)[:, None]
        out = clusters * k + cd
        tail = ext.take(out)
        if self.method == "backtrack" and tables.border_list:
            ptr = tables.border_ptr.tolist()
            distance = self._view.space.distance
            # one 0.0 (no border) and, per distinct destination, the distances
            # from its cluster's borders; ``base[pd] + shifted code`` finds one
            to_pd, base = [0.0], {}
            for pd, c in zip(destinations, cds):
                if pd not in base:
                    base[pd] = len(to_pd) - 1 - ptr[c]
                    to_pd += [distance(border, pd) for border in tables.border_list[ptr[c] : ptr[c + 1]]]
            home = clusters == cd
            internal = d_entry.take(entry * stride + exits_of.take(out))
            # the border of cd the path reaches pd from; 0: none, no charge
            via = np.where(home, entry, exits_of.take(cd * k + clusters))
            at = np.array([base[pd] for pd in destinations], dtype=np.int64)[:, None] + via
            dist = np.array(to_pd).take(np.where(via > 0, at, 0))
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
        labels are ``inf``: they never precede a finite winner.
        """
        tables = query_tables(self._view)
        ext = tables.ext
        border_row = tables.border_row
        d_entry = tables.d_entry
        nb = len(tables.border_list)

        # per finalized slot: candidates, label costs (inf = unlabeled),
        # entry-border codes shifted by one (0 = None), parent pointers
        # (slot, index)
        info: Dict[
            SlotId,
            Tuple[List[ClusterId], np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        ] = {}
        source_slots = set(sg.source_slots())
        for slot in sg.topological_order():
            cand = candidates[slot]
            n = len(cand)
            if n == 0:
                none = np.empty(0, dtype=np.int64)
                info[slot] = (cand, np.empty(0, dtype=float), none, none, none)
                continue
            cand_arr = np.asarray(cand, dtype=np.int64)
            if slot in source_slots:
                # the floats _start reads back out of external_estimate/border
                init_cost = np.where(cand_arr == cs, 0.0, ext[cs, cand_arr])
                init_ent = border_row[cand_arr, cs] + 1
            else:
                init_cost = np.full(n, np.inf)
                init_ent = np.zeros(n, dtype=np.int64)

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

                # (predecessor, candidate) pairs; one in a single cluster adds
                # ext's zero diagonal and d_entry's zero column to its label
                pair = ci_arr[:, None], cand_arr[None, :]
                costs = d_arr[:, None] + ext[pair]
                if with_internal and nb:
                    # the back-tracking step, batched: from the border each
                    # label entered through to the exit border toward cj
                    costs = costs + d_entry[e_arr[:, None], border_row[pair] + 1]
                entries = np.where(pair[0] == pair[1], e_arr[:, None], border_row.T[pair] + 1)
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
            tracer=self.telemetry.tracer,
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
