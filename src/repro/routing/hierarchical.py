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

Two variants of step 2 are provided (`method=`):

* ``"backtrack"`` (default, the paper's): labels carry the border through
  which the cluster was entered, found by back-tracking the chosen
  predecessor, and internal segments are added during relaxation;
* ``"external"``: unmodified DAG-shortest-paths on external link lengths
  only — the naive baseline the paper's example argues against.

Steps 2 and 4 are both :func:`~repro.routing.batch.relax`, the one
service-DAG kernel, under two cost gathers.
"""

from __future__ import annotations

import time
from array import array
from functools import cached_property, partial
from itertools import chain, compress, repeat
from operator import attrgetter, itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

import numpy as np

from repro.overlay.hfc import HFCTopology
from repro.overlay.network import ProxyId
from repro.routing.batch import (
    BATCH_SIZE_BUCKETS,
    BatchRouteResult,
    Costs,
    QueryTables,
    Ragged,
    child_infeasible_error,
    child_specs,
    graph_row,
    offering_index,
    placement_capabilities,
    query_tables,
    rebind_derived,
    relax,
    solve_specs,
)
from repro.routing.path import Hop, ServicePath, merge_consecutive_hops
from repro.routing.providers import CoordinateProvider, DistanceProvider
from repro.services.catalog import ServiceName
from repro.services.graph import ServiceGraph, SlotId
from repro.services.request import ServiceRequest
from repro.telemetry import NULL_TELEMETRY, Telemetry, get_telemetry
from repro.telemetry.tracing import WALL_SPAN_BUCKETS
from repro.util.collector import _collector_paused
from repro.util.errors import ClusteringError, NoFeasiblePathError, RoutingError

ClusterId = int
METHODS = ("backtrack", "external")
_NO_CONFIGURATION = "no cluster-level configuration satisfies the request"

class ClusterServicePath(NamedTuple):
    """The CSP: which cluster serves each slot, plus the estimated bound
    (plain data: a routed batch builds one per distinct request)."""

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
#: one request waiting for the CSP solver: its graph, its slots in topological
#: order and their services, its source and destination clusters and its
#: destination proxy
_CspJob = Tuple[ServiceGraph, List[SlotId], List[ServiceName], ClusterId, ClusterId, ProxyId]

#: a NamedTuple from the tuple of its fields, in C (the generated ``__new__``
#: is a Python call, and a routed batch builds tens of thousands)
_child = cast(Callable[[Tuple[Any, ...]], ChildRequest], partial(tuple.__new__, ChildRequest))
_csp = cast(Callable[[Tuple[Any, ...]], ClusterServicePath], partial(tuple.__new__, ClusterServicePath))
_hop = cast(Callable[[Tuple[Any, ...]], Hop], partial(tuple.__new__, Hop))


class HierarchicalResult:
    """One request resolved hierarchically: its path and its CSP. The child
    decomposition is derived on first read, by the router's :meth:`dissect`
    (so read it before rebinding the router) and by cutting the path where
    each next child's source proxy first appears — a child's hops stay inside
    its cluster and two clusters share no proxy, so :meth:`compose` joined
    the children's answers without merging any two of them."""

    def __init__(self, path: ServicePath, csp: ClusterServicePath, request: ServiceRequest, router: Any) -> None:
        self.path, self.csp, self._request, self._router = path, csp, request, router

    @cached_property
    def child_requests(self) -> List[ChildRequest]:
        """The request dissected along the CSP."""
        return self._router.dissect(self._request, self.csp)

    @cached_property
    def child_hops(self) -> List[Tuple[Hop, ...]]:
        """Per child, the hop sequence its cluster answered with."""
        proxies, cuts = [hop.proxy for hop in self.path.hops], [0]
        for child in self.child_requests[1:]:
            cuts.append(proxies.index(child.source_proxy, cuts[-1] + 1))
        return [self.path.hops[a:b] for a, b in zip(cuts, [*cuts[1:], None])]

    @cached_property
    def child_paths(self) -> List[ServicePath]:
        """The children's answers as service paths, wrapped on first read."""
        return [ServicePath(hops=hops) for hops in self.child_hops]

    def __eq__(self, other: object) -> bool:
        fields = attrgetter("path", "csp", "child_requests", "child_hops")
        return isinstance(other, HierarchicalResult) and fields(self) == fields(other)

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"HierarchicalResult(path={self.path!r}, csp={self.csp!r})"


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
            method: CSP computation variant; one of ``backtrack``,
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

    def route_many_detailed(self, requests: Sequence[ServiceRequest]) -> BatchRouteResult:
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
        :class:`NoFeasiblePathError` of its first failing stage. Past the
        conquer only the answers' hops stay alive; a result derives the rest.
        """
        tracer = self.telemetry.tracer
        started = time.perf_counter()
        count = len(requests)
        results: List[Any] = []
        infeasible = 0
        # a call makes only acyclic objects that die by reference count: a
        # collection inside it would only re-walk the results it is building
        with _collector_paused(), tracer.span(
            "route", router="hierarchical", method=self.method, requests=count
        ):
            # the chain kernels add the triples they relaxed and their chunks
            with tracer.span("route.csp", relaxed=0, chunks=0):
                csps: List[Any] = self._csp_stage(requests)
            # every request's children side by side; how many each has (0: no CSP)
            children: List[ChildRequest] = []
            counts: List[int] = []
            with tracer.span("route.dissect"):
                dissect = self.dissect
                for request, csp in zip(requests, csps):
                    before = len(children)
                    if not isinstance(csp, NoFeasiblePathError):
                        children += dissect(request, csp)
                    counts.append(len(children) - before)
            with tracer.span("route.conquer", children=len(children), relaxed=0, chunks=0):
                answers: List[Any] = self._conquer(children)
            del children
            with tracer.span("route.compose"):
                compose, end = self.compose, 0
                for request, csp, n in zip(requests, csps, counts):
                    mine = answers[end : end + n]
                    end += n
                    refused = compress(mine, map(isinstance, mine, repeat(NoFeasiblePathError)))
                    failure = next(refused, None) if n else csp
                    if failure is None:
                        results.append(HierarchicalResult(compose(request, mine), csp, request, self))
                    else:
                        results.append(failure)
                        infeasible += 1

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

    def _offer(self, services: Iterable[ServiceName], offering: Dict[ServiceName, List[ClusterId]]) -> Dict[ServiceName, List[ClusterId]]:
        """*offering* with the clusters of each of *services* per SCT_C (the
        *map* step), read off an index built again whenever another view
        object is bound."""
        capabilities = self.cluster_capabilities
        indexed, index = self._offering_index
        if indexed is not capabilities:
            index = offering_index(capabilities, self._view.cluster_count)
            self._offering_index = capabilities, index
        for service in services:
            if service not in offering:
                offering[service] = index.get(service) or []
        return offering

    def cluster_candidates(
        self,
        sg: ServiceGraph,
        offering: Optional[Dict[ServiceName, List[ClusterId]]] = None,
    ) -> Dict[SlotId, List[ClusterId]]:
        """Clusters able to fill each slot, per SCT_C; *offering* collects the
        per-service cluster lists of one pipeline call's requests."""
        offering = self._offer(sg.services.values(), {} if offering is None else offering)
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
        Every other request, chain or branching, waits for one
        :meth:`_solve_csps`; only a chain with an unoffered service is
        answered here.
        """
        self.refresh_capabilities()
        cluster_of = self._view.cluster_of
        memo: Dict[Hashable, _CspOutcome] = {}
        jobs: Dict[Hashable, _CspJob] = {}
        offering: Dict[ServiceName, List[ClusterId]] = {}
        keys: List[Hashable] = []
        for request in requests:
            sg, pd = request.service_graph, request.destination_proxy
            cs = None
            try:
                cs = cluster_of(request.source_proxy)
                cd = cluster_of(pd)
            except ClusteringError:
                # not (or, after a leave, no longer) a member: this request's
                # own infeasibility, not the failure of the whole call
                role, proxy = ("source", request.source_proxy) if cs is None else ("destination", pd)
                keys.append(("not a member", len(keys)))
                memo[keys[-1]] = NoFeasiblePathError(f"{role} proxy {proxy!r} is not an overlay member")
                continue
            key = (sg.signature, cs, pd)
            keys.append(key)
            if key in memo or key in jobs:
                continue
            cached = self._csp_cache_get(key)
            if cached is not None:
                memo[key] = cached
                continue
            order = sg.topological_order()
            named = list(map(sg.services.__getitem__, order))
            offered = self._offer(named, offering)
            if sg.is_linear and not all(map(offered.__getitem__, named)):
                # a branching SG may route around an empty slot; a chain cannot
                missing = [sg.service_of(s) for s in sg.slots() if not offered[sg.service_of(s)]]
                memo[key] = NoFeasiblePathError(f"services unavailable in every cluster: {missing}")
                continue
            jobs[key] = (sg, order, named, cs, cd, pd)
        for key, outcome in zip(jobs, self._solve_csps(list(jobs.values()), offering)):
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

    def _solve_csps(
        self, jobs: Sequence[_CspJob], offering: Dict[ServiceName, List[ClusterId]]
    ) -> List[_CspOutcome]:
        """The seam where the CSP stage calls its solver: per job, its
        cluster-level path over the clusters *offering* lists per service.

        Here one :func:`~repro.routing.batch.relax` over
        :class:`_ClusterCosts`: a row per request, its candidates every
        offering cluster of each slot's service, a branching graph's rows
        through :func:`~repro.routing.batch.graph_row`.
        """
        code = {service: at for at, service in enumerate(offering)}
        widths = list(map(len, offering.values()))
        results: List[_CspOutcome] = [NoFeasiblePathError(_NO_CONFIGURATION)] * len(jobs)
        rows: List[List[int]] = []
        shapes: List[Any] = []
        live: List[Tuple[int, List[SlotId], ClusterId, ClusterId]] = []
        css: List[ClusterId] = []
        cds: List[ClusterId] = []
        pds: List[ProxyId] = []
        for at, (sg, order, named, cs, cd, pd) in enumerate(jobs):
            groups = list(map(code.__getitem__, named))
            # the stage answered every chain with an unoffered service
            row = (None, None) if sg.is_linear else graph_row(sg, order, list(map(widths.__getitem__, groups)))
            if row is not None:
                kept, shape = row
                rows.append(groups if kept is None else list(map(groups.__getitem__, kept)))
                live.append((at, order if kept is None else list(map(order.__getitem__, kept)), cs, cd))
                shapes.append(shape)
                css.append(cs)
                cds.append(cd)
                pds.append(pd)
        if not rows:
            return results
        costs = _ClusterCosts(self, offering, css, cds, pds)
        for r0, r1, lay, parent, final, bounds in relax(widths, rows, costs, shapes, self.telemetry.tracer):
            chosen = lay.walk(parent, final, costs.lane_cluster)
            placed: Iterable[Optional[List[int]]] = (
                repeat(None) if lay.position is None else lay.walk(parent, final, lay.position)
            )
            for (at, slots, cs, cd), bound, picked, positions in zip(live[r0:r1], bounds, chosen, placed):
                if bound < np.inf:
                    filled = slots if positions is None else list(map(slots.__getitem__, positions))
                    results[at] = _csp((tuple(zip(filled, picked)), cs, cd, bound))
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
        """``label + tail`` of every sink label ``(rows, lanes)``, row *b*
        ending at ``destinations[b]`` in cluster ``cds[b]`` (entries shifted by
        one, 0 for none), in the association ``(ext + internal) + dist``. The
        exact distances to a destination are a row over *its own cluster's*
        borders only (all a destination proxy can know), from the same
        ``space.distance`` calls, made once per destination and *tables*
        (:attr:`~repro.routing.batch.QueryTables.to_destination`).
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
            # from its cluster's borders, asked once per tables object;
            # ``base[pd] + shifted code`` finds one
            to_pd, base, rows = array("d", [0.0]), {}, tables.to_destination
            for pd, c in zip(destinations, cds):
                if pd not in base:
                    base[pd] = len(to_pd) - 1 - ptr[c]
                    row = rows.get(pd)
                    if row is None:
                        borders = tables.border_list[ptr[c] : ptr[c + 1]]
                        row = rows[pd] = array("d", map(distance, borders, repeat(pd)))
                    to_pd += row
            home = clusters == cd
            internal = d_entry.take(entry * stride + exits_of.take(out))
            # the border of cd the path reaches pd from; 0: none, no charge
            via = np.where(home, entry, exits_of.take(cd * k + clusters))
            at = np.array([base[pd] for pd in destinations], dtype=np.int64)[:, None] + via
            dist = np.frombuffer(to_pd).take(np.where(via > 0, at, 0))
            tail = np.where(home, dist, (tail + internal) + dist)
        return labels + tail

    # -- step 3: divide ---------------------------------------------------------

    def dissect(self, request: ServiceRequest, csp: ClusterServicePath) -> List[ChildRequest]:
        """Split the request along the CSP into per-cluster child requests: the
        maximal runs of consecutive slots in one cluster, and an empty run in
        the source's or destination's cluster where the CSP leaves an end."""
        border, services = self.hfc.border, request.service_graph.services
        slots = tuple(map(itemgetter(0), csp.assignment))
        named = tuple(map(services.__getitem__, slots))
        # a child runs from the border it is entered through to the border
        # facing the next one; the request's own endpoints close the two ends
        children: List[ChildRequest] = []
        here, start, source = csp.source_cluster, 0, request.source_proxy
        for at, (_, cluster) in enumerate((*csp.assignment, (None, csp.destination_cluster))):
            if cluster != here:
                children.append(_child((here, slots[start:at], named[start:at], source, border(here, cluster))))
                here, start, source = cluster, at, border(cluster, here)
        children.append(_child((here, slots[start:], named[start:], source, request.destination_proxy)))
        return children

    # -- step 4: conquer -----------------------------------------------------------

    def _conquer(self, children: Sequence[ChildRequest]) -> List[ChildHops]:
        """Solve every child of one pipeline call: per child, in order, its
        hop sequence or its :class:`NoFeasiblePathError`.

        The one conquer hook, and its whole contract. Here every child is an
        optimal flat solve inside its cluster over the members' live
        placement (one :func:`child_specs` and one :func:`solve_specs` over
        all the children of the call); its picks become its service hops,
        behind a relay on its source proxy and before one on its destination
        proxy where a pick does not stand there already. A subclass with
        another way to cross a cluster (the recursive router descends a
        level) overrides it, one with an extra admission rule post-checks
        the hops.
        """
        picks, refused = solve_specs(
            children, child_specs(self.hfc, children), self._provider, tracer=self.telemetry.tracer
        )
        # every service hop of the call in one pass; one relay hop per proxy
        offered = chain.from_iterable(map(itemgetter(2), children))
        filled = chain.from_iterable(map(itemgetter(1), children))
        served = list(map(_hop, zip(picks, offered, filled)))
        ends = list({*map(itemgetter(3), children), *map(itemgetter(4), children)})
        relay = dict(zip(ends, map(_hop, zip(ends, repeat(None), repeat(None)))))
        answers: List[Any] = []
        end = 0
        for at, (_, slots, _, source, destination) in enumerate(children):
            start, end = end, end + len(slots)
            if not slots:
                answers.append((relay[source],) if source == destination else (relay[source], relay[destination]))
            elif at in refused:
                answers.append(child_infeasible_error(children[at]))
            else:
                hops = served[start:end]
                if hops[0].proxy != source:
                    hops.insert(0, relay[source])
                if hops[-1].proxy != destination:
                    hops.append(relay[destination])
                answers.append(tuple(hops))
        return answers

    def solve_child(self, request: ServiceRequest, child: ChildRequest) -> ServicePath:
        """Optimal intra-cluster resolution of one child request ([11] flat).

        An empty child (no services) degenerates to the direct intra-cluster
        link between its endpoints.
        """
        (outcome,) = self._conquer([child])
        if isinstance(outcome, NoFeasiblePathError):
            raise outcome
        return ServicePath(hops=outcome)

    def compose(
        self,
        request: ServiceRequest,
        child_paths: Sequence[Union[ServicePath, Sequence[Hop]]],
    ) -> ServicePath:
        """Concatenate the children's answers — paths, or the hop sequences
        the conquer hook hands over — into the final service path. Each
        answer is merged already, so only where two meet can a relay
        duplicate its neighbour: the merge runs there alone."""
        hops: List[Hop] = []
        for child in child_paths:
            answer = child.hops if isinstance(child, ServicePath) else child
            if hops and answer and hops[-1].proxy == answer[0].proxy:
                answer = merge_consecutive_hops([hops.pop(), *answer])
            hops += answer
        if not hops:
            raise RoutingError("composition produced an empty path")
        return ServicePath(hops=tuple(hops))


class _ClusterCosts(Costs):
    """The CSP stage's gather over :func:`~repro.routing.batch.query_tables`:
    a source slot starts at ``ext(cs, cluster)`` entered through the border
    facing *cs*; a step adds ``ext`` and, under back-tracking, the internal
    segment from the border the label entered by to the exit border (a
    candidate in its predecessor's cluster adds ``ext``'s zero diagonal and
    ``d_entry``'s zero column, and keeps the entry); the sink is
    :meth:`HierarchicalRouter._sink`. An entry is carried as the offset of
    its ``d_entry`` row; label-free gathers are made once per chunk."""

    def __init__(
        self, router: HierarchicalRouter, offering: Dict[ServiceName, List[ClusterId]],
        sources: List[ClusterId], cds: List[ClusterId], destinations: List[ProxyId],
    ) -> None:
        self.router, self.cds, self.destinations = router, cds, destinations
        self.tables = tables = query_tables(router._view)
        self.stride = len(tables.border_list) + 1
        self.internal = router.method == "backtrack" and self.stride > 1
        self.clusters = np.fromiter(chain.from_iterable(offering.values()), dtype=np.int64)
        self.sources = np.array(sources, dtype=np.int64)

    def start(self, r0: int, r1: int, lay: Ragged) -> np.ndarray:
        ext, exits_of, entries_of, _ = self.tables.flat
        k = self.tables.cluster_count
        self.lay, self.rows = lay, slice(r0, r1)
        lane_cluster = self.lane_cluster = self.clusters.take(lay.items)
        head = self.sources[self.rows].take(lay.head_rows) * k + lane_cluster[: lay.heads]
        self.entry = np.zeros(len(lane_cluster), dtype=np.int64)
        self.entry[: lay.heads] = entries_of.take(head)
        # few triple-length arrays stay alive: int32 border codes
        kp = lane_cluster.take(lay.pred)
        kp *= k
        kp += lane_cluster[lay.heads :].repeat(lay.seg_len)
        self.hop = ext.take(kp)
        if self.internal:
            self.exits, self.entries = exits_of.take(kp), entries_of.take(kp)
            self.same = self.entries == 0
        return ext.take(head)

    def step(self, labels: np.ndarray, pred: np.ndarray, at: slice) -> np.ndarray:
        costs = labels.take(pred)
        costs += self.hop[at]
        if self.internal:  # entry border of each label to its exit border
            self.held = self.entry.take(pred)
            costs += self.tables.flat[3].take(self.held + self.exits[at])
        return costs

    def keep(self, lanes: slice, at: slice, first: np.ndarray) -> None:
        if self.internal:  # a candidate in its predecessor's cluster keeps its entry
            self.entry[lanes] = np.where(self.same[at], self.held, self.entries[at]).take(first)

    def sink(self, labels: np.ndarray) -> np.ndarray:
        tail = self.lay.tail
        block = labels.take(tail)
        block[self.lay.beyond] = np.inf
        return self.router._sink(
            self.tables, block, self.entry.take(tail) // self.stride, self.lane_cluster.take(tail),
            self.cds[self.rows], self.destinations[self.rows],
        )
