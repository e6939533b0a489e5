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

Steps 2 and 4 are both :func:`~repro.routing.kernel.relax`, the one
service-DAG kernel, under two cost gathers.
"""

from __future__ import annotations

import time
from functools import cached_property, partial
from itertools import chain, compress, groupby, repeat
from operator import attrgetter, itemgetter
from typing import (
    Any, Callable, Dict, FrozenSet, Hashable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union, cast,
)

import numpy as np

from repro.overlay.hfc import HFCTopology
from repro.overlay.network import ProxyId
from repro.routing.batch import (
    BATCH_SIZE_BUCKETS, BatchRouteResult, ClusterCosts, child_infeasible_error, child_specs, offering_index,
    placement_capabilities, query_tables, solve_specs,
)
from repro.routing.kernel import graph_row, relax
from repro.routing.path import Hop, ServicePath, merge_consecutive_hops
from repro.routing.providers import CoordinateProvider, DistanceProvider
from repro.routing.rebind import rebind_derived
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
        return [cluster for cluster, _ in groupby(map(itemgetter(1), self.assignment))]


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

#: a NamedTuple from its class and the tuple of its fields, in C (the
#: generated ``__new__`` is a Python call, and a routed batch builds tens of
#: thousands)
_new = cast(Callable[[Any, Tuple[Any, ...]], Any], tuple.__new__)


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
    #: the divide step's border lookup (:attr:`~repro.routing.batch.QueryTables.facing`)
    #: and the topology object it was read from, read again whenever another is bound
    _facing: Tuple[Any, List[List[Any]]] = (None, [])

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
        self._facing = HierarchicalRouter._facing  # holds no view this router left

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
        the old one (:func:`~repro.routing.rebind.rebind_derived`); feed-bound
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
        results = self._resolve(list(requests), detailed=False)
        failed = [isinstance(result, NoFeasiblePathError) for result in results]
        return BatchRouteResult(
            paths=[None if bad else result for result, bad in zip(results, failed)],
            errors=[result if bad else None for result, bad in zip(results, failed)],
        )

    # -- the pipeline -------------------------------------------------------------

    def _resolve(
        self, requests: List[ServiceRequest], detailed: bool = True
    ) -> List[Union[HierarchicalResult, ServicePath, NoFeasiblePathError]]:
        """Section 5 for a list of requests: one span tree, four stages.

        A single request is the list of one. Each stage runs once per call
        over every request still alive; an infeasible request carries its
        error through the remaining stages instead of aborting the call, so
        every slot ends as a :class:`HierarchicalResult` (its bare path when
        not *detailed*: no CSP outlives the call) or the
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
            # the kernel adds the triples it relaxed, its chunks and those it
            # relaxed row by row
            with tracer.span("route.csp", relaxed=0, chunks=0, row_chunks=0):
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
            with tracer.span("route.conquer", children=len(children), relaxed=0, chunks=0, row_chunks=0):
                answers: List[Any] = self._conquer(children)
            del children
            with tracer.span("route.compose"):
                compose, end = self.compose, 0
                # a request's answers are scanned for a refusal only in a call with one
                refusing = any(map(isinstance, answers, repeat(NoFeasiblePathError)))
                none: Iterator[Any] = iter(())
                for request, csp, n in zip(requests, csps, counts):
                    mine = answers[end : end + n]
                    end += n
                    refused = compress(mine, map(isinstance, mine, repeat(NoFeasiblePathError))) if refusing else none
                    failure = next(refused, None) if n else csp
                    if failure is None:
                        path = compose(request, mine)
                        results.append(HierarchicalResult(path, csp, request, self) if detailed else path)
                    else:
                        results.append(failure)
                        infeasible += 1

        registry = self.telemetry.registry
        batches, requested, sizes, seconds, outcomes = registry.bind("routing.hierarchical", _bind_metrics)
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

    def _index(self) -> Dict[ServiceName, List[ClusterId]]:
        """The map step's index of SCT_C (a service no cluster offers left
        out), built again whenever another view object is bound."""
        capabilities = self.cluster_capabilities
        indexed, index = self._offering_index
        if indexed is not capabilities:
            index = offering_index(capabilities, self._view.cluster_count)
            self._offering_index = capabilities, index
        return index

    def cluster_candidates(
        self, sg: ServiceGraph, offering: Optional[Dict[ServiceName, List[ClusterId]]] = None
    ) -> Dict[SlotId, List[ClusterId]]:
        """Clusters able to fill each slot, per SCT_C (the *map* step);
        *offering* collects the per-service cluster lists of several graphs."""
        index, offering = self._index(), {} if offering is None else offering
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
        Every other request, chain or branching, waits for one
        :meth:`_solve_csps`; only a chain with an unoffered service is
        answered here.
        """
        self.refresh_capabilities()
        cluster_of, index = self._view.cluster_of, self._index()
        # a router keeping no CSPs (its hooks left as they are here) is not asked
        keeping = type(self)._csp_cache_get is not HierarchicalRouter._csp_cache_get
        memo: Dict[Hashable, _CspOutcome] = {}
        jobs: Dict[Hashable, _CspJob] = {}
        keys: List[Hashable] = []
        # a signature is a tuple of tuples, hashed anew on every lookup: the
        # memo hashes it once per request, as its number in this call
        signatures: Dict[Hashable, int] = {}
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
            key = (signatures.setdefault(sg.signature, len(signatures)), cs, pd)
            keys.append(key)
            if key in memo or key in jobs:
                continue
            if keeping:
                cached = self._csp_cache_get((sg.signature, cs, pd))
                if cached is not None:
                    memo[key] = cached
                    continue
            order = sg.topological_order()
            named = list(map(sg.services.__getitem__, order))
            if sg.is_linear and not all(map(index.get, named)):
                # a branching SG may route around an empty slot; a chain cannot
                missing = [sg.service_of(s) for s in sg.slots() if not index.get(sg.service_of(s))]
                memo[key] = NoFeasiblePathError(f"services unavailable in every cluster: {missing}")
                continue
            jobs[key] = (sg, order, named, cs, cd, pd)
        named = dict.fromkeys(chain.from_iterable(map(itemgetter(2), jobs.values())))
        offering = {service: index.get(service) or [] for service in named}
        for key, outcome in zip(jobs, self._solve_csps(list(jobs.values()), offering)):
            memo[key] = outcome
            if keeping and not isinstance(outcome, NoFeasiblePathError):
                sg, _, _, cs, _, pd = jobs[key]
                self._csp_cache_put((sg.signature, cs, pd), outcome)
        # every slot gets its own error instance: raising one object from
        # two places would chain their tracebacks
        outcomes = map(memo.__getitem__, keys)
        return [type(o)(*o.args) if isinstance(o, NoFeasiblePathError) else o for o in outcomes]

    def _solve_csps(
        self, jobs: Sequence[_CspJob], offering: Dict[ServiceName, List[ClusterId]]
    ) -> List[_CspOutcome]:
        """The seam where the CSP stage calls its solver: per job, its
        cluster-level path over the clusters *offering* lists per service.

        Here one :func:`~repro.routing.kernel.relax` over
        :class:`~repro.routing.batch.ClusterCosts`: a row per request, its
        candidates every offering cluster of each slot's service, a branching
        graph's rows through :func:`~repro.routing.kernel.graph_row`.
        """
        code = {service: at for at, service in enumerate(offering)}
        widths = list(map(len, offering.values()))
        results: List[_CspOutcome] = [NoFeasiblePathError(_NO_CONFIGURATION)] * len(jobs)
        rows: List[List[int]] = []
        shapes: List[Any] = []
        live: List[int] = []
        filled: List[Sequence[SlotId]] = []  # per row its slots, the kept ones of a branching graph
        for at, (sg, order, named, _, _, _) in enumerate(jobs):
            groups = list(map(code.__getitem__, named))
            # the stage answered every chain with an unoffered service
            row = (None, None) if sg.is_linear else graph_row(sg, order, list(map(widths.__getitem__, groups)))
            if row is not None:
                kept, shape = row
                rows.append(groups if kept is None else list(map(groups.__getitem__, kept)))
                filled.append(order if kept is None else list(map(order.__getitem__, kept)))
                shapes.append(shape)
                live.append(at)
        if not rows:
            return results
        _, _, _, css, cds, pds = zip(*map(jobs.__getitem__, live))
        groups = list(offering.values())
        view, clusters = self._view, list(chain.from_iterable(groups))
        costs = ClusterCosts(query_tables(view), self.method == "backtrack", view, groups, css, cds, pds)
        # the kernel first: its tracer hears the call once it is exhausted
        for (items, positions, bound), at, slots, cs, cd in zip(
            relax(widths, rows, costs, shapes, self.telemetry.tracer), live, filled, css, cds
        ):
            if bound < np.inf:
                if positions is not None:
                    slots = list(map(slots.__getitem__, positions))
                assignment = tuple(zip(slots, map(clusters.__getitem__, items)))
                results[at] = _new(ClusterServicePath, (assignment, cs, cd, bound))
        return results

    # -- step 3: divide ---------------------------------------------------------

    def dissect(self, request: ServiceRequest, csp: ClusterServicePath) -> List[ChildRequest]:
        """Split the request along the CSP into per-cluster child requests: the
        maximal runs of consecutive slots in one cluster, and an empty run in
        the source's or destination's cluster where the CSP leaves an end."""
        hfc, services = self.hfc, request.service_graph.services
        held, facing = self._facing
        if held is not hfc:
            facing = query_tables(hfc).facing
            self._facing = hfc, facing
        assignment = csp.assignment
        slots = tuple(map(itemgetter(0), assignment))
        named = tuple(map(services.__getitem__, slots))
        # a child runs from the border it is entered through to the border
        # facing the next one; the request's own endpoints close the two ends
        children: List[ChildRequest] = []
        here, start, source = csp.source_cluster, 0, request.source_proxy
        out = facing[here]
        for at, (_, cluster) in enumerate((*assignment, (None, csp.destination_cluster))):
            if cluster != here:
                children.append(_new(ChildRequest, (here, slots[start:at], named[start:at], source, out[cluster])))
                out = facing[cluster]
                here, start, source = cluster, at, out[here]
        children.append(_new(ChildRequest, (here, slots[start:], named[start:], source, request.destination_proxy)))
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
        if not children:
            return []
        _, slots, services, sources, destinations = zip(*children)
        # every service hop of the call in one pass; one relay hop per proxy
        served = list(map(_new, repeat(Hop), zip(picks, chain.from_iterable(services), chain.from_iterable(slots))))
        relay = {proxy: _new(Hop, (proxy, None, None)) for proxy in {*sources, *destinations}}
        answers: List[Any] = []
        end = 0
        for size, source, destination in zip(map(len, slots), sources, destinations):
            start, end = end, end + size
            if not size:
                answers.append((relay[source],) if source == destination else (relay[source], relay[destination]))
                continue
            hops = served[start:end]
            if picks[start] != source:
                hops.insert(0, relay[source])
            if picks[end - 1] != destination:
                hops.append(relay[destination])
            answers.append(tuple(hops))
        for at in refused:
            answers[at] = child_infeasible_error(children[at])
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


def _bind_metrics(registry: Any) -> Tuple[Any, ...]:
    """The handles :meth:`HierarchicalRouter._resolve` bumps, bound once per registry."""
    histogram = partial(registry.histogram, router="hierarchical")
    return (
        registry.counter("routing.batch.batches", router="hierarchical"),
        registry.counter("routing.batch.requests", router="hierarchical"),
        histogram("routing.batch.size", buckets=BATCH_SIZE_BUCKETS),
        histogram("routing.batch.request_seconds", buckets=WALL_SPAN_BUCKETS),
        {},  # per outcome, registered on its first hit
    )
