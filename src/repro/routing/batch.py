"""What the requests of one routing call share.

Routing resolves every request against the same slowly changing structures
— the border tables of the HFC topology, the member lists of the clusters a
resolution crosses. This module hosts the structures one pipeline call
(:meth:`HierarchicalRouter._resolve`, for one request or a thousand) shares:

* :func:`query_tables` — dense numpy tables over the cluster-level border
  structure (external link lengths, border identities, intra-cluster
  border-to-border segments). They are built from the **same scalar calls**
  the reference relaxation makes (``hfc.external_estimate``,
  ``space.distance``), so the vectorized relaxation consumes bit-identical
  floats and can promise bit-identical cluster-level paths. The tables are
  cached on the topology object itself (the convention ``_matrices`` and
  the overlay-graph cache already follow): dynamic membership materialises
  a fresh topology after every churn event, so the cache can never go
  stale.
* :func:`child_specs` — the conquer candidates of a call's children, from
  one pass over each touched cluster's members and the live placement.
* :func:`solve_specs` / :func:`solve_child_spec` — the proxies picked for a
  call's children (one padded kernel) or for one child (the flat solver),
  and :func:`child_hops`, the hop sequence a child's picks stand for.
* :class:`BatchRouteResult` — aligned per-request outcomes of a batch.
* :func:`padded` / :func:`staircase` / :func:`backtrack` — the row layout
  the two padded chain kernels (cluster-level CSP, conquer) share.

Only intra-cluster border pairs enter the ``d_border`` table: the
back-tracking cost model charges internal segments exclusively between two
borders of the *same* cluster (the entry border and the exit border), and
a destination proxy genuinely cannot estimate distances it holds no
coordinates for — the paper-example regression suite enforces this by
raising on any other distance query.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.coords.space import CoordinateSpace
from repro.overlay.hfc import HFCTopology
from repro.overlay.network import ProxyId
from repro.routing.path import Hop, ServicePath
from repro.routing.servicedag import solve_vectorised
from repro.services.graph import ServiceGraph
from repro.util.errors import NoFeasiblePathError

ClusterId = int

#: histogram buckets for batch sizes (requests per route_many call)
BATCH_SIZE_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0,
)


def service_graph_signature(sg: ServiceGraph) -> Hashable:
    """A hashable identity of an SG's shape and service names."""
    return sg.signature


# -- the staircase: what the two padded chain kernels share ---------------------

#: rows per padded kernel pass. A pass holds up to ten (rows x width x width)
#: temporaries (width = candidates per slot, 13 clusters at n=2000: 170 KB
#: each at 128 rows). One pass over a 1000-request batch held eight times
#: that and raised the peak RSS of ``route_2k`` by 16%; 192 rows, by 3%.
_BLOCK_ROWS = 128


def padded(rows: Sequence[Sequence[Any]], dtype: Any = np.int64) -> Tuple[np.ndarray, np.ndarray]:
    """*rows* as one zero-padded matrix (at least one lane wide) and its validity mask."""
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    mask = np.arange(max(1, int(lens.max(initial=0))))[None, :] < lens[:, None]
    matrix = np.zeros(mask.shape, dtype=dtype)
    matrix[mask] = list(chain.from_iterable(rows))
    return matrix, mask


def staircase(lengths: Sequence[int]) -> List[List[int]]:
    """Row positions longest chain first, cut into blocks of ``_BLOCK_ROWS``:
    inside a block chain position *t* relaxes only the prefix of rows that
    reach it, so one launch per stage serves every chain length with no wasted
    lanes (a finished row's labels simply stop being touched)."""
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    return [order[at : at + _BLOCK_ROWS] for at in range(0, len(order), _BLOCK_ROWS)]


def backtrack(
    parents: List[np.ndarray], winner: np.ndarray, last: np.ndarray, alive: List[int]
) -> np.ndarray:
    """The lane chosen at every position of every row of a staircase block:
    ``parents[t - 1]`` holds, for the ``alive[t]`` rows reaching position *t*,
    each lane's best predecessor lane; *winner* is each row's best lane at its
    own position ``last``."""
    rows = np.arange(len(winner))
    lanes = np.zeros((len(winner), len(alive)), dtype=np.int64)
    lanes[rows, last] = winner
    for t in range(len(alive) - 2, -1, -1):
        n = alive[t + 1]
        lanes[:n, t] = parents[t][rows[:n], lanes[:n, t + 1]]
    return lanes


# -- per-batch outcome ---------------------------------------------------------


@dataclass
class BatchRouteResult:
    """Aligned per-request outcomes of one ``route_many`` call.

    For every request index exactly one of ``paths[i]`` / ``errors[i]`` is
    set; infeasible requests carry the same error type and message
    ``route`` raises for them.
    """

    paths: List[Optional[ServicePath]]
    errors: List[Optional[NoFeasiblePathError]]

    def __len__(self) -> int:
        return len(self.paths)

    @property
    def ok_count(self) -> int:
        """Requests that resolved to a path."""
        return sum(1 for p in self.paths if p is not None)

    @property
    def infeasible_count(self) -> int:
        """Requests that raised :class:`NoFeasiblePathError`."""
        return sum(1 for e in self.errors if e is not None)

    def raise_first(self) -> None:
        """Re-raise the first error in request order, if any."""
        for error in self.errors:
            if error is not None:
                raise error


# -- cluster-level query tables ------------------------------------------------


@dataclass
class QueryTables:
    """Dense border-structure tables for the vectorized CSP relaxation.

    ``ext[i, j]`` is ``hfc.external_estimate(i, j)`` (0 on the diagonal);
    ``border_row[i, j]`` is the code of ``hfc.border(i, j)`` in
    ``border_list`` (-1 on the diagonal); ``d_border[a, b]`` is the
    coordinate distance between two borders *of the same cluster* and 0
    for every cross-cluster pair — the relaxation never consumes those
    entries (see the module docstring). Codes are handed out in ``(i, j)``
    scan order and a border belongs to its own cluster, so cluster *i*'s
    borders are the codes ``border_ptr[i]:border_ptr[i + 1]``.
    """

    cluster_count: int
    ext: np.ndarray
    border_row: np.ndarray
    border_list: List[ProxyId]
    border_code: Dict[ProxyId, int]
    d_border: np.ndarray
    border_ptr: np.ndarray


def build_query_tables(
    k: int,
    border: Callable[[ClusterId, ClusterId], ProxyId],
    distance: Callable[[ProxyId, ProxyId], float],
    external: Optional[Callable[[ClusterId, ClusterId], float]] = None,
) -> QueryTables:
    """The one :class:`QueryTables` builder: *k* clusters, ``border(i, j)``
    the border of *i* facing *j*, ``distance(u, v)`` between two borders.

    ``d_border`` is always the *distance* of two borders of one cluster —
    symmetric bit for bit (``math.dist`` takes absolute differences) — so
    only its upper triangle is asked for. ``external(i, j)`` fills ``ext``
    per ordered pair (an estimate may mask one direction); None says the
    estimate *is* the distance of the border pair, and ``ext`` is mirrored
    the same way.
    """
    ext = [[0.0] * k for _ in range(k)]
    border_row = [[-1] * k for _ in range(k)]
    border_list: List[ProxyId] = []
    border_code: Dict[ProxyId, int] = {}
    border_ptr = [0]
    for i in range(k):
        codes, estimates = border_row[i], ext[i]
        for j in range(k):
            if i == j:
                continue
            proxy = border(i, j)
            code = border_code.get(proxy)
            if code is None:
                code = border_code[proxy] = len(border_list)
                border_list.append(proxy)
            codes[j] = code
            if external is not None:
                estimates[j] = external(i, j)
        border_ptr.append(len(border_list))
    if external is None:
        for i in range(k):
            for j in range(i + 1, k):
                ext[i][j] = ext[j][i] = distance(
                    border_list[border_row[i][j]], border_list[border_row[j][i]]
                )
    nb = len(border_list)
    d_border = np.zeros((nb, nb), dtype=float)
    for lo, hi in zip(border_ptr, border_ptr[1:]):
        for a in range(lo, hi):
            for b in range(a + 1, hi):
                d_border[a, b] = d_border[b, a] = distance(border_list[a], border_list[b])
    return QueryTables(
        cluster_count=k,
        ext=np.array(ext, dtype=float),
        border_row=np.array(border_row, dtype=np.int64),
        border_list=border_list,
        border_code=border_code,
        d_border=d_border,
        border_ptr=np.array(border_ptr, dtype=np.int64),
    )


def query_tables(hfc: Any) -> QueryTables:
    """Build (or fetch the cached) :class:`QueryTables` for *hfc*.

    Works against anything with the HFC cluster-level surface
    (``cluster_count`` / ``border`` / ``external_estimate`` / ``space``),
    including the recursive hierarchy's level view and the paper-example
    stub. The result is cached as an attribute on *hfc*; topology mutations
    always materialise a new topology object, so no explicit invalidation
    exists.
    """
    cached = getattr(hfc, "_query_tables_cache", None)
    if cached is not None:
        return cached
    columnar = getattr(hfc, "columnar", None)
    if columnar is not None:
        # Topologies carrying a columnar overlay state (framework-built
        # hfc, snapshot-restored views) share that state's cached tables
        # instead of walking the object graph again; the columnar state
        # feeds the same builder the same math.dist calls in the same
        # order, so the tables are bit-identical either way.
        tables = columnar.query_tables()
    else:
        # a surface that keeps the topology's own estimate — the coordinate
        # distance of the border pair — needs only one triangle of it
        stock = getattr(type(hfc), "external_estimate", None) is HFCTopology.external_estimate
        tables = build_query_tables(
            hfc.cluster_count,
            hfc.border,
            hfc.space.distance,
            None if stock else hfc.external_estimate,
        )
    hfc._query_tables_cache = tables
    return tables


# -- batched conquer -----------------------------------------------------------

#: per slot of one child, the proxies inside its cluster offering the slot's
#: service — in the order :meth:`FlatRouter.candidates_for` would produce
#: (overlay placement order filtered by membership)
ChildCandidates = Tuple[Tuple[ProxyId, ...], ...]
#: one child solve: the proxies picked for its slots in order, or why its
#: cluster cannot serve it
ChildPicks = Union[Sequence[ProxyId], NoFeasiblePathError]


def child_specs(hfc: Any, children: Sequence[Any]) -> List[ChildCandidates]:
    """The conquer candidates of every dissected child of one pipeline call.

    A resolution touches only the few clusters its CSP crosses, so nothing
    here scans the overlay: each touched cluster's members are walked once,
    in overlay proxy order (the order a whole-overlay provider scan filtered
    by membership yields), keeping per member the services the call's
    children ask of that cluster. Placement is read live and nothing derived
    from it outlives the call — a crash or a rebind may rewrite it between
    calls.
    """
    wanted: Dict[ClusterId, Set[str]] = {}
    for child in children:
        if child.services:
            wanted.setdefault(child.cluster, set()).update(child.services)
    overlay = hfc.overlay
    placement = overlay.placement
    # membership lives on the topology, like ``_query_tables_cache``: a churn
    # or a restructure materialises a new topology object
    ordered = getattr(hfc, "_ordered_members_cache", None)
    if ordered is None:
        ordered = hfc._ordered_members_cache = {}
    providers: Dict[ClusterId, Dict[str, Tuple[ProxyId, ...]]] = {}
    for cluster, services in wanted.items():
        if cluster not in ordered:
            ordered[cluster] = sorted(hfc.members(cluster), key=overlay.index_of)
        found: Dict[str, List[ProxyId]] = {service: [] for service in services}
        for proxy in ordered[cluster]:
            for service in services & placement[proxy]:
                found[service].append(proxy)
        providers[cluster] = {service: tuple(proxies) for service, proxies in found.items()}
    return [
        tuple(map(providers[child.cluster].__getitem__, child.services))
        if child.services
        else ()
        for child in children
    ]


def child_infeasible_error(child: Any) -> NoFeasiblePathError:
    """The error of a child its cluster cannot serve."""
    return NoFeasiblePathError(
        f"cluster {child.cluster} cannot serve child request "
        f"{child.services} (stale aggregate state?)"
    )


def solve_child_spec(child: Any, candidates: ChildCandidates, provider: Any) -> List[ProxyId]:
    """The proxies serving one child's slots, through the flat solver and
    *provider*; a child with no slots picks nobody."""
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
            provider.block,
        )
    except NoFeasiblePathError:
        raise child_infeasible_error(child) from None
    return [proxy for _, proxy in solution.assignment]


def child_hops(child: Any, proxies: Sequence[ProxyId]) -> Tuple[Hop, ...]:
    """Hops of a solved child, *proxies* serving its slots in order — what
    :func:`~repro.routing.flat.materialise_assignment` yields for a chain
    without its expander machinery (hierarchical children never expand
    hops) or its merge pass: a chain's service hops are all kept, only a
    relay end can duplicate its neighbour, so the ends are added only where
    they do not. An empty child is the direct link between its endpoints.
    """
    hops = list(map(Hop, proxies, child.services, child.slots))
    if not hops or hops[0].proxy != child.source_proxy:
        hops.insert(0, Hop(child.source_proxy))
    if hops[-1].proxy != child.destination_proxy:
        hops.append(Hop(child.destination_proxy))
    return tuple(hops)


def solve_specs(
    children: Sequence[Any],
    candidates: Sequence[ChildCandidates],
    provider: Any,
    *,
    space: Optional[CoordinateSpace] = None,
) -> List[ChildPicks]:
    """Solve the children of one call: the picked proxies of each, or its
    infeasibility.

    Over a coordinate *space* every child goes through the padded staircase
    kernel: each child a hierarchical dissection produces is a chain (a run
    of consecutive slots of the chosen configuration path), so the whole
    conquer step is one numpy relaxation per chain position and block of
    rows instead of one solver invocation per child — bit-identical to
    per-child :func:`solve_child_spec`, which serves any other *provider*
    (one that masks or measures links). Distance blocks come from the same
    coordinates (gathered through row indices into the space's stacked
    matrix, one row list per distinct provider tuple of the call) and the
    same ``sqrt(einsum(diff, diff))`` element formula as
    :meth:`CoordinateProvider.block`, sums keep the solver's association
    order, and padding lanes sit *after* the real candidates carrying ``inf``
    labels — so ``argmin``'s first-occurrence tie-break picks the same
    instance :func:`solve_vectorised` picks.
    """
    picks: List[Any] = [()] * len(children)
    if space is None:
        for i, (child, cands) in enumerate(zip(children, candidates)):
            try:
                picks[i] = solve_child_spec(child, cands, provider)
            except NoFeasiblePathError as err:
                picks[i] = err
        return picks
    chains = [i for i, cands in enumerate(candidates) if cands]
    code: Dict[Tuple[ProxyId, ...], int] = {}
    for i in chains:
        for cands in candidates[i]:
            code.setdefault(cands, len(code))
    provider_rows, provider_mask = padded([space.rows(cands) for cands in code])
    stacked, lane = space.stacked, np.arange(provider_rows.shape[1])
    for block in staircase([len(candidates[i]) for i in chains]):
        idxs = [chains[m] for m in block]
        slot_code, live = padded([[code[cands] for cands in candidates[i]] for i in idxs])
        alive, last = live.sum(axis=0).tolist(), live.sum(axis=1) - 1
        valid, coords = provider_mask[slot_code], stacked[provider_rows[slot_code]]
        src = stacked[space.rows(children[i].source_proxy for i in idxs)]
        dst = stacked[space.rows(children[i].destination_proxy for i in idxs)]

        diff = coords[:, 0] - src[:, None, :]
        labels = np.sqrt(np.einsum("bck,bck->bc", diff, diff))
        labels[~valid[:, 0]] = np.inf
        parents: List[np.ndarray] = []
        rows = np.arange(len(idxs))[:, None]
        for t in range(1, len(alive)):
            n = alive[t]
            diff = coords[:n, t - 1, :, None, :] - coords[:n, t, None, :, :]
            via = labels[:n, :, None] + np.sqrt(np.einsum("bpck,bpck->bpc", diff, diff))
            best_pred = np.argmin(via, axis=1)
            labels[:n] = np.where(valid[:n, t], via[rows[:n], best_pred, lane], np.inf)
            parents.append(best_pred)
        diff = coords[rows[:, 0], last] - dst[:, None, :]
        totals = labels + np.sqrt(np.einsum("bck,bck->bc", diff, diff))
        winner = np.argmin(totals, axis=1)
        feasible = np.isfinite(totals[rows[:, 0], winner]).tolist()
        lanes = backtrack(parents, winner, last, alive).tolist()
        for i, ok, picked in zip(idxs, feasible, lanes):
            picks[i] = (
                [cands[j] for cands, j in zip(candidates[i], picked)]
                if ok
                else child_infeasible_error(children[i])
            )
    return picks
