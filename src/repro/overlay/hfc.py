"""The Hierarchically Fully-Connected (HFC) topology (paper Section 3).

Given a proximity clustering of the overlay proxies, the HFC topology is:

* **internal links**: every pair of proxies inside a cluster is directly
  connected (small nearby groups can afford full connectivity);
* **external links**: for every pair of clusters, the two geometrically
  closest proxies — one per cluster — become that pair's *border proxies*
  and are directly connected (Section 3.3's border-selection rule);
* **visibility**: a cluster is represented to the outside by all of its
  border proxies, not by a single logical node, which keeps aggregation
  imprecision low.

Consequently any two proxies are at most two overlay hops apart through
border proxies — the property the paper credits for HFC's path efficiency.

Border selection runs on the *coordinate* space, because the elected proxy P
only has coordinates (not true delays) at its disposal. Evaluation against
ground truth therefore exercises the same imprecision the real system would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.mstcluster import Clustering
from repro.coords.space import CoordinateSpace, cross_distances
from repro.graph.shortest_paths import ArcIndex, chain_sums, walk
from repro.overlay.network import OverlayNetwork, ProxyId
from repro.util.errors import TopologyError


@dataclass
class HFCTopology:
    """An HFC topology over an overlay network.

    Built via :func:`build_hfc`. ``borders[(i, j)]`` is the border proxy
    *inside cluster i* facing cluster j; the external link between clusters
    i and j runs between ``borders[(i, j)]`` and ``borders[(j, i)]``.
    """

    overlay: OverlayNetwork
    clustering: Clustering
    space: CoordinateSpace
    borders: Dict[Tuple[int, int], ProxyId]
    _matrices: Optional[Tuple[np.ndarray, np.ndarray]] = field(
        default=None, init=False, repr=False
    )
    _tables: Optional["BorderTables"] = field(default=None, init=False, repr=False)

    # -- basic accessors -----------------------------------------------------

    @property
    def cluster_count(self) -> int:
        """Number of clusters."""
        return self.clustering.cluster_count

    def cluster_of(self, proxy: ProxyId) -> int:
        """Cluster id of *proxy*."""
        return self.clustering.cluster_of(proxy)

    def members(self, cluster_id: int) -> List[ProxyId]:
        """Proxies in cluster *cluster_id*."""
        return self.clustering.members(cluster_id)

    def border(self, from_cluster: int, to_cluster: int) -> ProxyId:
        """The border proxy inside *from_cluster* facing *to_cluster*."""
        if from_cluster == to_cluster:
            raise TopologyError("no border between a cluster and itself")
        try:
            return self.borders[(from_cluster, to_cluster)]
        except KeyError:
            raise TopologyError(
                f"no border for cluster pair ({from_cluster}, {to_cluster})"
            ) from None

    def external_estimate(self, i: int, j: int) -> float:
        """Coordinate-space length of the external link between clusters i, j."""
        return self.space.distance(self.border(i, j), self.border(j, i))

    def border_nodes(self, cluster_id: int) -> List[ProxyId]:
        """Distinct border proxies of *cluster_id*, sorted."""
        found = {
            proxy
            for (i, _), proxy in self.borders.items()
            if i == cluster_id
        }
        return sorted(found)

    def all_border_nodes(self) -> List[ProxyId]:
        """Distinct border proxies across the whole system, sorted."""
        return sorted(set(self.borders.values()))

    def border_load(self) -> Dict[ProxyId, int]:
        """How many cluster pairs each border proxy serves (load-balance stat).

        Section 3's geometric argument predicts this stays well below
        ``cluster_count - 1`` for reasonable clusters; the border-selection
        ablation measures it.
        """
        load: Dict[ProxyId, int] = {}
        for proxy in self.borders.values():
            load[proxy] = load.get(proxy, 0) + 1
        return load

    # -- derived structures -------------------------------------------------------

    def link_count(self) -> int:
        """Links of the HFC overlay graph: every member pair inside a cluster,
        and one external link per cluster pair (its two borders lie in
        different clusters, so no two pairs share one)."""
        internal = sum(len(m) * (len(m) - 1) // 2 for m in self.clustering.clusters)
        return internal + len(self.borders) // 2

    def expand_hop(self, u: ProxyId, v: ProxyId) -> List[ProxyId]:
        """The relay sequence an HFC full-state router uses from *u* to *v*.

        Same-cluster pairs are direct. A cross-cluster pair leaves through
        the exit border and enters through the entry border that
        :meth:`routing_matrices` costs it with, and runs between them along
        the border graph's shortest route.
        """
        if u == v:
            return [u]
        ci, cj = self.cluster_of(u), self.cluster_of(v)
        if ci == cj:
            return [u, v]
        tables = self._border_tables()
        own, theirs = tables.own[ci], tables.own[cj]
        exits, entries, _ = _cross_routes(
            tables.links[ci][tables.row[u]][None, :],
            tables.route[np.ix_(own, theirs)],
            tables.links[cj][tables.row[v]][None, :],
        )
        last = int(entries[0, 0])
        first = int(own[exits[0, last]])
        hops = walk(tables.parent[first], first, int(theirs[last]))
        relays = [tables.proxies[b] for b in hops]
        if relays[0] != u:
            relays.insert(0, u)
        if relays[-1] != v:
            relays.append(v)
        return relays

    def routing_matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(route, true)`` distance matrices in overlay proxy-index order.

        ``route[i, j]`` is the coordinate-space length of the best HFC route
        from proxy i to proxy j (direct inside a cluster, through border
        proxies across clusters, multi-cluster relays allowed).
        ``true[i, j]`` is the ground-truth delay of *that same route* — the
        delay the data would actually experience, which is what Fig. 10
        plots. Cached after the first call.
        """
        if self._matrices is None:
            self._matrices = self._compute_matrices()
        return self._matrices

    def _border_tables(self) -> "BorderTables":
        """The border graph's shortest routes and each cluster's links to its
        borders (cached): what both :meth:`expand_hop` and the matrices read."""
        if self._tables is None:
            self._tables = BorderTables.build(self)
        return self._tables

    def _compute_matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        overlay = self.overlay
        proxies = overlay.proxies
        n = len(proxies)
        route = np.zeros((n, n), dtype=float)
        true = np.zeros((n, n), dtype=float)

        true_all = overlay.true_delay_matrix()
        index = {p: i for i, p in enumerate(proxies)}

        member_idx = [
            np.array([index[p] for p in members], dtype=int)
            for members in self.clustering.clusters
        ]

        # Intra-cluster: direct links.
        for members, idxs in zip(self.clustering.clusters, member_idx):
            route[np.ix_(idxs, idxs)] = self.space.distance_matrix(members)
            true[np.ix_(idxs, idxs)] = true_all[np.ix_(idxs, idxs)]

        if self.cluster_count <= 1:
            np.fill_diagonal(route, 0.0)
            np.fill_diagonal(true, 0.0)
            return route, true

        # The true delay of every border route, summed hop by hop from its
        # start, and of every member's direct links to its own borders.
        tables = self._border_tables()
        border_idx = np.array([index[b] for b in tables.proxies], dtype=int)
        hops = true_all[np.ix_(border_idx, border_idx)]
        db_true = chain_sums(
            tables.parent, hops[np.maximum(tables.parent, 0), np.arange(len(border_idx))]
        )
        links_true = [
            true_all[np.ix_(idxs, border_idx[own])]
            for idxs, own in zip(member_idx, tables.own)
        ]

        # Cross-cluster: out through an own border, along the border graph,
        # in through one of the destination cluster's borders.
        for ci in range(self.cluster_count):
            for cj in range(self.cluster_count):
                if ci == cj:
                    continue
                own, theirs = tables.own[ci], tables.own[cj]
                exits, entries, r = _cross_routes(
                    tables.links[ci], tables.route[np.ix_(own, theirs)], tables.links[cj]
                )
                to_entry = np.take_along_axis(links_true[ci], exits, axis=1) + db_true[
                    own[exits], theirs[None, :]
                ]
                t = np.take_along_axis(to_entry, entries, axis=1) + links_true[cj][
                    np.arange(len(member_idx[cj]))[None, :], entries
                ]
                route[np.ix_(member_idx[ci], member_idx[cj])] = r
                true[np.ix_(member_idx[ci], member_idx[cj])] = t

        np.fill_diagonal(route, 0.0)
        np.fill_diagonal(true, 0.0)
        return route, true


@dataclass(frozen=True)
class BorderTables:
    """Shortest routes over the border graph: every border proxy, linked to
    its cluster's other borders and over the external links, at coordinate
    lengths. ``proxies[b]`` is border ``b`` (sorted), ``own[c]`` cluster
    ``c``'s borders; ``route[s, b]`` is the length of the route from ``s`` to
    ``b`` and ``parent[s, b]`` ``b``'s predecessor on it (-1 at ``s``).
    ``links[c][r, x]`` is the length from the ``r``-th member of cluster
    ``c`` (``row`` maps a proxy to its ``r``) to ``own[c][x]``."""

    proxies: List[ProxyId]
    own: List[np.ndarray]
    route: np.ndarray
    parent: np.ndarray
    links: List[np.ndarray]
    row: Dict[ProxyId, int]

    @classmethod
    def build(cls, hfc: HFCTopology) -> "BorderTables":
        space = hfc.space
        proxies = hfc.all_border_nodes()
        position = {b: i for i, b in enumerate(proxies)}
        own = [
            np.array([position[b] for b in hfc.border_nodes(cid)], dtype=int)
            for cid in range(hfc.cluster_count)
        ]
        pairs = [pair for positions in own for pair in combinations(positions.tolist(), 2)]
        pairs += [
            (position[b], position[hfc.borders[(j, i)]])
            for (i, j), b in hfc.borders.items()
            if i < j
        ]
        u, v = zip(*pairs)
        arcs = ArcIndex(
            len(proxies), u, v, [space.distance(proxies[a], proxies[b]) for a, b in pairs]
        )
        rows = [arcs.distances(s)[0] for s in range(len(proxies))]
        parent = np.array([arcs.parents(row, s) for s, row in enumerate(rows)])
        links = []
        for cid, positions in enumerate(own):
            pts = space.array(hfc.members(cid))
            diff = pts[:, None, :] - space.array([proxies[b] for b in positions])[None, :, :]
            links.append(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)))
        row = {p: r for members in hfc.clustering.clusters for r, p in enumerate(members)}
        return cls(proxies, own, np.array(rows), parent, links, row)


def _cross_routes(
    exit_links: np.ndarray, border_route: np.ndarray, entry_links: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rule both the matrices and the relay expansion pick borders by.

    *exit_links* ``(a, x)``: sources to their cluster's ``x`` borders;
    *border_route* ``(x, y)``: those to the destination cluster's ``y``
    borders; *entry_links* ``(b, y)``: destinations to those. Returns
    ``exits[i, e]``, the exit from source ``i`` towards entry ``e``,
    ``entries[i, j]``, the entry from ``i`` to destination ``j`` (each the
    first of equally short ones), and the route lengths ``(a, b)``.
    """
    stack = exit_links[:, :, None] + border_route[None, :, :]
    exits = stack.argmin(axis=1)
    stack = stack.min(axis=1)[:, None, :] + entry_links[None, :, :]
    return exits, stack.argmin(axis=2), stack.min(axis=2)


def closest_cross_pair(
    block_i: np.ndarray, block_j: np.ndarray
) -> Tuple[int, int]:
    """Row/column indices of the closest cross pair between two blocks.

    The blocked distance-matrix minimum at the heart of border selection.
    Ties break toward the earliest row, then the earliest column, so full
    scans and incremental per-pair patches select the same borders — the
    equivalence suite asserts this against one brute-force scan per pair.
    """
    flat = int(np.argmin(cross_distances(block_i, block_j)))
    return divmod(flat, block_j.shape[0])


def select_borders_closest(
    space: CoordinateSpace, clustering: Clustering
) -> Dict[Tuple[int, int], ProxyId]:
    """Closest-pair border selection for every cluster pair, vectorized.

    Fetches each cluster's coordinate block once and reduces every cluster
    pair with one blocked distance-matrix minimum (cdist-style), instead of
    re-materialising both clusters' coordinates for each of the k(k-1)/2
    pairs.
    """
    members = [clustering.members(i) for i in range(clustering.cluster_count)]
    return scan_borders(members, [space.array(m) for m in members])


def scan_borders(
    members: List[List[ProxyId]], blocks: List[np.ndarray]
) -> Dict[Tuple[int, int], ProxyId]:
    """The full scan: every cluster pair's border pair from the blocks."""
    borders: Dict[Tuple[int, int], ProxyId] = {}
    for i in range(len(members)):
        patch_borders_for_cluster(
            borders, i, members, blocks, range(i + 1, len(members))
        )
    return borders


def patch_borders_for_cluster(
    borders: Dict[Tuple[int, int], ProxyId],
    cluster_id: int,
    members: Union[Sequence[List[ProxyId]], Mapping[int, List[ProxyId]]],
    blocks: Union[Sequence[np.ndarray], Mapping[int, np.ndarray]],
    others: Iterable[int],
) -> None:
    """Re-select, in place, the border pairs of *cluster_id* with *others*.

    The one selector: the full scan asks it about every pair, a membership
    event only about the pairs it can have moved (the caller's choice — see
    ``DynamicOverlay._touched`` for why that choice is exact). Each pair is
    re-reduced with :func:`closest_cross_pair` in ``(min, max)`` cluster-id
    orientation, so no tie rule exists twice and a patched ``borders`` dict
    is bit-identical to a fresh :func:`select_borders_closest`. *members* /
    *blocks* need entries only for *cluster_id* and *others* (lists or
    dicts).
    """
    for other in others:
        i, j = (cluster_id, other) if cluster_id < other else (other, cluster_id)
        a, b = closest_cross_pair(blocks[i], blocks[j])
        borders[(i, j)] = members[i][a]
        borders[(j, i)] = members[j][b]


def drop_cluster_from_borders(
    borders: Dict[Tuple[int, int], ProxyId], removed: int
) -> Dict[Tuple[int, int], ProxyId]:
    """Borders after cluster *removed* vanished and higher ids shifted down.

    Matches the cluster-id compaction rule (surviving ids stay in sorted
    order, so every id above *removed* decreases by one); pairs touching
    the removed cluster are discarded.
    """
    compacted: Dict[Tuple[int, int], ProxyId] = {}
    for (i, j), proxy in borders.items():
        if i == removed or j == removed:
            continue
        compacted[(i - (i > removed), j - (j > removed))] = proxy
    return compacted


def build_hfc(
    overlay: OverlayNetwork,
    clustering: Clustering,
    space: Optional[CoordinateSpace] = None,
) -> HFCTopology:
    """Construct the HFC topology from a clustering (paper Section 3.3).

    For every cluster pair, the geometrically closest cross-pair of proxies
    becomes the border pair. *space* defaults to the overlay's attached
    coordinate space.
    """
    space = space or overlay.space
    if space is None:
        raise TopologyError("an HFC topology needs a coordinate space")
    for proxy in overlay.proxies:
        if proxy not in clustering.labels:
            raise TopologyError(f"proxy {proxy!r} missing from clustering")
    return HFCTopology(
        overlay=overlay,
        clustering=clustering,
        space=space,
        borders=select_borders_closest(space, clustering),
    )
