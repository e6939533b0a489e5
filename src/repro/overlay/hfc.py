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
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.mstcluster import Clustering
from repro.coords.space import CoordinateSpace, cross_distances
from repro.graph.graph import Graph
from repro.graph.shortest_paths import dijkstra, reconstruct_path
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

    def overlay_graph(self, weight: str = "coords") -> Graph:
        """The explicit HFC overlay graph.

        ``weight="coords"`` uses coordinate estimates (what routing sees);
        ``weight="true"`` uses ground-truth delays (what evaluation sees).
        Intra-cluster: complete; inter-cluster: border links only.
        """
        if weight not in ("coords", "true"):
            raise TopologyError(f"weight must be 'coords' or 'true', got {weight!r}")
        measure = (
            self.space.distance if weight == "coords" else self.overlay.true_delay
        )
        graph = Graph()
        graph.add_nodes(self.overlay.proxies)
        for members in self.clustering.clusters:
            for a_idx, u in enumerate(members):
                for v in members[a_idx + 1 :]:
                    graph.add_edge(u, v, measure(u, v))
        for (i, j), u in self.borders.items():
            if i < j:
                v = self.borders[(j, i)]
                if u != v and not graph.has_edge(u, v):
                    graph.add_edge(u, v, measure(u, v))
        return graph

    def expand_hop(self, u: ProxyId, v: ProxyId) -> List[ProxyId]:
        """The relay sequence an HFC full-state router uses from *u* to *v*.

        Same-cluster pairs are direct; cross-cluster pairs go through border
        proxies along the coordinate-shortest route in the HFC overlay graph.
        """
        if u == v:
            return [u]
        if self.clustering.same_cluster(u, v):
            return [u, v]
        graph = self._cached_overlay_graph()
        dist, parent = dijkstra(graph, u, targets=[v])
        if v not in dist:
            raise TopologyError(f"{v!r} unreachable from {u!r} in HFC overlay")
        return reconstruct_path(parent, u, v)

    def _cached_overlay_graph(self) -> Graph:
        cached = getattr(self, "_overlay_graph_cache", None)
        if cached is None:
            cached = self.overlay_graph("coords")
            self._overlay_graph_cache = cached
        return cached

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

    def _compute_matrices(self) -> Tuple[np.ndarray, np.ndarray]:
        overlay = self.overlay
        proxies = overlay.proxies
        n = len(proxies)
        route = np.zeros((n, n), dtype=float)
        true = np.zeros((n, n), dtype=float)

        coords_all = self.space.array(proxies)
        true_all = overlay.true_delay_matrix()
        index = {p: i for i, p in enumerate(proxies)}

        member_idx = [
            np.array([index[p] for p in members], dtype=int)
            for members in self.clustering.clusters
        ]

        # Intra-cluster: direct links.
        for idxs in member_idx:
            pts = coords_all[idxs]
            diff = pts[:, None, :] - pts[None, :, :]
            d = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
            route[np.ix_(idxs, idxs)] = d
            true[np.ix_(idxs, idxs)] = true_all[np.ix_(idxs, idxs)]

        if self.cluster_count <= 1:
            np.fill_diagonal(route, 0.0)
            np.fill_diagonal(true, 0.0)
            return route, true

        # Border graph: all border proxies; intra-cluster border-border links
        # plus external links; weights are coordinate estimates, with a
        # companion true-delay along each chosen border route.
        border_list = self.all_border_nodes()
        b_index = {b: i for i, b in enumerate(border_list)}
        border_graph = Graph()
        border_graph.add_nodes(border_list)
        border_cluster = {b: self.cluster_of(b) for b in border_list}
        for a_pos, b1 in enumerate(border_list):
            for b2 in border_list[a_pos + 1 :]:
                if border_cluster[b1] == border_cluster[b2]:
                    border_graph.add_edge(b1, b2, self.space.distance(b1, b2))
        for (i, j), u in self.borders.items():
            if i < j:
                v = self.borders[(j, i)]
                if u != v and not border_graph.has_edge(u, v):
                    border_graph.add_edge(u, v, self.space.distance(u, v))

        nb = len(border_list)
        db_route = np.full((nb, nb), np.inf)
        db_true = np.full((nb, nb), np.inf)
        for b1 in border_list:
            dist, parent = dijkstra(border_graph, b1)
            i1 = b_index[b1]
            db_route[i1, i1] = 0.0
            db_true[i1, i1] = 0.0
            for b2, d in dist.items():
                if b2 == b1:
                    continue
                hops = reconstruct_path(parent, b1, b2)
                t = sum(
                    true_all[index[a], index[b]] for a, b in zip(hops, hops[1:])
                )
                db_route[i1, b_index[b2]] = d
                db_true[i1, b_index[b2]] = t

        # Per-cluster member->border direct links.
        borders_of = [
            np.array([b_index[b] for b in self.border_nodes(cid)], dtype=int)
            for cid in range(self.cluster_count)
        ]
        border_proxy_idx = np.array([index[b] for b in border_list], dtype=int)

        # P[c]: members(c) x all-borders — cheapest route from each member out
        # through any own border to every border node in the system.
        p_route: List[np.ndarray] = []
        p_true: List[np.ndarray] = []
        for cid in range(self.cluster_count):
            idxs = member_idx[cid]
            own = borders_of[cid]
            pts = coords_all[idxs]
            own_pts = coords_all[border_proxy_idx[own]]
            a_route = np.sqrt(
                np.einsum(
                    "ijk,ijk->ij",
                    pts[:, None, :] - own_pts[None, :, :],
                    pts[:, None, :] - own_pts[None, :, :],
                )
            )
            a_true = true_all[np.ix_(idxs, border_proxy_idx[own])]
            # min-plus over own borders: (m x own) + (own x nb)
            stack = a_route[:, :, None] + db_route[own][None, :, :]
            choice = np.argmin(stack, axis=1)
            pr = np.take_along_axis(stack, choice[:, None, :], axis=1)[:, 0, :]
            stack_t = a_true[:, :, None] + db_true[own][None, :, :]
            pt = np.take_along_axis(stack_t, choice[:, None, :], axis=1)[:, 0, :]
            p_route.append(pr)
            p_true.append(pt)

        # Cross-cluster distances: enter cluster j through one of its borders.
        for ci in range(self.cluster_count):
            for cj in range(self.cluster_count):
                if ci == cj:
                    continue
                idx_i = member_idx[ci]
                idx_j = member_idx[cj]
                bj = borders_of[cj]
                pts_j = coords_all[idx_j]
                bj_pts = coords_all[border_proxy_idx[bj]]
                a_route = np.sqrt(
                    np.einsum(
                        "ijk,ijk->ij",
                        pts_j[:, None, :] - bj_pts[None, :, :],
                        pts_j[:, None, :] - bj_pts[None, :, :],
                    )
                )
                a_true = true_all[np.ix_(idx_j, border_proxy_idx[bj])]
                stack = p_route[ci][:, bj][:, None, :] + a_route[None, :, :]
                choice = np.argmin(stack, axis=2)
                r = np.take_along_axis(stack, choice[:, :, None], axis=2)[:, :, 0]
                stack_t = p_true[ci][:, bj][:, None, :] + a_true[None, :, :]
                t = np.take_along_axis(stack_t, choice[:, :, None], axis=2)[:, :, 0]
                route[np.ix_(idx_i, idx_j)] = r
                true[np.ix_(idx_i, idx_j)] = t

        np.fill_diagonal(route, 0.0)
        np.fill_diagonal(true, 0.0)
        return route, true


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
