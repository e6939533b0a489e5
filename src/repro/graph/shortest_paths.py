"""The shortest-path kernel: synchronous relaxation over arc columns.

Every shortest-path question the program asks goes through :class:`ArcIndex`:
the substrate's delay rows and physical routes, the mesh baseline's
all-pairs table and the HFC border routes. A graph is handed over once as
link columns over nodes ``0..n-1`` and indexed as arcs (tail, head,
weight); each source then costs one :meth:`ArcIndex.distances` row and,
where routes are wanted, one :meth:`ArcIndex.parents` pass over that row.

Synchronous relaxation: every round each node takes the minimum of its
distance and ``dist[tail] + w`` over its in-arcs, until nothing moves (the
longest shortest path's hops + 1 rounds). Float addition is monotone, so the
fixpoint is the smallest left-to-right path sum: a heap Dijkstra's
distances bit for bit (DESIGN §7). That Dijkstra is the kernel's test oracle.
"""

from __future__ import annotations

from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from repro.util.errors import GraphError

_INF = float("inf")


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of every run of equal *keys*."""
    starts = np.empty(len(keys), dtype=bool)
    starts[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    return starts


class ArcIndex:
    """An undirected graph's arcs sorted by head, so one ``reduceat`` takes
    each node's best offer. Nodes are ``0..node_count-1``; link ``j`` joins
    ``u[j]`` and ``v[j]`` at length ``w[j] >= 0`` and gives two arcs."""

    def __init__(
        self, node_count: int, u: Sequence[int], v: Sequence[int], w: Sequence[float]
    ) -> None:
        self.node_count = node_count
        # The sort key is the narrowest dtype that holds a node id: numpy
        # radix-sorts 16-bit keys.
        narrow = np.min_scalar_type(max(node_count - 1, 0))
        heads = np.concatenate([v, u], dtype=narrow, casting="unsafe")
        order = np.argsort(heads, kind="stable")
        heads = heads[order]
        self.arc_tail = np.concatenate([u, v], dtype=np.intp, casting="unsafe").take(order)
        # arc j + len(w) is link j reversed, so the weights index with wrap-around
        self.arc_w = np.asarray(w, dtype=float).take(order, mode="wrap")
        self._runs = np.flatnonzero(_run_starts(heads))
        self._run_head = heads[self._runs].astype(np.intp)

    @cached_property
    def arc_head(self) -> np.ndarray:
        """Each arc's head, for :meth:`parents` (built on its first call)."""
        return np.repeat(self._run_head, np.diff(self._runs, append=len(self.arc_tail)))

    def distances(self, source: int) -> Tuple[np.ndarray, int]:
        """Shortest distances from *source* as a float row (``inf`` =
        unreachable), and the relaxation rounds they took."""
        if not 0 <= source < self.node_count:
            raise GraphError(f"source {source!r} not among the {self.node_count} nodes")
        dist = np.full(self.node_count, _INF)
        dist[source] = 0.0
        tails, w, runs, heads = self.arc_tail, self.arc_w, self._runs, self._run_head
        offers = np.empty(len(tails))
        rounds = 0
        while len(tails):
            rounds += 1
            np.take(dist, tails, out=offers)
            offers += w
            held = dist[heads]
            best = np.minimum(held, np.minimum.reduceat(offers, runs))
            if np.array_equal(best, held):
                break
            dist[heads] = best
        return dist, rounds

    def parents(self, dist: np.ndarray, source: int) -> np.ndarray:
        """Each node's predecessor on a shortest path from *source*, from
        the final row *dist* of :meth:`distances`; -1 at the source and at
        unreachable nodes.

        A node's candidates are its tight arcs, whose offer ``dist[tail] + w``
        equals its distance bit for bit, so a chain's left-to-right sum is
        the row. It takes the nearest tail, the lowest id among equally near
        ones: Dijkstra's first-settled parent wherever the nearest tail is
        unique. A nearest tail as far as the node itself (a zero-length link)
        could close a cycle, so those nodes are parented outward from the
        ones already parented, layer by layer: the relaxation reached every
        one of them over such arcs, so no layer comes up empty.
        """
        tails, heads = self.arc_tail, self.arc_head
        tail_dist = dist[tails]
        tight = np.flatnonzero((tail_dist + self.arc_w == dist[heads]) & (tail_dist != _INF))
        tight = tight[heads[tight] != source]
        tight = tight[np.lexsort((tails[tight], tail_dist[tight], heads[tight]))]
        parent = np.full(self.node_count, -1, dtype=np.intp)
        chosen = tight[_run_starts(heads[tight])]
        parent[heads[chosen]] = tails[chosen]
        pending = np.zeros(self.node_count, dtype=bool)
        pending[heads[chosen][tail_dist[chosen] == dist[heads[chosen]]]] = True
        level = tight[pending[heads[tight]] & (tail_dist[tight] == dist[heads[tight]])]
        while len(level):
            ready = level[~pending[tails[level]]]
            ready = ready[_run_starts(heads[ready])]
            parent[heads[ready]] = tails[ready]
            pending[heads[ready]] = False
            level = level[pending[heads[level]]]
        return parent


def walk(parent: np.ndarray, source: int, target: int) -> List[int]:
    """The node sequence from *source* to *target* along a parent row."""
    path = [target]
    while target != source:
        target = parent.item(target)
        if target < 0 or len(path) == len(parent):
            raise GraphError(f"no parent chain from {path[0]!r} to {source!r}")
        path.append(target)
    path.reverse()
    return path


def chain_sums(parent: np.ndarray, hop: np.ndarray) -> np.ndarray:
    """``out[..., v] = out[..., parent[..., v]] + hop[..., v]``, 0.0 where the
    parent is -1: *hop* summed left to right along every parent chain, one
    row per source."""
    out = np.zeros(hop.shape)
    done = parent < 0
    up = np.maximum(parent, 0)
    while not done.all():
        ready = ~done & np.take_along_axis(done, up, axis=-1)
        out[ready] = np.take_along_axis(out, up, axis=-1)[ready] + hop[ready]
        done |= ready
    return out
