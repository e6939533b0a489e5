"""The pre-vectorization Section-3 construction: full-matrix landmark
objective, per-host scalar embedding, per-round full-distance Prim, one
``closest_pair`` scan per cluster pair."""

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.cluster import mstcluster
from repro.cluster.mstcluster import Clustering
from repro.coords.embedding import (
    EmbeddingReport,
    _gauss_array,
    _relative_error,
    choose_landmarks,
    classical_mds,
    embed_landmarks,
    locate_host,
)
from repro.coords.neldermead import minimize_with_restarts
from repro.coords.space import CoordinateSpace
from repro.util.errors import GraphError
from repro.util.rng import ensure_rng


def embed_landmarks_reference(measured, dim, *, max_iterations=3000, seed=None) -> np.ndarray:
    """``embed_landmarks`` with the objective over the full m x m distance
    matrix, its upper triangle re-indexed on every evaluation."""
    measured = np.asarray(measured, dtype=float)
    m = measured.shape[0]
    rng = ensure_rng(seed)
    initial = classical_mds(measured, dim)

    def objective(flat):
        pts = flat.reshape(m, dim)
        diff = pts[:, None, :] - pts[None, :, :]
        return _relative_error(np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), measured)

    scale = float(np.max(measured)) or 1.0
    jitter = initial + rng.gauss(0.0, 1.0) * 0.0
    starts = [initial.ravel(), (jitter + scale * 0.05 * _gauss_array(rng, (m, dim))).ravel()]
    result = minimize_with_restarts(
        objective,
        starts,
        initial_step=scale * 0.05,
        max_iterations=max_iterations,
        xtol=scale * 1e-6,
    )
    return result.x.reshape(m, dim)


def euclidean_mst_reference(points: np.ndarray) -> List[Tuple[int, int, float]]:
    """Per-round full-distance Prim (``sqrt`` over all n candidates a round)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise GraphError(f"points must be 2-D (n, k), got shape {pts.shape}")
    n = pts.shape[0]
    if n == 0:
        return []
    in_tree = np.zeros(n, dtype=bool)
    best_dist = np.full(n, np.inf)
    best_from = np.zeros(n, dtype=int)
    edges: List[Tuple[int, int, float]] = []
    current = 0
    in_tree[0] = True
    for _ in range(n - 1):
        delta = pts - pts[current]
        dist = np.sqrt(np.einsum("ij,ij->i", delta, delta))
        closer = (~in_tree) & (dist < best_dist)
        best_dist[closer] = dist[closer]
        best_from[closer] = current
        masked = np.where(in_tree, np.inf, best_dist)
        nxt = int(np.argmin(masked))
        if not np.isfinite(masked[nxt]):
            raise GraphError("euclidean_mst: disconnected input (NaN coordinates?)")
        edges.append((int(best_from[nxt]), nxt, float(best_dist[nxt])))
        in_tree[nxt] = True
        current = nxt
    return edges


def cluster_nodes_reference(space, nodes=None, config=None) -> Clustering:
    """``cluster_nodes`` with the reference Prim swapped in for the kernel."""
    fast = mstcluster.euclidean_mst
    mstcluster.euclidean_mst = euclidean_mst_reference
    try:
        return mstcluster.cluster_nodes(space, nodes, config)
    finally:
        mstcluster.euclidean_mst = fast


def select_borders_closest_reference(space, clustering) -> Dict[Tuple[int, int], int]:
    """One :meth:`CoordinateSpace.closest_pair` per cluster pair."""
    borders = {}
    k = clustering.cluster_count
    for i in range(k):
        for j in range(i + 1, k):
            a, b, _ = space.closest_pair(
                clustering.members(i), clustering.members(j)
            )
            borders[(i, j)] = a
            borders[(j, i)] = b
    return borders


@dataclass
class ReferenceConstruction:
    space: CoordinateSpace
    report: EmbeddingReport
    clustering: Clustering
    borders: Dict[Tuple[int, int], int]
    #: wall seconds per phase (embedding / clustering / borders / total)
    timings: Dict[str, float]


def construct_reference(
    physical,
    proxies,
    *,
    seed,
    landmark_count=10,
    dimension=2,
    probes=3,
    clustering_config=None,
) -> ReferenceConstruction:
    """Embedding → clustering → borders through the reference loops.

    Consumes the RNG and the noise stream in the order
    ``build_coordinate_space`` does, but measures every host's landmark
    delays from the host side and solves one scalar Nelder-Mead per host.
    """
    timings = {}
    start = time.perf_counter()
    rng = ensure_rng(seed)
    landmarks = list(choose_landmarks(physical, landmark_count, rng))
    m = len(landmarks)
    measured = np.zeros((m, m), dtype=float)
    for i in range(m):
        for j in range(i + 1, m):
            measured[i, j] = measured[j, i] = physical.measure(
                landmarks[i], landmarks[j], probes=probes
            )
    landmark_coords = embed_landmarks(measured, dimension, seed=rng)
    diff = landmark_coords[:, None, :] - landmark_coords[None, :, :]
    fit_error = _relative_error(
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff)), measured
    )
    index = {router: i for i, router in enumerate(landmarks)}
    coords = {}
    hosts = 0
    for host in proxies:
        if host in index:
            coords[host] = landmark_coords[index[host]]
            continue
        to_host = [physical.measure(host, lm, probes=probes) for lm in landmarks]
        coords[host] = locate_host(landmark_coords, to_host)
        hosts += 1
    space = CoordinateSpace(coords)
    report = EmbeddingReport(
        landmark_ids=landmarks,
        landmark_coordinates=landmark_coords,
        dimension=dimension,
        measurement_count=probes * (m * (m - 1) // 2 + m * hosts),
        landmark_fit_error=fit_error,
    )
    timings["embedding"] = time.perf_counter() - start

    start = time.perf_counter()
    clustering = cluster_nodes_reference(space, proxies, clustering_config)
    timings["clustering"] = time.perf_counter() - start

    start = time.perf_counter()
    borders = select_borders_closest_reference(space, clustering)
    timings["borders"] = time.perf_counter() - start
    timings["total"] = sum(timings.values())
    return ReferenceConstruction(space, report, clustering, borders, timings)
