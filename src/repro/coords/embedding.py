"""Landmark-based network-coordinate embedding (GNP-style).

Implements the paper's distance-map construction (Section 3.1, after Ng &
Zhang [22]):

1. a small set of m landmark routers measure their pairwise delays (taking
   the minimum of several probes to filter noise);
2. the landmark delay matrix is mapped into a k-dimensional space with
   minimum error — we seed with classical MDS (Torgerson double-centering)
   and refine with from-scratch Nelder-Mead on the relative-error objective;
3. every overlay proxy measures its delay to the landmarks and solves a
   small k-variable minimization for its own coordinates.

Total cost is O(m^2 + n*m) measurements with O(k*n) state, versus O(n^2)
for a direct distance map — the paper's headline scalability argument for
the distance-obtainment step.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coords.neldermead import (
    BatchMinimizeResult,
    MinimizeResult,
    Objective,
    minimize_with_restarts,
    minimize_with_restarts_batch,
    nelder_mead,
)
from repro.coords.space import CoordinateSpace
from repro.netsim.physical import PhysicalNetwork
from repro.util.errors import EmbeddingError, TopologyError
from repro.util.rng import RngLike, ensure_rng


def classical_mds(distances: np.ndarray, dim: int) -> np.ndarray:
    """Torgerson classical MDS: embed a distance matrix into ``dim`` dims.

    Used as the initial guess for the Nelder-Mead refinement. Negative
    eigenvalues (non-Euclidean measurement noise) are clamped to zero.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise EmbeddingError(f"distance matrix must be square, got {d.shape}")
    n = d.shape[0]
    if dim < 1 or dim > n:
        raise EmbeddingError(f"dim must be in [1, {n}], got {dim}")
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (d**2) @ j
    eigenvalues, eigenvectors = np.linalg.eigh(b)
    order = np.argsort(eigenvalues)[::-1][:dim]
    lams = np.clip(eigenvalues[order], 0.0, None)
    return eigenvectors[:, order] * np.sqrt(lams)


def _relative_error(estimated: np.ndarray, measured: np.ndarray) -> float:
    """Sum of squared relative errors over the upper triangle."""
    iu = np.triu_indices_from(measured, k=1)
    meas = measured[iu]
    est = estimated[iu]
    safe = np.where(meas > 0, meas, 1.0)
    return float(np.sum(((est - meas) / safe) ** 2))


def embed_landmarks(
    measured: np.ndarray,
    dim: int,
    *,
    max_iterations: int = 3000,
    seed: RngLike = None,
) -> np.ndarray:
    """Embed the landmark delay matrix into ``dim`` dimensions.

    Returns an ``(m, dim)`` coordinate array minimizing the sum of squared
    relative errors between geometric and measured distances.
    """
    runs = _landmark_runs(measured, dim, max_iterations=max_iterations, seed=seed)
    return _kept(runs).x.reshape(-1, dim)


def _kept(runs: List[MinimizeResult]) -> MinimizeResult:
    """The lowest run, the earliest on a tie (``minimize_with_restarts``' rule)."""
    return min(runs, key=lambda run: run.fun)


def _landmark_runs(
    measured: np.ndarray, dim: int, *, max_iterations: int = 3000, seed: RngLike = None
) -> List[MinimizeResult]:
    """The landmark solve's descents, one per start, over the flat
    ``m * dim`` coordinate vector."""
    measured = np.asarray(measured, dtype=float)
    m = measured.shape[0]
    if m < dim + 1:
        raise EmbeddingError(
            f"need at least dim+1={dim + 1} landmarks for a {dim}-D embedding, got {m}"
        )
    rng = ensure_rng(seed)
    initial = classical_mds(measured, dim)

    # The objective is evaluated thousands of times on an m-landmark problem
    # whose pair list never changes: index the m(m-1)/2 pairs once, and
    # compute only those (same terms, same order as `_relative_error`), in
    # place in two buffers. Row p of `pair_diff` holds +1 at the pair's first
    # landmark, -1 at its second and zeros, so the product is the pair's
    # coordinate difference exactly (for finite coordinates) in one call.
    first, second = np.triu_indices(m, 1)
    meas = measured[first, second]
    safe = np.where(meas > 0, meas, 1.0)
    pairs = np.arange(first.size)
    pair_diff = np.zeros((first.size, m))
    pair_diff[pairs, first] = 1.0
    pair_diff[pairs, second] = -1.0
    diff = np.empty((first.size, dim))
    est = np.empty(first.size)
    # ~7,600 calls a build, each a few µs of arithmetic: the ufuncs are bound
    # once, `out` goes positionally, and einsum is its C entry, which numpy's
    # own `einsum` calls unchanged when `optimize` is off
    dot, sqrt_, subtract, divide, multiply = np.dot, np.sqrt, np.subtract, np.divide, np.multiply
    total, c_einsum = np.add.reduce, np.einsum.__wrapped__.__globals__["c_einsum"]

    def objective(flat: Sequence[float]) -> float:
        try:
            points = flat.reshape(m, dim)  # type: ignore[attr-defined]
        except AttributeError:  # a float list: a problem of a few variables
            points = np.reshape(flat, (m, dim))
        dot(pair_diff, points, diff)
        # einsum's own summation order over k, as in `_relative_error`'s input
        c_einsum("pk,pk->p", diff, diff, out=est)
        sqrt_(est, est)
        subtract(est, meas, est)
        divide(est, safe, est)
        multiply(est, est, est)
        return float(total(est))

    scale = float(np.max(measured)) or 1.0
    jitter = initial + rng.gauss(0.0, 1.0) * 0.0  # deterministic base start
    starts = [initial.ravel(), (jitter + scale * 0.05 * _gauss_array(rng, (m, dim))).ravel()]
    return [
        nelder_mead(
            objective,
            start,
            initial_step=scale * 0.05,
            max_iterations=max_iterations,
            xtol=scale * 1e-6,
        )
        for start in starts
    ]


def _gauss_array(rng, shape: Tuple[int, int]) -> np.ndarray:
    return np.array(
        [[rng.gauss(0.0, 1.0) for _ in range(shape[1])] for _ in range(shape[0])]
    )


def _check_measurements(landmarks: np.ndarray, measured: np.ndarray, rank: int) -> None:
    """Reject, before descending, what no descent can use: anything but
    ``(m, k)`` landmarks against rank-*rank* measurements (``(m,)`` for one
    host, ``(H, m)`` for many), no landmark, or a negative, NaN or infinite
    measurement. A zero one — a proxy on a landmark's router — is legal."""
    if landmarks.ndim != 2 or measured.ndim != rank:
        raise EmbeddingError(
            f"expected (m, k) landmarks and {'(H, m)' if rank == 2 else '(m,)'} "
            f"measurements, got {landmarks.shape} and {measured.shape}"
        )
    if landmarks.shape[0] != measured.shape[-1]:
        raise EmbeddingError(
            f"{landmarks.shape[0]} landmark coordinates but "
            f"{measured.shape[-1]} measurements{' per host' if rank == 2 else ''}"
        )
    if landmarks.shape[0] == 0:
        raise EmbeddingError("no landmark to locate against")
    unusable = ~np.isfinite(measured) | (measured < 0)
    if unusable.any():
        where = tuple(np.argwhere(unusable)[0].tolist())
        raise EmbeddingError(
            f"unusable measurement {measured[where]} to landmark {where[-1]}"
            + (f" in host row {where[0]}" if rank == 2 else "")
        )


def _numpy_sum(terms: list):
    """``np.add.reduce`` of *terms* (each >= 0 or NaN; floats, or arrays
    summed elementwise), bit for bit: numpy's pairwise order is one running
    sum below 8 terms, eight interleaved accumulators and then the tail up to
    128, and halves cut at a multiple of 8 above. Explicit ``+`` only:
    Python 3.12's ``sum()`` compensates."""
    n = len(terms)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _numpy_sum(terms[:half]) + _numpy_sum(terms[half:])
    total, full = 0.0, 0
    if n >= 8:
        acc, full = terms[:8], n - n % 8
        for i in range(8, full, 8):
            acc = [a + t for a, t in zip(acc, terms[i : i + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for term in terms[full:]:
        total += term
    return total


def _host_objective(landmarks: np.ndarray, measured: np.ndarray) -> Objective:
    """The host step's objective, ``sum(((|l - p| - measured) / safe)**2)``, on
    Python floats (numpy's dispatch would cost more than ten terms' arithmetic):
    each float is numpy's, in its operations and both sums' order."""
    rows = [(c, m, m if m > 0 else 1.0) for c, m in zip(landmarks.tolist(), measured.tolist())]
    k = landmarks.shape[1]
    if k != 2:

        def objective(point: Sequence[float]) -> float:
            # the simplex's reused buffer, read as Python floats once
            point = point.tolist() if isinstance(point, np.ndarray) else point
            terms: List[float] = []
            for coords, meas, s in rows:
                if k < 8:  # numpy's axis sum is one running sum below 8 terms
                    total = 0.0
                    for c, q in zip(coords, point):
                        total += (c - q) * (c - q)
                else:
                    total = _numpy_sum([(c - q) * (c - q) for c, q in zip(coords, point)])
                e = (sqrt(total) - meas) / s
                terms.append(e * e)
            return _numpy_sum(terms)

        return objective
    # the paper's plane, unrolled: an axis loop per landmark outcosts its sum
    planar = [(c0, c1, meas, s) for (c0, c1), meas, s in rows]

    def plane(point: Sequence[float]) -> float:
        p0, p1 = point
        terms: List[float] = []
        for c0, c1, meas, s in planar:
            d0, d1 = c0 - p0, c1 - p1
            e = (sqrt(d0 * d0 + d1 * d1) - meas) / s
            terms.append(e * e)
        return _numpy_sum(terms)

    return plane


def locate_host(
    landmark_coords: np.ndarray,
    measured_to_landmarks: Sequence[float],
    *,
    max_iterations: int = 800,
) -> np.ndarray:
    """Derive a host's coordinates from its measured landmark delays.

    Minimizes the sum of squared relative errors between the host-to-landmark
    geometric distances and the measured delays (the per-host step of GNP).
    """
    return solve_host(landmark_coords, measured_to_landmarks, max_iterations=max_iterations).x


def solve_host(
    landmark_coords: np.ndarray,
    measured_to_landmarks: Sequence[float],
    *,
    max_iterations: int = 800,
) -> MinimizeResult:
    """:func:`locate_host` with the kept descent's diagnostics: the
    coordinates are ``.x``, beside ``fun``, ``iterations`` and ``converged``."""
    landmarks = np.asarray(landmark_coords, dtype=float)
    measured = np.asarray(measured_to_landmarks, dtype=float)
    _check_measurements(landmarks, measured, 1)

    # Start from the measurement-weighted centroid: closer landmarks pull
    # harder. A second start at the nearest landmark guards against the
    # centroid landing in a bad basin.
    weights = 1.0 / np.maximum(measured, 1e-9)
    centroid = (landmarks * weights[:, None]).sum(axis=0) / weights.sum()
    nearest = landmarks[int(np.argmin(measured))]
    scale = float(np.max(measured)) or 1.0
    return minimize_with_restarts(
        _host_objective(landmarks, measured),
        [centroid, nearest],
        initial_step=scale * 0.1,
        max_iterations=max_iterations,
        xtol=scale * 1e-7,
    )


def locate_hosts(
    landmark_coords: np.ndarray,
    measured_matrix: np.ndarray,
    *,
    max_iterations: int = 800,
) -> np.ndarray:
    """Batched :func:`locate_host`: solve every host's coordinates at once.

    Args:
        landmark_coords: ``(m, k)`` embedded landmark positions.
        measured_matrix: ``(H, m)`` host-to-landmark delay measurements.

    Each host is an independent k-variable minimization; the batched
    Nelder-Mead runs all of them through one numpy-level simplex iteration
    per step instead of H Python-level loops. The starts, tolerances and
    descent decisions mirror :func:`locate_host` exactly, so the returned
    ``(H, k)`` coordinates are bit-identical to calling it per host (the
    equivalence suite asserts this).
    """
    return solve_hosts(landmark_coords, measured_matrix, max_iterations=max_iterations).x


def solve_hosts(
    landmark_coords: np.ndarray,
    measured_matrix: np.ndarray,
    *,
    max_iterations: int = 800,
) -> BatchMinimizeResult:
    """:func:`locate_hosts` with each host's kept descent: the coordinates
    are ``.x``, beside ``fun``, ``iterations`` and ``converged``."""
    landmarks = np.asarray(landmark_coords, dtype=float)
    measured = np.asarray(measured_matrix, dtype=float)
    _check_measurements(landmarks, measured, 2)
    # landmark-major: row l of every (m, M) block is landmark l against the
    # call's M points, so the per-host data is gathered along axis 1
    measured_t = np.ascontiguousarray(measured.T)
    safe_t = np.where(measured_t > 0, measured_t, 1.0)
    by_axis = np.ascontiguousarray(landmarks.T)[:, :, None]

    def objective(points: np.ndarray, idx: np.ndarray) -> np.ndarray:
        # Squared distances accumulated axis by axis — the terms and order of
        # `np.sum(diff**2, axis=-1)` (numpy sums a short axis sequentially)
        # without the cube — then the relative error in place, and the sum
        # over landmarks in `np.add.reduce`'s pairwise order over the rows.
        coords = points.T
        est = by_axis[0] - coords[0]
        est *= est
        for a in range(1, by_axis.shape[0]):
            term = by_axis[a] - coords[a]
            term *= term
            est += term
        np.sqrt(est, out=est)
        est -= measured_t.take(idx, axis=1)
        est /= safe_t.take(idx, axis=1)
        est *= est
        return _numpy_sum(list(est))

    weights = 1.0 / np.maximum(measured, 1e-9)
    centroid = (landmarks[None, :, :] * weights[:, :, None]).sum(
        axis=1
    ) / weights.sum(axis=1)[:, None]
    nearest = landmarks[np.argmin(measured, axis=1)]
    scale = np.max(measured, axis=1)
    scale = np.where(scale == 0.0, 1.0, scale)
    starts = np.stack([centroid, nearest], axis=1)
    return minimize_with_restarts_batch(
        objective,
        starts,
        initial_step=scale * 0.1,
        max_iterations=max_iterations,
        xtol=scale * 1e-7,
    )


@dataclass
class EmbeddingReport:
    """Diagnostics of a completed embedding.

    Attributes:
        landmark_ids: physical router ids used as landmarks.
        landmark_coordinates: the embedded landmark positions, ``(m, k)`` —
            kept so late-joining proxies can derive their own coordinates.
        dimension: k of the coordinate space.
        measurement_count: probes issued (paper: O(m^2 + n*m)).
        landmark_fit_error: final relative-error objective on the landmarks.
    """

    landmark_ids: List[int]
    landmark_coordinates: np.ndarray
    dimension: int
    measurement_count: int
    landmark_fit_error: float


def choose_landmarks(
    physical: PhysicalNetwork, count: int, seed: RngLike = None
) -> List[int]:
    """Pick *count* well-separated landmark routers.

    Greedy k-center on true delays, seeded with a random router: landmarks
    spread across the network give better-conditioned embeddings than a
    random draw, and the paper leaves placement open ("set up a small group
    of m landmarks").
    """
    rng = ensure_rng(seed)
    nodes = range(physical.topology.node_count)
    if count > len(nodes):
        raise EmbeddingError(f"cannot pick {count} landmarks from {len(nodes)} routers")

    def row(landmark: int) -> np.ndarray:
        delays = physical.delays_from(landmark).array
        if delays.max() == float("inf"):
            raise TopologyError(
                f"router {int(delays.argmax())!r} unreachable from {landmark!r}"
            )
        return delays

    landmarks = [rng.choice(nodes)]
    min_dist = row(landmarks[0]).copy()
    while len(landmarks) < count:
        landmarks.append(int(min_dist.argmax()))
        np.minimum(min_dist, row(landmarks[-1]), out=min_dist)
    return landmarks


def build_coordinate_space(
    physical: PhysicalNetwork,
    hosts: Sequence[int],
    *,
    landmarks: Optional[Sequence[int]] = None,
    landmark_count: int = 10,
    dimension: int = 2,
    probes: int = 3,
    seed: RngLike = None,
    telemetry=None,
) -> Tuple[CoordinateSpace, EmbeddingReport]:
    """End-to-end distance-map construction for *hosts* (paper Section 3.1).

    Args:
        physical: delay oracle (provides noisy measurements).
        hosts: overlay proxies to embed.
        landmarks: explicit landmark router ids; chosen automatically if None.
        landmark_count: number of landmarks when auto-choosing (paper uses 10).
        dimension: coordinate-space dimension k (paper uses 2).
        probes: measurements per pair; the minimum is kept.
        seed: RNG seed for landmark choice and refinement starts.
        telemetry: optional :class:`~repro.telemetry.Telemetry` scope for
            construction-phase spans; defaults to the process scope.

    Returns the coordinate space over *hosts* plus an :class:`EmbeddingReport`.
    """
    from repro.telemetry import get_telemetry

    telemetry = telemetry if telemetry is not None else get_telemetry()
    rng = ensure_rng(seed)
    if landmarks is None:
        with telemetry.tracer.span(
            "construct.embedding.choose_landmarks", landmarks=landmark_count
        ):
            landmarks = choose_landmarks(physical, landmark_count, rng)
    landmarks = list(landmarks)
    m = len(landmarks)
    measurement_count = 0

    with telemetry.tracer.span("construct.embedding.measure_landmarks", landmarks=m):
        measured = np.zeros((m, m), dtype=float)
        for i in range(m):
            for j in range(i + 1, m):
                value = physical.measure(landmarks[i], landmarks[j], probes=probes)
                measurement_count += probes
                measured[i, j] = measured[j, i] = value

    with telemetry.tracer.span(
        "construct.embedding.landmarks", dimension=dimension
    ) as span:
        runs = _landmark_runs(measured, dimension, seed=rng)
        kept = _kept(runs)
        landmark_coords = kept.x.reshape(m, dimension)
        # a start the cap cut off is not an error (the kept fit is reported
        # as landmark_fit_error) but it is the solve's whole cost: say so
        span.attributes.update(
            iterations=kept.iterations,
            converged=kept.converged,
            capped_starts=sum(not run.converged for run in runs),
        )

    diff = landmark_coords[:, None, :] - landmark_coords[None, :, :]
    est = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
    fit_error = _relative_error(est, measured)

    landmark_index = {router: i for i, router in enumerate(landmarks)}
    ordinary = [host for host in hosts if host not in landmark_index]

    # Host-to-landmark true delays come from the landmark side: m Dijkstra
    # sweeps instead of n, one batched Nelder-Mead over the whole matrix.
    with telemetry.tracer.span(
        "construct.embedding.measure_hosts", hosts=len(ordinary)
    ):
        to_landmarks = physical.measure_many(ordinary, landmarks, probes=probes)
        measurement_count += probes * m * len(ordinary)
    with telemetry.tracer.span("construct.embedding.locate", hosts=len(ordinary)) as span:
        solved = solve_hosts(landmark_coords, to_landmarks)
        located = dict(zip(ordinary, solved.x))
        # the kept descents: the longest, their sum, how many the cap cut off
        span.attributes.update(
            iterations=int(solved.iterations.max(initial=0)),
            problem_iterations=int(solved.iterations.sum()),
            capped=int(solved.converged.size - np.count_nonzero(solved.converged)),
        )

    # Assemble in *hosts* order so the space's node order (and anything
    # iterating it) is independent of which hosts double as landmarks.
    coords: Dict[int, Sequence[float]] = {
        host: (
            landmark_coords[landmark_index[host]]
            if host in landmark_index
            else located[host]
        )
        for host in hosts
    }

    telemetry.registry.counter("construct.measurements").inc(measurement_count)
    report = EmbeddingReport(
        landmark_ids=landmarks,
        landmark_coordinates=landmark_coords,
        dimension=dimension,
        measurement_count=measurement_count,
        landmark_fit_error=fit_error,
    )
    return CoordinateSpace(coords), report


def embedding_accuracy(
    space: CoordinateSpace,
    physical: PhysicalNetwork,
    nodes: Sequence[int],
    *,
    sample_pairs: int = 500,
    seed: RngLike = None,
) -> Dict[str, float]:
    """Relative-error statistics of *space* against true delays.

    Samples up to *sample_pairs* node pairs and reports mean/median/p90 of
    ``|geometric - true| / true``. Used by the dimension ablation (A1).
    """
    rng = ensure_rng(seed)
    nodes = list(nodes)
    if len(nodes) < 2:
        raise EmbeddingError("need at least two nodes to assess accuracy")
    errors = []
    for _ in range(sample_pairs):
        u, v = rng.sample(nodes, 2)
        true = physical.delay(u, v)
        if true <= 0:
            continue
        est = space.distance(u, v)
        errors.append(abs(est - true) / true)
    if not errors:
        raise EmbeddingError("no valid pairs sampled")
    arr = np.array(errors)
    return {
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "p90": float(np.percentile(arr, 90)),
        "max": float(arr.max()),
        "pairs": float(arr.size),
    }
