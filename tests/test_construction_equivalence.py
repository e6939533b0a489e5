"""Equivalence suite: the construction kernels == their reference oracles.

The Section-3 construction pipeline (batched Nelder-Mead embedding,
kd-tree Borůvka MST, vectorised small-cluster merges, blocked border-pair
minima) claims the same MST edge sets, same cluster partitions and same
border pairs as the original per-host/per-pair loops, which live on as test
oracles in ``tests/oracles/construction.py``. These tests pin that claim:

* solver-level, bit-exact: the scalar simplex that keeps its order by
  insertion evaluates the points, in the order, of the loop that re-sorts
  every step, and the batched Nelder-Mead replays the scalar algorithm's
  decisions, so on identical inputs the results are identical to the last
  bit (hypothesis-driven);
* kernel-level: MST edge sets, cluster partitions and border selections
  agree between the fast and reference implementations across random
  topologies (hypothesis-driven, integer coordinates so distance ties are
  exact in both squared and rooted form — where ties make the MST
  non-unique, the reference is the dense Kruskal under the kernel's
  ``(d², min(i, j), max(i, j))`` order; on float clouds it is the Prim,
  edge for edge and weight for weight);
* pipeline-level: end-to-end construction over real transit-stub networks
  produces identical clusters and identical border pairs on both paths
  (fixed seeds; the production path measures true delays from the landmark
  side, which shifts floats by summation order, so coordinates agree to
  tolerance rather than bitwise while the topology stays identical).
"""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import mstcluster
from repro.cluster.mstcluster import ClusteringConfig, cluster_nodes
from repro.coords.embedding import (
    _host_objective,
    build_coordinate_space,
    embed_landmarks,
    locate_host,
    locate_hosts,
    solve_host,
    solve_hosts,
)
from repro.coords.neldermead import (
    minimize_with_restarts,
    minimize_with_restarts_batch,
    nelder_mead,
    nelder_mead_batch,
)
from repro.coords.space import CoordinateSpace
from repro.graph import mst
from repro.graph.mst import euclidean_mst
from repro.netsim import PhysicalNetwork, transit_stub
from repro.overlay.hfc import select_borders_closest
from tests.oracles.construction import (
    cluster_nodes_reference,
    construct_reference,
    embed_landmarks_reference,
    euclidean_mst_kruskal_reference,
    euclidean_mst_reference,
    host_objective_reference,
    merge_small_clusters_reference,
    nelder_mead_reference,
    select_borders_closest_reference,
    solve_host_reference,
)
from tests.oracles.shortest_paths import physical_graph


def gnp_objectives(landmarks, measured):
    """Scalar and batched forms of the per-host GNP objective."""
    safe = np.where(measured > 0, measured, 1.0)

    def scalar(i):
        def f(point):
            est = np.sqrt(np.sum((landmarks - point) ** 2, axis=1))
            return float(np.sum(((est - measured[i]) / safe[i]) ** 2))

        return f

    def batched(points, idx):
        diff = landmarks[None, :, :] - points[:, None, :]
        est = np.sqrt(np.sum(diff**2, axis=2))
        return np.sum(((est - measured[idx]) / safe[idx]) ** 2, axis=1)

    return scalar, batched


def generic_objective(family, rng, batch, n):
    """A batched objective over *batch* random problems in *n* variables
    whose rows are evaluated independently (elementwise ufuncs and a sum
    over a contiguous trailing axis), so a batch of one is its scalar form."""
    centre = rng.uniform(-3.0, 3.0, (batch, n))
    if family == "residual":
        terms = int(rng.integers(1, 12))
        weight = rng.uniform(-2.0, 2.0, (batch, terms, n))
        target = rng.uniform(-4.0, 4.0, (batch, terms))

        def batched(points, idx):
            residual = -target[idx]
            for a in range(n):
                residual = residual + weight[idx, :, a] * points[:, a : a + 1]
            return np.sum(residual * residual, axis=1)

        return batched

    def batched(points, idx):
        d = points - centre[idx]
        values = np.sum(np.abs(d) + (d * d) * (d * d), axis=1)
        if family == "nan_region":
            values[d[:, 0] > 1.0] = np.nan
        return values

    return batched


def batch_of_one(batched):
    """Problem i's scalar objective: *batched* on a batch of one, the same
    arithmetic by construction."""

    def scalar(i):
        return lambda point: float(batched(np.asarray(point)[None, :], np.array([i]))[0])

    return scalar


class TestLandmarkObjective:
    """The landmark solve evaluates only the m(m-1)/2 pairs, indexed once;
    the oracle re-indexes the full matrix per evaluation. Same terms in the
    same order, so the embeddings are equal to the last bit."""

    @pytest.mark.parametrize("m", [10, 15])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bit_identical_to_full_matrix_objective(self, m, dim, seed):
        rng = np.random.default_rng(1000 * m + 10 * dim + seed)
        # noisy distances of hidden points: not exactly embeddable, like
        # measured delays, so the solve runs long
        hidden = rng.uniform(0.0, 100.0, (m, dim + 1))
        measured = np.linalg.norm(hidden[:, None, :] - hidden[None, :, :], axis=2)
        noise = rng.uniform(0.9, 1.1, (m, m))
        measured *= np.triu(noise, 1) + np.triu(noise, 1).T
        fast = embed_landmarks(measured, dim, max_iterations=400, seed=seed)
        slow = embed_landmarks_reference(measured, dim, max_iterations=400, seed=seed)
        assert np.array_equal(fast, slow)


def scalar_objective(family, rng, n):
    """A scalar objective in *n* variables around a random centre."""
    centre = rng.uniform(-3.0, 3.0, n)
    weight = rng.uniform(0.1, 3.0, n)

    def value(point):
        d = point - centre
        if family == "quadratic":
            return float(np.sum(weight * d * d))
        if family == "ties":  # one decimal: equal values everywhere
            return float(np.round(np.sum(np.abs(d)), 1))
        if family == "nan_half_space" and d[0] > 1.0:
            return float("nan")
        if family == "nan_band" and 0.5 < abs(d[0]) < 1.5:
            return float("nan")
        return float(np.sum(np.abs(d) + (d * d) * (d * d)))

    return value


def traced(solver, objective, x0, **kwargs):
    """*solver*'s result and the points it evaluated, in order."""
    points = []

    def recording(point):
        points.append(point.copy())
        return objective(point)

    return solver(recording, x0, **kwargs), points


def assert_same_descent(objective, x0, **kwargs):
    """``nelder_mead`` == ``nelder_mead_reference``: result and trajectory."""
    new, new_points = traced(nelder_mead, objective, x0, **kwargs)
    old, old_points = traced(nelder_mead_reference, objective, x0, **kwargs)
    assert len(new_points) == len(old_points)
    for step, (a, b) in enumerate(zip(new_points, old_points)):
        assert np.array_equal(a, b, equal_nan=True), step
    assert np.array_equal(new.x, old.x, equal_nan=True)
    assert np.array_equal(new.fun, old.fun, equal_nan=True)
    assert (new.iterations, new.converged) == (old.iterations, old.converged)
    return new, new_points


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestScalarSimplexKeepsItsOrder:
    """The scalar loop sorts once and then inserts; the oracle re-sorts the
    whole simplex every iteration. Same floats from the same operations in
    the same order, in either vertex format (n = 1..20: the plane kernel at
    n = 2, buffers at every other n), so not only the answer but every evaluated point
    is equal."""

    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 20),
        family=st.sampled_from(
            ["quadratic", "l1_quartic", "ties", "nan_half_space", "nan_band"]
        ),
        cap=st.sampled_from([0, 1, 7, 60, 400]),
        step=st.sampled_from([0.3, 1.0, 2.5]),
    )
    # both vertex formats, every family: the plane kernel at n = 2, numpy
    # buffers on either side of it
    @example(seed=1, n=1, family="nan_band", cap=400, step=1.0)
    @example(seed=1, n=2, family="nan_band", cap=400, step=1.0)
    @example(seed=1, n=3, family="nan_band", cap=400, step=1.0)
    @example(seed=2, n=1, family="ties", cap=400, step=2.5)
    @example(seed=2, n=2, family="ties", cap=400, step=2.5)
    @example(seed=2, n=3, family="ties", cap=400, step=2.5)
    @example(seed=3, n=1, family="quadratic", cap=0, step=0.3)
    @example(seed=3, n=2, family="quadratic", cap=0, step=0.3)
    @example(seed=3, n=3, family="quadratic", cap=0, step=0.3)
    @example(seed=4, n=1, family="nan_half_space", cap=1, step=1.0)
    @example(seed=4, n=2, family="nan_half_space", cap=1, step=1.0)
    @example(seed=4, n=3, family="nan_half_space", cap=1, step=1.0)
    @example(seed=5, n=1, family="l1_quartic", cap=60, step=1.0)
    @example(seed=5, n=2, family="l1_quartic", cap=60, step=1.0)
    @example(seed=5, n=3, family="l1_quartic", cap=60, step=1.0)
    def test_replays_the_resorting_loop(self, seed, n, family, cap, step):
        rng = np.random.default_rng(seed)
        objective = scalar_objective(family, rng, n)
        x0 = rng.uniform(-5.0, 5.0, n)
        x0[rng.uniform(size=n) < 0.3] = 0.0
        assert_same_descent(
            objective,
            x0,
            initial_step=step,
            xtol=float(rng.choice([1e-6, 1e-2, 10.0])),
            ftol=float(rng.choice([1e-9, 1e-3, 1e3])),
            max_iterations=cap,
        )

    @pytest.mark.parametrize(
        "start, step", [([-2.1, 3.1], 0.5), ([3.3, -2.6, 1.9], 0.7)], ids=["plane", "buffers"]
    )
    def test_a_new_value_tying_an_old_one_goes_after_it(self, start, step):
        """Plateaus of equal values: the stable sort keeps the older vertex
        first, so an insertion lands after every value equal to it. On the
        plane this descent fails a ``bisect_left`` in the contraction's
        insert, an expansion kept on ``<=``, and a reflection tying the best
        inserted before it; on buffers, a ``bisect_left``."""
        seen = []

        def plateaus(point):
            seen.append(float(np.floor(np.abs(point).sum())))
            return seen[-1]

        assert_same_descent(plateaus, start, initial_step=step, max_iterations=40)
        assert len(set(seen)) < len(seen) / 3  # ties are the common case

    @pytest.mark.parametrize("start", [[1.4, 1.0], [1.4, 1.0, 1.0]], ids=["plane", "buffers"])
    def test_nan_vertices_stay_last_while_a_new_best_goes_first(self, start):
        """The start sits in a NaN band, so all but one of the n + 1 vertices
        are NaN; expansions then put a new best at row 0 with NaNs further
        down (on buffers a plain bisect over them diverges from the oracle on
        this descent), and a shrink re-sorts with NaNs among the values (on
        the plane a kernel that skips that re-sort diverges)."""

        def banded(point):
            point = np.asarray(point)
            if 0.5 < abs(point[0]) < 1.5:
                return float("nan")
            return float(np.sum(point * point))

        n = len(start)
        result, points = assert_same_descent(
            banded, start, initial_step=1.0, max_iterations=25
        )
        assert sum(np.isnan(banded(p)) for p in points[: n + 1]) == n
        assert np.isfinite(result.fun)

    def test_a_shrink_step(self):
        """A bumpy bowl where a contraction fails: the loop shrinks,
        re-evaluates n vertices in row order and re-sorts (the plane kernel
        that skips the re-sort diverges from the oracle on this descent)."""

        def bumpy(point):
            d = point - np.array([1.0, 0.0])
            return float(np.sum(d * d) + 3.0 * np.sum(np.cos(3.0 * d)))

        result, points = assert_same_descent(
            bumpy, [0.0, -3.0], initial_step=2.0, max_iterations=10
        )
        # past the initial simplex an iteration evaluates one or two
        # points; only a shrink evaluates 2 + n
        assert len(points) - 3 > 2 * result.iterations

    def test_zero_iterations_returns_the_best_initial_vertex(self):
        result, points = assert_same_descent(
            lambda p: float(p[0] ** 2 + p[1]), [1.0, 2.0], max_iterations=0
        )
        assert len(points) == 3 and result.iterations == 0 and not result.converged
        assert np.array_equal(result.x, [1.0, 2.0])

    def test_the_point_is_valid_during_the_call_only(self):
        """Off the plane the objective is handed a buffer the loop reuses: an
        objective that keeps copies sees the trajectory, one that keeps the
        argument itself sees the same few buffers over and over. At n = 2 the
        point is a list of two Python floats under the same contract: read
        it during the call; copy to keep."""
        n = 3
        copies, kept = [], []

        def bowl(point):
            copies.append(point.copy())
            kept.append(point)
            return float(np.sum(point * point))

        nelder_mead(bowl, np.linspace(-3.0, 3.0, n), max_iterations=50)
        trials = slice(n + 1, None)  # past the initial simplex's own rows
        assert len({c.tobytes() for c in copies[trials]}) > 40
        assert len({id(k) for k in kept[trials]}) <= 3
        assert sum(
            np.array_equal(k, c) for k, c in zip(kept[trials], copies[trials])
        ) < len(copies[trials]) / 4

        narrow = []
        nelder_mead(
            lambda p: narrow.append(p) or float(np.dot(p, p)),
            np.linspace(-3.0, 3.0, 2),
            max_iterations=50,
        )
        assert all(
            type(p) is list and len(p) == 2 and {type(x) for x in p} == {float}
            for p in narrow
        )


class TestBatchedNelderMead:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 12),
        dim=st.integers(1, 3),
    )
    def test_bit_identical_to_scalar_loop(self, seed, batch, dim):
        rng = np.random.default_rng(seed)
        m = 6
        landmarks = rng.uniform(0.0, 100.0, (m, dim))
        measured = rng.uniform(0.5, 120.0, (batch, m))
        scalar, batched = gnp_objectives(landmarks, measured)
        x0s = rng.uniform(0.0, 100.0, (batch, dim))
        steps = rng.uniform(0.5, 5.0, batch)
        xtols = rng.uniform(1e-8, 1e-5, batch)

        result = nelder_mead_batch(
            batched, x0s, initial_step=steps, xtol=xtols, max_iterations=300
        )
        for i in range(batch):
            ref = nelder_mead(
                scalar(i),
                x0s[i],
                initial_step=float(steps[i]),
                xtol=float(xtols[i]),
                max_iterations=300,
            )
            assert np.array_equal(ref.x, result.x[i])
            assert ref.fun == result.fun[i]
            assert ref.iterations == result.iterations[i]
            assert ref.converged == bool(result.converged[i])

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 8),
        family=st.sampled_from(["gnp", "nan_region"]),
    )
    @example(seed=0, batch=1, family="nan_region")  # a finite run, then a NaN one
    def test_restarts_bit_identical(self, seed, batch, family):
        """Every problem keeps the run the scalar restart loop keeps: the
        earliest unless a later one is strictly lower. Starts inside a NaN
        region end as NaN runs, after or before finite ones; ``np.argmin``
        would keep the NaN over an earlier finite run."""
        rng = np.random.default_rng(seed)
        m, dim, n_starts = 5, 2, 3
        if family == "gnp":
            landmarks = rng.uniform(0.0, 50.0, (m, dim))
            measured = rng.uniform(0.5, 80.0, (batch, m))
            scalar, batched = gnp_objectives(landmarks, measured)
            starts = rng.uniform(0.0, 50.0, (batch, n_starts, dim))
        else:
            batched = generic_objective(family, rng, batch, dim)
            scalar = batch_of_one(batched)
            starts = rng.uniform(-5.0, 5.0, (batch, n_starts, dim))

        result = minimize_with_restarts_batch(
            batched, starts, initial_step=2.0, xtol=1e-7, max_iterations=250
        )
        for i in range(batch):
            ref = minimize_with_restarts(
                scalar(i),
                list(starts[i]),
                initial_step=2.0,
                xtol=1e-7,
                max_iterations=250,
            )
            assert np.array_equal(ref.x, result.x[i], equal_nan=True)
            assert np.array_equal(ref.fun, result.fun[i], equal_nan=True)
            assert (ref.iterations, ref.converged) == (
                result.iterations[i],
                bool(result.converged[i]),
            )

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 40),
        n=st.integers(1, 6),
        family=st.sampled_from(["residual", "l1_quartic", "nan_region"]),
        cap=st.sampled_from([0, 1, 7, 60, 400]),
    )
    def test_generic_objectives_replay_the_scalar_loop(
        self, seed, batch, n, family, cap
    ):
        """The kernel itself, away from the GNP objective: every problem's
        ``x``, ``fun``, ``iterations`` and ``converged`` are the scalar
        loop's, through NaN regions, zero start coordinates, tolerances
        that pass in either order and caps that cut descents anywhere."""
        rng = np.random.default_rng(seed)
        batched = generic_objective(family, rng, batch, n)
        scalar = batch_of_one(batched)

        x0s = rng.uniform(-5.0, 5.0, (batch, n))
        x0s[rng.uniform(size=(batch, n)) < 0.3] = 0.0
        steps = rng.uniform(0.1, 3.0, batch)
        xtols = rng.choice([1e-6, 1e-2, 10.0], batch)
        ftols = rng.choice([1e-9, 1e-3, 1e3], batch)

        result = nelder_mead_batch(
            batched, x0s, initial_step=steps, xtol=xtols, ftol=ftols,
            max_iterations=cap,
        )
        for i in range(batch):
            ref = nelder_mead(
                scalar(i),
                x0s[i],
                initial_step=float(steps[i]),
                xtol=float(xtols[i]),
                ftol=float(ftols[i]),
                max_iterations=cap,
            )
            assert np.array_equal(ref.x, result.x[i], equal_nan=True)
            assert np.array_equal(ref.fun, result.fun[i], equal_nan=True)
            assert ref.iterations == result.iterations[i]
            assert ref.converged == bool(result.converged[i])

    def test_a_step_calls_the_objective_twice_plus_its_shrinks(self):
        """After the initial evaluations a step makes one call for its
        reflections, at most one for its expansions and contractions together
        (they belong to disjoint problems), and one more when some problem
        shrinks. A shrink's call is the only one that names a problem more
        than once (its n re-evaluated vertices), which tells the calls apart."""
        rng = np.random.default_rng(5)
        batch, n = 60, 3
        objective = generic_objective("nan_region", rng, batch, n)
        repeats = []

        def counting(points, idx):
            repeats.append(np.unique(idx).size < idx.size)
            return objective(points, idx)

        result = nelder_mead_batch(
            counting, rng.uniform(-5.0, 5.0, (batch, n)), max_iterations=200
        )
        steps = int(result.iterations.max())
        initial, *calls = repeats
        shrinks = sum(calls)
        assert initial and steps > 50
        assert 0 < shrinks <= steps
        assert steps <= len(calls) - shrinks <= 2 * steps

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            nelder_mead_batch(lambda p, i: np.zeros(len(p)), np.zeros((3,)))
        with pytest.raises(ValueError):
            minimize_with_restarts_batch(
                lambda p, i: np.zeros(len(p)), np.zeros((3, 2))
            )
        with pytest.raises(ValueError):
            nelder_mead_batch(
                lambda p, i: np.zeros(len(p)),
                np.zeros((3, 2)),
                initial_step=np.ones(4),
            )


class TestLocateHostsBatch:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        hosts=st.integers(1, 10),
        m=st.integers(3, 8),
        dim=st.integers(1, 3),
    )
    def test_bit_identical_to_per_host_loop(self, seed, hosts, m, dim):
        rng = np.random.default_rng(seed)
        landmarks = rng.uniform(0.0, 100.0, (m, dim))
        positions = rng.uniform(0.0, 100.0, (hosts, dim))
        true = np.sqrt(
            ((landmarks[None, :, :] - positions[:, None, :]) ** 2).sum(axis=2)
        )
        measured = true * rng.uniform(1.0, 1.15, (hosts, m))

        batch = locate_hosts(landmarks, measured)
        for i in range(hosts):
            ref = locate_host(landmarks, measured[i])
            assert np.array_equal(ref, batch[i])

    @pytest.mark.parametrize("m", [10, 15])
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_production_shape_bit_identical(self, m, dim, monkeypatch):
        """Paper-sized landmark sets and enough hosts that problems leave
        the working set in many different iterations, a good share of them
        cut off by the iteration cap, and one host measuring a zero delay."""
        from repro.coords import neldermead

        runs = []

        def recording(*args, **kwargs):
            runs.append(nelder_mead_batch(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(neldermead, "nelder_mead_batch", recording)
        rng = np.random.default_rng(100 * m + dim)
        hosts = 220
        landmarks = rng.uniform(0.0, 100.0, (m, dim))
        positions = rng.uniform(0.0, 100.0, (hosts, dim))
        true = np.sqrt(
            ((landmarks[None, :, :] - positions[:, None, :]) ** 2).sum(axis=2)
        )
        measured = true * rng.uniform(1.0, 1.15, (hosts, m))
        measured[7, 3] = 0.0  # the host sits on landmark 3
        cap = {2: 60, 3: 105, 5: 250}[dim]  # about the median descent

        batch = locate_hosts(landmarks, measured, max_iterations=cap)
        (run,) = runs  # both starts of every host
        assert 0.2 * hosts < run.converged.sum() < 1.8 * hosts
        assert len(set(run.iterations.tolist())) > 10
        for i in range(hosts):
            ref = locate_host(landmarks, measured[i], max_iterations=cap)
            assert np.array_equal(ref, batch[i]), i

    @pytest.mark.parametrize("m", [7, 8, 9, 16, 17, 129])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_landmark_counts_at_the_row_trees_seams(self, m, dim):
        """The sum over landmarks is numpy's pairwise tree over the rows of an
        ``(m, M)`` block: one running sum below 8 rows, eight accumulators
        and a tail up to 128, two halves above. Each seam against the
        per-host solve, whose objective sums a host's m terms in that order:
        the kept value too, where a sum in another order shows first."""
        rng = np.random.default_rng(1000 * m + dim)
        hosts = 12
        landmarks = rng.uniform(0.0, 100.0, (m, dim))
        positions = rng.uniform(0.0, 100.0, (hosts, dim))
        true = np.sqrt(
            ((landmarks[None, :, :] - positions[:, None, :]) ** 2).sum(axis=2)
        )
        measured = true * rng.uniform(1.0, 1.15, (hosts, m))

        batch = solve_hosts(landmarks, measured)
        assert np.array_equal(batch.x, locate_hosts(landmarks, measured))
        for i in range(hosts):
            ref = solve_host(landmarks, measured[i])
            assert np.array_equal(ref.x, batch.x[i]), i
            assert (ref.fun, ref.iterations, ref.converged) == (
                batch.fun[i], batch.iterations[i], batch.converged[i]
            ), i

    def test_empty_batch(self):
        out = locate_hosts(np.zeros((4, 2)), np.zeros((0, 4)))
        assert out.shape == (0, 2)

    def test_shape_mismatch_rejected(self):
        from repro.util.errors import EmbeddingError

        with pytest.raises(EmbeddingError):
            locate_hosts(np.zeros((4, 2)), np.zeros((3, 5)))


class TestHostObjectiveIsNumpys:
    """``solve_host`` evaluates its objective on Python floats (and, in the
    plane, descends on them); the numpy form
    it replaced (``host_objective_reference``) is the answer to the last
    bit. Numpy sums in pairwise order (one running sum below 8 terms, eight
    accumulators up to 128, halves above), so the landmark counts straddle
    both seams, and the axis sum runs over every dimension the float form
    unrolls (2) or loops (the rest)."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 300) | st.sampled_from([7, 8, 9, 15, 16, 17, 127, 128, 129, 136, 256]),
        # the plane kernel, the axis loop on buffers, and the axis sum's seam
        k=st.integers(1, 5) | st.sampled_from([8, 9]),
        exponent=st.floats(-6.0, 6.0),
    )
    def test_value_and_descent_equal_the_numpy_form(self, seed, m, k, exponent):
        rng = np.random.default_rng(seed)
        scale = 10.0**exponent
        landmarks = rng.uniform(-1.0, 1.0, (m, k)) * scale
        host = rng.uniform(-1.0, 1.0, k) * scale
        true = np.sqrt(((landmarks - host) ** 2).sum(axis=1))
        measured = true * rng.uniform(0.5, 2.0, m)
        measured[rng.random(m) < 0.2] = 0.0  # proxies on a landmark's router

        ours = _host_objective(landmarks, measured)
        reference = host_objective_reference(landmarks, measured)
        for point in (host, landmarks[0], rng.uniform(-3.0, 3.0, k) * scale, -host):
            assert ours(point) == reference(point)

        got = solve_host(landmarks, measured, max_iterations=120)
        want = solve_host_reference(landmarks, measured, max_iterations=120)
        assert np.array_equal(got.x, want.x)
        assert (got.fun, got.iterations, got.converged) == (
            want.fun,
            want.iterations,
            want.converged,
        )


#: integer lattice points — squared distances are exact floats and ties are
#: everywhere, so the MST is rarely unique: which tree comes back is the
#: kernel's tie rule, held to the dense Kruskal under the same order.
lattice_points = st.lists(
    st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    min_size=2,
    max_size=40,
    unique=True,
)


def weighted_edges(edges):
    """Edge -> weight, orientation dropped: equal dicts mean the same tree
    with bit-equal weights."""
    return {(min(i, j), max(i, j)): w for i, j, w in edges}


class TestMstEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(points=lattice_points)
    def test_edge_sets_match_reference(self, points):
        pts = np.asarray(points, dtype=float)
        fast = euclidean_mst(pts)
        ref = euclidean_mst_kruskal_reference(pts)
        assert weighted_edges(fast) == weighted_edges(ref)


@st.composite
def clouds(draw):
    """Point clouds the kd-tree Borůvka finds hard or degenerate, in 1-3
    dimensions, with n on both sides of the leaf size."""
    kind = draw(
        st.sampled_from(
            ["uniform", "blobs", "lattice", "duplicates", "coincident", "collinear"]
        )
    )
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, 6 * mst.LEAF_SIZE))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "blobs":
        # gaps far wider than any blob: no point's near neighbours cross one
        centres = rng.uniform(-1e4, 1e4, (int(rng.integers(2, 6)), dim))
        return centres[rng.integers(0, len(centres), n)] + rng.normal(0.0, 1.0, (n, dim))
    if kind == "lattice":  # ties everywhere, and boxes whose bound is exact
        return rng.integers(-4, 5, (n, dim)).astype(float)
    if kind == "duplicates":
        base = rng.uniform(-50.0, 50.0, (max(1, n // 3), dim))
        return base[rng.integers(0, len(base), n)]
    if kind == "coincident":
        return np.tile(rng.uniform(-5.0, 5.0, dim), (n, 1))
    if kind == "collinear":
        return np.outer(rng.uniform(-100.0, 100.0, n), rng.normal(size=dim))
    return rng.uniform(-100.0, 100.0, (n, dim))


def all_distinct(pts):
    i, j = np.triu_indices(len(pts), 1)
    delta = pts[j] - pts[i]
    d2 = np.einsum("ij,ij->i", delta, delta)
    return np.unique(d2).size == d2.size


class TestBoruvkaKernel:
    """The kd-tree Borůvka against both oracles: the tie rule's Kruskal
    always, edge for edge; the Prim edge for edge wherever the MST is unique
    (all pairwise distances distinct) and, since every MST of a graph has
    the same multiset of weights, weight for weight everywhere."""

    @settings(max_examples=150, deadline=None)
    @given(pts=clouds())
    def test_matches_the_oracles(self, pts):
        fast = euclidean_mst(pts)
        assert len(fast) == len(pts) - 1
        assert all(i < j for i, j, _ in fast)
        assert weighted_edges(fast) == weighted_edges(euclidean_mst_kruskal_reference(pts))
        prim = euclidean_mst_reference(pts)
        assert sorted(w for _, _, w in fast) == sorted(w for _, _, w in prim)
        if all_distinct(pts):
            assert weighted_edges(fast) == weighted_edges(prim)

    def test_blobs_at_n_3000_match_prim(self, monkeypatch):
        """Four blobs of 750 at the corners of a square: the tree's first
        two splits separate them, so once a blob is one component every
        leaf it touches is its own, its bound comes from an O(n) row, and
        the bridges found under that bound are still the Prim's to the
        bit."""
        rows = []

        def recording(pts, comp, lonely, count):
            rows.append(lonely.size)
            return row_bounds(pts, comp, lonely, count)

        row_bounds = mst._row_bounds
        monkeypatch.setattr(mst, "_row_bounds", recording)
        rng = np.random.default_rng(2)
        centres = np.array([[0.0, 0.0], [1e4, 0.0], [0.0, 1.1e4], [1e4, 1.1e4]])
        pts = np.repeat(centres, 750, axis=0) + rng.normal(0.0, 30.0, (3000, 2))
        pts = pts[rng.permutation(3000)]
        fast = euclidean_mst(pts)
        assert weighted_edges(fast) == weighted_edges(euclidean_mst_reference(pts))
        assert sum(rows) > 0


class TestClusterPartitionEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(points=lattice_points)
    def test_partitions_match_reference_mst(self, points):
        space = CoordinateSpace(
            {i: tuple(map(float, p)) for i, p in enumerate(points)}
        )
        config = ClusteringConfig(factor=2.0, min_cluster_size=1)
        fast = cluster_nodes(space, config=config)
        ref = cluster_nodes_reference(
            space, config=config, mst=euclidean_mst_kruskal_reference
        )
        assert fast.clusters == ref.clusters
        assert fast.labels == ref.labels


class TestSmallClusterMerge:
    """One distance launch per merge == one ``np.linalg.norm`` per centroid:
    same victims, same nearest cluster, first of equals on ties."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        dim=st.integers(1, 3),
        lattice=st.booleans(),
        min_size=st.integers(2, 5),
    )
    def test_matches_the_per_centroid_loop(self, seed, n, dim, lattice, min_size):
        rng = np.random.default_rng(seed)
        if lattice:  # integer centroids: equal distances everywhere
            points = rng.integers(-3, 4, (n, dim)).astype(float)
        else:
            points = rng.uniform(-100.0, 100.0, (n, dim))
        labels = rng.integers(0, int(rng.integers(1, n + 1)), n)
        clusters = [np.flatnonzero(labels == c).tolist() for c in np.unique(labels)]
        clusters.sort(key=lambda c: c[0])
        fast = mstcluster._merge_small_clusters(points, clusters, min_size)
        assert fast == merge_small_clusters_reference(points, clusters, min_size)

    def test_a_tie_goes_to_the_first_cluster(self):
        points = np.array([[-1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        clusters = [[0], [1], [2, 3]]
        # cluster 1 sits exactly between clusters 0 and 2; the singleton
        # cluster 0 goes first and joins 1, whose centroid then moves
        fast = mstcluster._merge_small_clusters(points, clusters, 2)
        assert fast == merge_small_clusters_reference(points, clusters, 2)
        assert fast == [[0, 1], [2, 3]]


class TestBorderEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        points=st.lists(
            st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
            min_size=4,
            max_size=36,
            unique=True,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_minima_match_per_pair_scan(self, points, seed):
        space = CoordinateSpace(
            {i: tuple(map(float, p)) for i, p in enumerate(points)}
        )
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, min(5, len(points)) + 1))
        labels = np.asarray(
            [i % k for i in range(len(points))], dtype=int
        )
        rng.shuffle(labels)
        clusters = [sorted(np.flatnonzero(labels == c).tolist()) for c in range(k)]
        clusters = [c for c in clusters if c]
        from repro.cluster.mstcluster import Clustering

        clustering = Clustering(
            clusters=clusters,
            labels={n: cid for cid, ms in enumerate(clusters) for n in ms},
        )
        fast = select_borders_closest(space, clustering)
        ref = select_borders_closest_reference(space, clustering)
        assert fast == ref


class TestMeasureManyEquivalence:
    @pytest.mark.parametrize("noise", [0.0, 0.10])
    def test_same_noise_stream_as_sequential_measure(self, noise):
        topo = transit_stub(120, seed=5)
        net_a = PhysicalNetwork(topo, noise=noise, seed=9)
        net_b = PhysicalNetwork(topo, noise=noise, seed=9)
        nodes = physical_graph(topo).nodes()
        sources, targets = nodes[:15], nodes[20:25]
        loop = np.array(
            [[net_a.measure(s, t, probes=3) for t in targets] for s in sources]
        )
        batch = net_b.measure_many(sources, targets, probes=3)
        # True delays may differ by reversed-summation ulps; the noise
        # multipliers come from the identical RNG stream.
        assert np.allclose(loop, batch, rtol=1e-12, atol=0.0)

    def test_probes_validated(self):
        topo = transit_stub(120, seed=5)
        net = PhysicalNetwork(topo, seed=1)
        with pytest.raises(ValueError):
            net.measure_many([0], [1], probes=0)


@pytest.mark.parametrize("seed", [1, 7, 42])
class TestPipelineEquivalence:
    """End-to-end: identical clusters and border pairs on both paths."""

    def test_identical_clusters_and_borders(self, seed):
        topo = transit_stub(150, seed=seed)
        net = PhysicalNetwork(topo, noise=0.10, seed=seed)
        proxies = net.pick_overlay_nodes(80, seed=seed)
        space_v, report_v = build_coordinate_space(net, proxies, seed=seed)
        cl_v = cluster_nodes(space_v, proxies)
        # fresh network: empty delay cache, virgin noise stream
        ref = construct_reference(
            PhysicalNetwork(topo, noise=0.10, seed=seed), proxies, seed=seed
        )

        assert cl_v.clusters == ref.clustering.clusters
        assert cl_v.labels == ref.clustering.labels
        assert report_v.landmark_ids == ref.report.landmark_ids
        assert report_v.measurement_count == ref.report.measurement_count
        assert np.array_equal(
            report_v.landmark_coordinates, ref.report.landmark_coordinates
        )
        # Coordinates agree to measurement-direction tolerance...
        assert np.allclose(
            space_v.array(proxies), ref.space.array(proxies), atol=1e-3
        )
        # ...and the selected borders are identical.
        assert select_borders_closest(space_v, cl_v) == ref.borders


class TestFrameworkModes:
    def test_framework_vectorized_flag_same_topology(self):
        """The facade builds the topology the reference loops build."""
        from repro.core import HFCFramework
        from repro.util.rng import ensure_rng, spawn

        fast = HFCFramework.build(proxy_count=60, seed=11)
        # replay the build's seed streams over a fresh noise oracle
        rng = ensure_rng(11)
        spawn(rng, "topology")
        physical = PhysicalNetwork(
            fast.physical.topology,
            noise=fast.config.measurement_noise,
            seed=spawn(rng, "noise"),
        )
        proxies = physical.pick_overlay_nodes(60, seed=spawn(rng, "proxies"))
        assert proxies == fast.overlay.proxies
        slow = construct_reference(
            physical,
            proxies,
            seed=spawn(rng, "embedding"),
            clustering_config=fast.config.clustering,
        )
        assert fast.clustering.clusters == slow.clustering.clusters
        assert fast.hfc.borders == slow.borders

    def test_construction_spans_recorded(self):
        from repro.core import HFCFramework
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        HFCFramework.build(proxy_count=150, seed=3, telemetry=telemetry)
        roots = telemetry.tracer.snapshot(limit=10)
        names = {root["name"] for root in roots}
        assert "construct" in names
        construct = next(r for r in roots if r["name"] == "construct")
        children = {c["name"]: c for c in construct["children"]}
        assert {
            "construct.topology",
            "construct.embedding",
            "construct.clustering",
            "construct.borders",
        } <= set(children)
        # the embedding's own children account for (nearly) all of it
        embedding = children["construct.embedding"]
        phases = {c["name"]: c["duration"] for c in embedding["children"]}
        assert set(phases) == {
            "construct.embedding.choose_landmarks",
            "construct.embedding.measure_landmarks",
            "construct.embedding.landmarks",
            "construct.embedding.measure_hosts",
            "construct.embedding.locate",
        }
        assert sum(phases.values()) >= 0.9 * embedding["duration"]
        topology = children["construct.topology"]
        assert [c["name"] for c in topology["children"]] == [
            "construct.topology.wire",
            "construct.topology.index",
        ]
        # one shortest-path row per landmark, each a few relaxation rounds
        # (the hop diameter), counted in the scope the build was given
        assert telemetry.registry.total("physical.rows") == 10
        rounds = telemetry.registry.get("physical.relax_rounds")
        assert rounds.count == 10 and 2 <= rounds.min <= rounds.max <= 40
        counters = telemetry.registry.snapshot()["counters"]
        assert any(
            entry["name"] == "construct.measurements" and entry["value"] > 0
            for entry in counters
        )


    def test_clustering_span_reports_the_tree_and_the_merges(self):
        """``construct.clustering`` carries what the build's clustering
        cost: Borůvka rounds, squared distances evaluated and small clusters
        merged away. Seeded, so the counts repeat exactly."""
        from dataclasses import replace

        from repro.core import HFCFramework
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        framework = HFCFramework.build(proxy_count=150, seed=11, telemetry=telemetry)
        (span,) = (
            span
            for root in telemetry.tracer.roots
            for span in root.walk()
            if span.name == "construct.clustering"
        )
        assert span.attributes == framework.clustering.stats == {
            "mst_rounds": 4, "mst_pairs": 5316, "merged": 2,
        }
        unmerged = cluster_nodes(
            framework.space,
            framework.overlay.proxies,
            replace(framework.config.clustering, min_cluster_size=1),
        )
        assert unmerged.cluster_count - framework.clustering.cluster_count == 2

    def test_landmark_solve_reports_how_it_ended(self, small_topology):
        """The ``construct.embedding.landmarks`` span says what the solve
        cost and whether it finished: the kept start's iterations and
        convergence, and how many starts ran into the 3,000 cap. Seeded, so
        the counts repeat exactly. At the paper's 10 landmarks neither start
        of the 20-variable descent meets its tolerances inside the cap; a
        smaller landmark set does."""
        from repro.core import HFCFramework
        from repro.telemetry import Telemetry

        def solve_attributes(telemetry):
            (span,) = (
                span
                for root in telemetry.tracer.roots
                for span in root.walk()
                if span.name == "construct.embedding.landmarks"
            )
            return span.attributes

        telemetry = Telemetry()
        HFCFramework.build(proxy_count=150, seed=11, telemetry=telemetry)
        assert solve_attributes(telemetry) == {
            "dimension": 2, "iterations": 3000, "converged": False, "capped_starts": 2,
        }

        telemetry = Telemetry()
        physical = PhysicalNetwork(small_topology, noise=0.1, seed=102)
        build_coordinate_space(
            physical,
            physical.pick_overlay_nodes(20, seed=1),
            landmark_count=6,
            dimension=3,
            seed=5,
            telemetry=telemetry,
        )
        assert solve_attributes(telemetry) == {
            "dimension": 3, "iterations": 2154, "converged": True, "capped_starts": 1,
        }

    def test_locate_reports_the_hosts_descents(self):
        """The ``construct.embedding.locate`` span carries the hosts' kept
        descents: the longest, their sum and how many the 800 cap cut off.
        Seeded, so the counts repeat exactly."""
        from repro.core import HFCFramework
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        HFCFramework.build(proxy_count=150, seed=11, telemetry=telemetry)
        (span,) = (
            span
            for root in telemetry.tracer.roots
            for span in root.walk()
            if span.name == "construct.embedding.locate"
        )
        assert span.attributes == {
            "hosts": 142, "iterations": 108, "problem_iterations": 8427, "capped": 0,
        }


#: sha256 of what a build produces, captured at the commit before the
#: Section-3 kernels went by axis (PR 17): drift fails here in seconds, not
#: only in the end-to-end digest at n=2000
CONSTRUCTION_DIGEST_FIXTURE = os.path.join(
    os.path.dirname(__file__), "fixtures", "construction_digest.json"
)
CONSTRUCTION_DIGEST_CASES = [(150, 2), (400, 2), (150, 3)]


def _construction_digest(n, dimension):
    from repro.core import FrameworkConfig, HFCFramework

    framework = HFCFramework.build(
        proxy_count=n, config=FrameworkConfig(dimension=dimension), seed=11
    )
    columnar = framework.columnar
    parts = {
        "coordinates": columnar.coords,
        "labels": columnar.labels,
        "border_matrix": columnar.border_matrix,
        "landmark_coordinates": framework.embedding_report.landmark_coordinates,
    }
    return {
        name: hashlib.sha256(arr.tobytes()).hexdigest()
        for name, arr in parts.items()
    }


def write_construction_digest_fixture():
    """Regenerate the fixture — only when a build is *meant* to change:
    ``python -c "import tests.test_construction_equivalence as t;
    t.write_construction_digest_fixture()"``."""
    with open(CONSTRUCTION_DIGEST_FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(
            {
                f"n={n},dim={dim}": _construction_digest(n, dim)
                for n, dim in CONSTRUCTION_DIGEST_CASES
            },
            handle,
            indent=1,
        )
        handle.write("\n")


class TestConstructionDigest:
    @pytest.mark.parametrize("n,dimension", CONSTRUCTION_DIGEST_CASES)
    def test_build_matches_the_recorded_digest(self, n, dimension):
        with open(CONSTRUCTION_DIGEST_FIXTURE, encoding="utf-8") as handle:
            expected = json.load(handle)[f"n={n},dim={dimension}"]
        assert _construction_digest(n, dimension) == expected
