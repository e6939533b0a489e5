"""Tests for the landmark coordinate embedding (Section 3.1)."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coords import (
    build_coordinate_space,
    choose_landmarks,
    classical_mds,
    embed_landmarks,
    embedding_accuracy,
    locate_host,
    locate_hosts,
)
from repro.util.errors import EmbeddingError


def pairwise(points):
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


class TestClassicalMds:
    def test_recovers_euclidean_configuration(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [4.0, 3.0], [2.0, 1.0]])
        d = pairwise(pts)
        recovered = classical_mds(d, 2)
        assert np.allclose(pairwise(recovered), d, atol=1e-8)

    def test_rejects_non_square(self):
        with pytest.raises(EmbeddingError):
            classical_mds(np.zeros((2, 3)), 2)

    def test_rejects_bad_dim(self):
        with pytest.raises(EmbeddingError):
            classical_mds(np.zeros((3, 3)), 0)
        with pytest.raises(EmbeddingError):
            classical_mds(np.zeros((3, 3)), 4)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(-50, 50), st.floats(-50, 50)),
            min_size=3,
            max_size=10,
            unique=True,
        )
    )
    def test_exact_on_euclidean_inputs(self, points):
        """Property: MDS is exact when the matrix really is 2-D Euclidean."""
        d = pairwise(points)
        recovered = classical_mds(d, 2)
        assert np.allclose(pairwise(recovered), d, atol=1e-6)


class TestEmbedLandmarks:
    def test_zero_error_on_euclidean_input(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [7.0, 7.0]])
        d = pairwise(pts)
        coords = embed_landmarks(d, 2, seed=1)
        assert np.allclose(pairwise(coords), d, atol=1e-3)

    def test_too_few_landmarks_rejected(self):
        with pytest.raises(EmbeddingError):
            embed_landmarks(np.zeros((2, 2)), 2)

    def test_refinement_not_worse_than_mds(self):
        """NM refinement must not degrade the MDS seed's relative error."""
        rng = np.random.default_rng(5)
        pts = rng.uniform(0, 100, size=(8, 2))
        noisy = pairwise(pts) * rng.uniform(1.0, 1.3, size=(8, 8))
        noisy = (noisy + noisy.T) / 2
        np.fill_diagonal(noisy, 0.0)

        def rel_err(coords):
            iu = np.triu_indices(8, k=1)
            est = pairwise(coords)[iu]
            meas = noisy[iu]
            return float(np.sum(((est - meas) / meas) ** 2))

        seed_coords = classical_mds(noisy, 2)
        refined = embed_landmarks(noisy, 2, seed=1)
        assert rel_err(refined) <= rel_err(seed_coords) + 1e-9


class TestLocateHost:
    def test_recovers_position_in_plane(self):
        landmarks = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        host = np.array([3.0, 4.0])
        measured = np.linalg.norm(landmarks - host, axis=1)
        estimate = locate_host(landmarks, measured)
        assert estimate == pytest.approx(host, abs=1e-3)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(EmbeddingError):
            locate_host(np.zeros((3, 2)), [1.0, 2.0])

    def test_robust_to_mild_noise(self):
        landmarks = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        host = np.array([6.0, 2.0])
        measured = np.linalg.norm(landmarks - host, axis=1) * 1.05
        estimate = locate_host(landmarks, measured)
        assert np.linalg.norm(estimate - host) < 1.5

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_measurement_rejected_before_descending(self, bad):
        """A NaN used to burn both starts' iteration caps under a stream of
        RuntimeWarnings and return [nan nan]; an inf used to return the
        weighted-centroid start as if it had located the host."""
        landmarks = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EmbeddingError, match="landmark 2"):
                locate_host(landmarks, [5.0, 6.0, bad, 7.0])
            with pytest.raises(EmbeddingError, match="landmark 1 in host row 3"):
                measured = np.full((5, 4), 6.0)
                measured[3, 1] = bad
                locate_hosts(landmarks, measured)

    def test_wrong_rank_rejected_like_the_batch(self):
        """1-D landmarks used to die with numpy's AxisError."""
        for landmarks, measured in (
            (np.zeros(3), [1.0, 2.0, 3.0]),
            (np.zeros((3, 2)), [[1.0, 2.0, 3.0]]),
            (np.zeros((3, 2)), 1.0),
        ):
            with pytest.raises(EmbeddingError, match=r"expected \(m, k\) landmarks"):
                locate_host(landmarks, measured)

    def test_zero_measurement_is_legal(self):
        """A proxy on a landmark's router measures zero delay to it."""
        landmarks = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0], [10.0, 10.0]])
        measured = np.linalg.norm(landmarks - landmarks[1], axis=1)
        assert measured[1] == 0.0
        estimate = locate_host(landmarks, measured)
        assert estimate == pytest.approx(landmarks[1], abs=1e-3)


class TestChooseLandmarks:
    def test_count_and_uniqueness(self, small_physical):
        landmarks = choose_landmarks(small_physical, 10, seed=1)
        assert len(landmarks) == 10
        assert len(set(landmarks)) == 10

    def test_too_many_rejected(self, small_physical):
        with pytest.raises(EmbeddingError):
            choose_landmarks(small_physical, 10**6)

    def test_spread_beats_random_prefix(self, small_physical):
        """Greedy k-center landmarks should be far apart on average."""
        landmarks = choose_landmarks(small_physical, 8, seed=1)
        dists = [
            small_physical.delay(a, b)
            for i, a in enumerate(landmarks)
            for b in landmarks[i + 1 :]
        ]
        # no two landmarks coincide
        assert min(dists) > 0


class TestBuildCoordinateSpace:
    def test_covers_all_hosts(self, small_physical):
        hosts = small_physical.pick_overlay_nodes(40, seed=3)
        space, report = build_coordinate_space(small_physical, hosts, seed=4)
        assert set(space.nodes()) == set(hosts)
        assert space.dimension == 2
        assert report.dimension == 2

    def test_measurement_count_is_subquadratic(self, small_physical):
        hosts = small_physical.pick_overlay_nodes(40, seed=3)
        _, report = build_coordinate_space(
            small_physical, hosts, landmark_count=10, probes=3, seed=4
        )
        m, n, probes = 10, 40, 3
        assert report.measurement_count <= probes * (m * (m - 1) // 2 + n * m)
        # far fewer than the O(n^2) direct approach
        assert report.measurement_count < n * (n - 1) // 2 * probes * 2

    def test_landmark_coordinates_recorded(self, small_physical):
        hosts = small_physical.pick_overlay_nodes(20, seed=3)
        _, report = build_coordinate_space(small_physical, hosts, seed=4)
        assert report.landmark_coordinates.shape == (len(report.landmark_ids), 2)

    def test_accuracy_reasonable(self, small_physical):
        """Median relative error must beat a 50% sanity bar on TS topologies."""
        hosts = small_physical.pick_overlay_nodes(40, seed=3)
        space, _ = build_coordinate_space(small_physical, hosts, seed=4)
        acc = embedding_accuracy(space, small_physical, hosts, sample_pairs=200, seed=5)
        assert acc["median"] < 0.5

    def test_higher_dimension_fits_landmarks_better(self, small_physical):
        hosts = small_physical.pick_overlay_nodes(15, seed=3)
        _, rep2 = build_coordinate_space(small_physical, hosts, dimension=2, seed=4)
        _, rep5 = build_coordinate_space(small_physical, hosts, dimension=5, seed=4)
        assert rep5.landmark_fit_error <= rep2.landmark_fit_error

    def test_explicit_landmarks_respected(self, small_physical):
        hosts = small_physical.pick_overlay_nodes(15, seed=3)
        landmarks = small_physical.graph.nodes()[:6]
        _, report = build_coordinate_space(
            small_physical, hosts, landmarks=landmarks, seed=4
        )
        assert report.landmark_ids == list(landmarks)


class TestEmbeddingAccuracy:
    def test_requires_two_nodes(self, small_physical):
        hosts = small_physical.pick_overlay_nodes(5, seed=3)
        space, _ = build_coordinate_space(small_physical, hosts, seed=4)
        with pytest.raises(EmbeddingError):
            embedding_accuracy(space, small_physical, hosts[:1])

    def test_stat_keys(self, small_physical):
        hosts = small_physical.pick_overlay_nodes(20, seed=3)
        space, _ = build_coordinate_space(small_physical, hosts, seed=4)
        acc = embedding_accuracy(space, small_physical, hosts, sample_pairs=50, seed=6)
        assert set(acc) == {"mean", "median", "p90", "max", "pairs"}
        assert acc["median"] <= acc["p90"] <= acc["max"]
