"""Equivalence suite: the construction kernels == their reference oracles.

The Section-3 construction pipeline (batched Nelder-Mead embedding,
squared-distance argmin Prim, blocked border-pair minima) claims the same
MST edge sets, same cluster partitions and same border pairs as the
original per-host/per-pair loops, which live on as test oracles in
``tests/oracles/construction.py``. These tests pin that claim:

* solver-level, bit-exact: the batched Nelder-Mead replays the scalar
  algorithm's decisions, so on identical inputs the results are identical
  to the last bit (hypothesis-driven);
* kernel-level: MST edge sets, cluster partitions and border selections
  agree between the fast and reference implementations across random
  topologies (hypothesis-driven, integer coordinates so distance ties are
  exact in both squared and rooted form);
* pipeline-level: end-to-end construction over real transit-stub networks
  produces identical clusters and identical border pairs on both paths
  (fixed seeds; the production path measures true delays from the landmark
  side, which shifts floats by summation order, so coordinates agree to
  tolerance rather than bitwise while the topology stays identical).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.mstcluster import ClusteringConfig, cluster_nodes
from repro.coords.embedding import (
    build_coordinate_space,
    embed_landmarks,
    locate_host,
    locate_hosts,
)
from repro.coords.neldermead import (
    minimize_with_restarts,
    minimize_with_restarts_batch,
    nelder_mead,
    nelder_mead_batch,
)
from repro.coords.space import CoordinateSpace
from repro.graph.mst import euclidean_mst
from repro.netsim import PhysicalNetwork, transit_stub
from repro.overlay.hfc import select_borders_closest
from tests.oracles.construction import (
    cluster_nodes_reference,
    construct_reference,
    embed_landmarks_reference,
    euclidean_mst_reference,
    select_borders_closest_reference,
)


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
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 8))
    def test_restarts_bit_identical(self, seed, batch):
        rng = np.random.default_rng(seed)
        m, dim, n_starts = 5, 2, 3
        landmarks = rng.uniform(0.0, 50.0, (m, dim))
        measured = rng.uniform(0.5, 80.0, (batch, m))
        scalar, batched = gnp_objectives(landmarks, measured)
        starts = rng.uniform(0.0, 50.0, (batch, n_starts, dim))

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
            assert np.array_equal(ref.x, result.x[i])
            assert ref.fun == result.fun[i]

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

    def test_empty_batch(self):
        out = locate_hosts(np.zeros((4, 2)), np.zeros((0, 4)))
        assert out.shape == (0, 2)

    def test_shape_mismatch_rejected(self):
        from repro.util.errors import EmbeddingError

        with pytest.raises(EmbeddingError):
            locate_hosts(np.zeros((4, 2)), np.zeros((3, 5)))


#: integer lattice points — squared distances are exact floats, so the
#: squared-distance Prim and the rooted reference rank candidates identically
#: even at exact ties.
lattice_points = st.lists(
    st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    min_size=2,
    max_size=40,
    unique=True,
)


def canonical_edges(edges):
    return {(min(i, j), max(i, j)) for i, j, _ in edges}


class TestMstEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(points=lattice_points)
    def test_edge_sets_match_reference(self, points):
        pts = np.asarray(points, dtype=float)
        fast = euclidean_mst(pts)
        ref = euclidean_mst_reference(pts)
        assert canonical_edges(fast) == canonical_edges(ref)
        assert np.allclose(
            sorted(w for _, _, w in fast), sorted(w for _, _, w in ref)
        )


class TestClusterPartitionEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(points=lattice_points)
    def test_partitions_match_reference_mst(self, points):
        space = CoordinateSpace(
            {i: tuple(map(float, p)) for i, p in enumerate(points)}
        )
        config = ClusteringConfig(factor=2.0, min_cluster_size=1)
        fast = cluster_nodes(space, config=config)
        ref = cluster_nodes_reference(space, config=config)
        assert fast.clusters == ref.clusters
        assert fast.labels == ref.labels


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
        nodes = topo.graph.nodes()
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
        HFCFramework.build(proxy_count=24, seed=3, telemetry=telemetry)
        roots = telemetry.tracer.snapshot(limit=10)
        names = {root["name"] for root in roots}
        assert "construct" in names
        construct = next(r for r in roots if r["name"] == "construct")
        child_names = {c["name"] for c in construct["children"]}
        assert {
            "construct.topology",
            "construct.embedding",
            "construct.clustering",
            "construct.borders",
        } <= child_names
        counters = telemetry.registry.snapshot()["counters"]
        assert any(
            entry["name"] == "construct.measurements" and entry["value"] > 0
            for entry in counters
        )
