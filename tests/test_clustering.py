"""Tests for Zahn MST clustering, quality metrics, and the k-center baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    Clustering,
    ClusteringConfig,
    cluster_nodes,
    inter_cluster_mean_distance,
    intra_cluster_mean_distance,
    kcenter_cluster,
    separation_ratio,
    silhouette_mean,
    size_statistics,
)
from repro.coords import CoordinateSpace
from repro.util.errors import ClusteringError


def blobs(centers, per_blob=6, spread=1.0, seed=0, extra=None):
    """Well-separated Gaussian blobs (plus the *extra* points) as a CoordinateSpace."""
    rng = np.random.default_rng(seed)
    coords = {}
    for b, (cx, cy) in enumerate(centers):
        for i in range(per_blob):
            coords[f"b{b}n{i}"] = (
                cx + rng.normal(0, spread),
                cy + rng.normal(0, spread),
            )
    coords.update(extra or {})
    return CoordinateSpace(coords)


class TestConfigValidation:
    def test_factor_must_exceed_one(self):
        with pytest.raises(ClusteringError):
            ClusteringConfig(factor=1.0)

    def test_depth_validation(self):
        with pytest.raises(ClusteringError):
            ClusteringConfig(depth=0)
        ClusteringConfig(depth=None)  # whole-subtree mode is valid

    def test_combine_validation(self):
        with pytest.raises(ClusteringError):
            ClusteringConfig(combine="median")

    def test_max_clusters_validation(self):
        with pytest.raises(ClusteringError):
            ClusteringConfig(max_clusters=0)


class TestClusterDetection:
    def test_separated_blobs_found(self):
        space = blobs([(0, 0), (100, 0), (0, 100)], per_blob=8)
        clustering = cluster_nodes(space)
        assert clustering.cluster_count == 3
        # each cluster contains exactly one blob
        for members in clustering.clusters:
            prefixes = {m[:2] for m in members}
            assert len(prefixes) == 1

    def test_single_blob_stays_whole(self):
        space = blobs([(0, 0)], per_blob=12)
        clustering = cluster_nodes(space)
        assert clustering.cluster_count == 1

    def test_partition_covers_all_nodes(self):
        space = blobs([(0, 0), (50, 50)], per_blob=7)
        clustering = cluster_nodes(space)
        all_members = [m for c in clustering.clusters for m in c]
        assert sorted(all_members) == sorted(space.nodes())
        assert len(all_members) == len(set(all_members))

    def test_labels_consistent_with_clusters(self):
        space = blobs([(0, 0), (50, 50)])
        clustering = cluster_nodes(space)
        for cid, members in enumerate(clustering.clusters):
            for m in members:
                assert clustering.cluster_of(m) == cid

    def test_single_node(self):
        space = CoordinateSpace({"only": (1.0, 2.0)})
        clustering = cluster_nodes(space)
        assert clustering.cluster_count == 1
        assert clustering.clusters == [["only"]]

    def test_empty_rejected(self):
        space = CoordinateSpace({"a": (0, 0)})
        with pytest.raises(ClusteringError):
            cluster_nodes(space, nodes=[])

    def test_duplicate_node_rejected_before_any_work(self, monkeypatch):
        """A node listed twice would come back twice in one cluster."""
        from repro.cluster import mstcluster

        def no_tree(points):
            raise AssertionError("the tree was built")

        monkeypatch.setattr(mstcluster, "euclidean_mst", no_tree)
        space = CoordinateSpace({i: (float(i), 0.0) for i in range(4)})
        with pytest.raises(ClusteringError, match="node 1 is listed more than once"):
            cluster_nodes(space, [0, 1, 1, 2, 3])

    def test_higher_factor_fewer_clusters(self):
        space = blobs([(0, 0), (30, 0), (60, 0), (90, 0)], per_blob=5, spread=2.0)
        low = cluster_nodes(space, config=ClusteringConfig(factor=1.5, min_cluster_size=1))
        high = cluster_nodes(space, config=ClusteringConfig(factor=6.0, min_cluster_size=1))
        assert high.cluster_count <= low.cluster_count

    def test_max_clusters_cap(self):
        space = blobs([(0, 0), (100, 0), (0, 100), (100, 100)], per_blob=5)
        capped = cluster_nodes(
            space, config=ClusteringConfig(max_clusters=2, min_cluster_size=1)
        )
        assert capped.cluster_count <= 2

    def test_min_cluster_size_merges_singletons(self):
        # two tight blobs plus one distant outlier
        space = blobs([(0, 0), (100, 100)], per_blob=6, extra={"outlier": (500.0, 500.0)})
        clustering = cluster_nodes(space, config=ClusteringConfig(min_cluster_size=2))
        assert all(len(c) >= 2 for c in clustering.clusters)

    def test_min_cluster_size_disabled_keeps_singleton(self):
        space = blobs([(0, 0), (100, 100)], per_blob=6, extra={"outlier": (500.0, 500.0)})
        clustering = cluster_nodes(space, config=ClusteringConfig(min_cluster_size=1))
        assert any(len(c) == 1 for c in clustering.clusters)

    def test_removed_edges_recorded(self):
        space = blobs([(0, 0), (100, 0)], per_blob=6)
        clustering = cluster_nodes(space)
        assert len(clustering.removed_edges) >= 1
        for u, v, length, ratio in clustering.removed_edges:
            assert ratio > 2.0  # default factor
            assert length > 0

    def test_subset_of_nodes(self):
        space = blobs([(0, 0), (100, 0)], per_blob=6)
        subset = space.nodes()[:8]
        clustering = cluster_nodes(space, nodes=subset)
        assert sorted(m for c in clustering.clusters for m in c) == sorted(subset)

    def test_coincident_points(self):
        space = CoordinateSpace({f"p{i}": (1.0, 1.0) for i in range(5)})
        clustering = cluster_nodes(space)
        assert clustering.cluster_count == 1


class TestClusteringObject:
    def test_sizes(self):
        clustering = Clustering(
            clusters=[["a", "b"], ["c"]], labels={"a": 0, "b": 0, "c": 1}
        )
        assert clustering.sizes() == [2, 1]

    def test_same_cluster(self):
        clustering = Clustering(
            clusters=[["a", "b"], ["c"]], labels={"a": 0, "b": 0, "c": 1}
        )
        assert clustering.same_cluster("a", "b")
        assert not clustering.same_cluster("a", "c")

    def test_unknown_node_raises(self):
        clustering = Clustering(clusters=[["a"]], labels={"a": 0})
        with pytest.raises(ClusteringError):
            clustering.cluster_of("zzz")

    def test_bad_cluster_id_raises(self):
        clustering = Clustering(clusters=[["a"]], labels={"a": 0})
        with pytest.raises(ClusteringError):
            clustering.members(3)


class TestQualityMetrics:
    @pytest.fixture
    def clustered_blobs(self):
        space = blobs([(0, 0), (200, 0), (0, 200)], per_blob=8)
        return space, cluster_nodes(space)

    def test_separation_is_large_for_blobs(self, clustered_blobs):
        space, clustering = clustered_blobs
        assert separation_ratio(space, clustering) > 10

    def test_intra_lt_inter(self, clustered_blobs):
        space, clustering = clustered_blobs
        assert intra_cluster_mean_distance(space, clustering) < inter_cluster_mean_distance(
            space, clustering
        )

    def test_silhouette_near_one_for_blobs(self, clustered_blobs):
        space, clustering = clustered_blobs
        assert silhouette_mean(space, clustering) > 0.8

    def test_silhouette_requires_two_clusters(self):
        space = blobs([(0, 0)])
        clustering = cluster_nodes(space)
        with pytest.raises(ClusteringError):
            silhouette_mean(space, clustering)

    def test_size_statistics(self, clustered_blobs):
        _, clustering = clustered_blobs
        stats = size_statistics(clustering)
        assert stats["count"] == 3
        assert stats["min"] == stats["max"] == 8
        assert stats["largest_fraction"] == pytest.approx(8 / 24)

    def test_inter_requires_two_clusters(self):
        space = blobs([(0, 0)])
        clustering = cluster_nodes(space)
        with pytest.raises(ClusteringError):
            inter_cluster_mean_distance(space, clustering)


class TestKCenter:
    def test_k_clusters_returned(self):
        space = blobs([(0, 0), (100, 0), (0, 100)], per_blob=6)
        clustering = kcenter_cluster(space, 3, seed=1)
        assert clustering.cluster_count == 3

    def test_partition_complete(self):
        space = blobs([(0, 0), (100, 0)], per_blob=6)
        clustering = kcenter_cluster(space, 2, seed=1)
        assert sorted(m for c in clustering.clusters for m in c) == sorted(space.nodes())

    def test_k_larger_than_n_clamped(self):
        space = CoordinateSpace({"a": (0, 0), "b": (1, 1)})
        clustering = kcenter_cluster(space, 10, seed=1)
        assert clustering.cluster_count <= 2

    def test_invalid_k(self):
        space = CoordinateSpace({"a": (0, 0)})
        with pytest.raises(ClusteringError):
            kcenter_cluster(space, 0)

    def test_blob_purity(self):
        space = blobs([(0, 0), (500, 0), (0, 500)], per_blob=6)
        clustering = kcenter_cluster(space, 3, seed=1)
        for members in clustering.clusters:
            assert len({m[:2] for m in members}) == 1


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-1000, 1000), st.floats(-1000, 1000)),
        min_size=2,
        max_size=30,
        unique=True,
    ),
    st.floats(1.5, 5.0),
)
def test_clustering_is_always_a_partition(points, factor):
    """Property: any input yields a complete, disjoint partition."""
    space = CoordinateSpace({f"p{i}": p for i, p in enumerate(points)})
    clustering = cluster_nodes(
        space, config=ClusteringConfig(factor=factor, min_cluster_size=1)
    )
    flattened = [m for c in clustering.clusters for m in c]
    assert sorted(flattened) == sorted(space.nodes())
    assert len(flattened) == len(set(flattened))
    for node in space.nodes():
        assert node in clustering.clusters[clustering.cluster_of(node)]
