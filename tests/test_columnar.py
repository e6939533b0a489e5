"""Tests for the columnar overlay state (struct-of-arrays snapshot)."""

import numpy as np
import pytest

from repro.overlay.hfc import HFCTopology
from repro.routing import HierarchicalRouter, validate_path
from repro.routing.batch import query_tables
from repro.state import ColumnarOverlayState
from repro.util.errors import StateError


@pytest.fixture(scope="module")
def state(framework):
    return framework.columnar


class TestShape:
    def test_build_attaches_state(self, framework, state):
        assert framework.hfc.columnar is state

    def test_dimensions(self, framework, state):
        assert state.size == len(framework.overlay.proxies)
        assert state.dimension == framework.space.dimension
        assert state.cluster_count == framework.clustering.cluster_count

    def test_validate_passes(self, state):
        state.validate()

    def test_validate_rejects_bad_labels(self, framework):
        broken = ColumnarOverlayState.from_framework(framework)
        broken.labels = broken.labels.copy()
        broken.labels[0] = broken.cluster_count + 5
        with pytest.raises(StateError):
            broken.validate()

    def test_validate_rejects_short_ptr(self, framework):
        broken = ColumnarOverlayState.from_framework(framework)
        broken.cluster_ptr = broken.cluster_ptr.copy()
        broken.cluster_ptr[-1] = broken.size - 1
        with pytest.raises(StateError):
            broken.validate()


class TestAccessors:
    def test_row_round_trip(self, framework, state):
        for proxy in framework.overlay.proxies:
            assert int(state.proxies[state.row_of(proxy)]) == proxy

    def test_unknown_proxy_rejected(self, state):
        with pytest.raises(StateError):
            state.row_of(-12345)

    def test_members_preserve_clustering_order(self, framework, state):
        for cid in range(state.cluster_count):
            assert state.members(cid) == list(framework.clustering.members(cid))

    def test_borders_dict_round_trip(self, framework, state):
        assert state.borders_dict() == framework.hfc.borders

    def test_placement_round_trip(self, framework, state):
        assert state.placement_dict() == framework.overlay.placement

    def test_cluster_block_matches_space(self, framework, state):
        for cid in range(state.cluster_count):
            block = state.cluster_block(cid)
            expected = framework.space.array(framework.clustering.members(cid))
            assert np.array_equal(block, expected)


class TestViews:
    def test_space_view_is_zero_copy(self, state):
        space = state.space_view()
        assert np.shares_memory(space._stacked, state.coords)

    def test_space_view_coordinates_exact(self, framework, state):
        space = state.space_view()
        for proxy in framework.overlay.proxies:
            assert space.coordinate(proxy) == framework.space.coordinate(proxy)

    def test_clustering_view_round_trip(self, framework, state):
        view = state.clustering_view()
        assert view.labels == framework.clustering.labels
        assert view.clusters == framework.clustering.clusters

    def test_hfc_view_routes_identically(self, framework, state):
        hfc = state.hfc_view(framework.physical)
        route_a, true_a = framework.hfc.routing_matrices()
        route_b, true_b = hfc.routing_matrices()
        assert np.array_equal(route_a, route_b)
        assert np.array_equal(true_a, true_b)

    def test_hfc_view_paths_validate(self, framework, state):
        hfc = state.hfc_view(framework.physical)
        router = HierarchicalRouter(hfc)
        for seed in range(6):
            request = framework.random_request(seed=seed)
            path = router.route(request)
            validate_path(path, request, hfc.overlay)


class TestQueryTables:
    def test_matches_object_graph_builder(self, framework, state):
        # A bare topology (no columnar attachment) exercises the fallback.
        bare = HFCTopology(
            overlay=framework.overlay,
            clustering=framework.clustering,
            space=framework.space,
            borders=framework.hfc.borders,
        )
        obj = query_tables(bare)
        col = state.query_tables()
        assert col.cluster_count == obj.cluster_count
        assert col.border_list == obj.border_list
        assert np.array_equal(col.border_row, obj.border_row)
        assert np.array_equal(col.ext, obj.ext)
        assert np.array_equal(col.d_border, obj.d_border)

    def test_delegation_shares_one_instance(self, framework, state):
        assert query_tables(framework.hfc) is state.query_tables()


class TestFromParts:
    def test_duplicate_proxies_rejected(self, framework):
        proxies = list(framework.overlay.proxies)
        proxies[1] = proxies[0]
        with pytest.raises(StateError):
            ColumnarOverlayState.from_parts(
                proxies=proxies,
                space=framework.space,
                clustering=framework.clustering,
                borders=framework.hfc.borders,
                placement=framework.overlay.placement,
            )

    def test_partial_proxy_list_rejected(self, framework):
        with pytest.raises(StateError):
            ColumnarOverlayState.from_parts(
                proxies=list(framework.overlay.proxies)[:-1],
                space=framework.space,
                clustering=framework.clustering,
                borders=framework.hfc.borders,
                placement=framework.overlay.placement,
            )

    def test_version_recorded(self, framework):
        from repro.core.versioning import OverlayVersion

        state = ColumnarOverlayState.from_parts(
            proxies=list(framework.overlay.proxies),
            space=framework.space,
            clustering=framework.clustering,
            borders=framework.hfc.borders,
            placement=framework.overlay.placement,
            version=OverlayVersion(epoch=3, step=17),
        )
        assert state.version.epoch == 3 and state.version.step == 17
