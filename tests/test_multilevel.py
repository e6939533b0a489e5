"""Structural, accounting and routing checks of the depth-3 recursive
hierarchy (the level the three-level prototype used to hardcode)."""

import numpy as np
import pytest

from repro.core import HFCFramework
from repro.hierarchy import RecursiveRouter, build_levels
from repro.routing import HierarchicalRouter, validate_path
from repro.services import aggregate_capability
from repro.state import coordinates_node_states
from repro.util.errors import TopologyError


@pytest.fixture(scope="module")
def multilevel(framework):
    return build_levels(framework.hfc, 3)


class TestConstruction:
    def test_every_cluster_assigned(self, framework, multilevel):
        clusters = range(framework.clustering.cluster_count)
        level = multilevel.levels[0]
        assert len(level.parent) == len(clusters)
        covered = sorted(
            cid
            for sid in range(multilevel.top_count)
            for cid in multilevel.base_clusters_of(sid)
        )
        assert covered == list(clusters)
        for sid in range(multilevel.top_count):
            for cid in level.members_of(sid):
                assert int(level.parent[cid]) == sid

    def test_super_of_proxy_consistent(self, framework, multilevel):
        for proxy in framework.overlay.proxies:
            sid = multilevel.group_of(proxy)
            assert proxy in multilevel.top_members(sid)

    def test_super_borders_inside_their_super(self, multilevel):
        for i in range(multilevel.top_count):
            for j in range(multilevel.top_count):
                if i != j:
                    assert multilevel.group_of(multilevel.top_border(i, j)) == i

    def test_super_border_self_rejected(self, multilevel):
        with pytest.raises(TopologyError):
            multilevel.top_border(0, 0)

    def test_sub_hfc_structure(self, multilevel):
        for sid in range(multilevel.top_count):
            sub = multilevel.sub_hierarchy(sid).hfc
            assert sub.cluster_count == len(multilevel.base_clusters_of(sid))
            assert sorted(
                p for c in sub.clustering.clusters for p in c
            ) == multilevel.top_members(sid)

    def test_sub_hfc_cached(self, multilevel):
        assert multilevel.sub_hierarchy(0) is multilevel.sub_hierarchy(0)


class TestStateAccounting:
    def test_every_proxy_counted(self, framework, multilevel):
        coords = multilevel.coordinates_node_states()
        service = multilevel.service_node_states()
        assert set(coords) == set(framework.overlay.proxies)
        assert set(service) == set(framework.overlay.proxies)

    def test_three_level_coordinate_state_not_larger(self, framework, multilevel):
        """Replacing global borders with local borders + super-borders can
        only shrink (or tie) the coordinate footprint on average."""
        two = np.mean(list(coordinates_node_states(framework.hfc).values()))
        three = np.mean(list(multilevel.coordinates_node_states().values()))
        assert three <= two + 1e-9

    def test_service_state_formula(self, framework, multilevel):
        states = multilevel.service_node_states()
        level = multilevel.levels[0]
        for proxy, value in states.items():
            cid = framework.hfc.cluster_of(proxy)
            sid = int(level.parent[cid])
            expected = (
                len(framework.hfc.members(cid))
                + len(level.members_of(sid))
                + multilevel.top_count
            )
            assert value == expected


class TestThreeLevelRouting:
    def test_paths_validate(self, framework, multilevel):
        router = RecursiveRouter(multilevel)
        for seed in range(15):
            request = framework.random_request(seed=seed)
            path = router.route(request)
            validate_path(path, request, framework.overlay)

    def test_capabilities_are_super_aggregates(self, multilevel):
        router = RecursiveRouter(multilevel)
        for sid in range(multilevel.top_count):
            assert router.cluster_capabilities[sid] == aggregate_capability(
                multilevel.hfc.overlay.placement, multilevel.top_members(sid)
            )

    def test_cross_super_hops_use_super_borders(self, framework, multilevel):
        """A direct hop between super-clusters must be a super-border link."""
        router = RecursiveRouter(multilevel)
        if multilevel.top_count < 2:
            pytest.skip("single super-cluster")
        checked = 0
        for seed in range(20):
            request = framework.random_request(seed=seed)
            path = router.route(request)
            proxies = path.proxies()
            for u, v in zip(proxies, proxies[1:]):
                su, sv = multilevel.group_of(u), multilevel.group_of(v)
                if su != sv:
                    assert u == multilevel.top_border(su, sv)
                    assert v == multilevel.top_border(sv, su)
                    checked += 1
        assert checked > 0

    def test_path_quality_within_factor_of_two_level(self, framework, multilevel):
        """The third level trades path quality for state; the loss must stay
        bounded (coarser info, same connectivity)."""
        two = HierarchicalRouter(framework.hfc)
        three = RecursiveRouter(multilevel)
        overlay = framework.overlay
        t2 = t3 = 0.0
        for seed in range(20):
            request = framework.random_request(seed=seed)
            t2 += two.route(request).true_delay(overlay)
            t3 += three.route(request).true_delay(overlay)
        assert t3 <= t2 * 2.0

    def test_single_super_degenerates_to_two_level(self):
        """Two clusters make round(sqrt(2)) = 1 top group: the recursive
        router then takes the bi-level router's paths."""
        fw = HFCFramework.build(proxy_count=12, seed=5)
        assert fw.clustering.cluster_count == 2
        ml = build_levels(fw.hfc, 3)
        assert ml.top_count == 1
        router, flat = RecursiveRouter(ml), HierarchicalRouter(fw.hfc)
        for seed in range(5):
            request = fw.random_request(seed=seed)
            path = router.route(request)
            validate_path(path, request, fw.overlay)
            assert path.hops == flat.route(request).hops


class TestComposition:
    def test_caching_over_three_levels(self, framework, multilevel):
        """The CSP cache layer stacks on the recursive router too."""
        from repro.routing.cache import CachedHierarchicalRouter

        class CachedThreeLevel(CachedHierarchicalRouter, RecursiveRouter):
            pass

        router = CachedThreeLevel(multilevel)
        request = framework.random_request(seed=9)
        a = router.route(request)
        b = router.route(request)
        assert a.hops == b.hops
        assert router.stats.hits == 1
