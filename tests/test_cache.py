"""Tests for the CSP-caching hierarchical router."""

import pytest

from repro.core.versioning import MutableCapabilityFeed
from repro.routing import HierarchicalRouter, validate_path
from repro.routing.cache import CachedHierarchicalRouter
from repro.services import ServiceRequest, linear_graph, branching_graph
from repro.util.errors import NoFeasiblePathError, RoutingError


@pytest.fixture
def cached(framework):
    return CachedHierarchicalRouter(framework.hfc)


class TestSignature:
    def test_equal_graphs_equal_signatures(self):
        a = linear_graph(["x", "y"])
        b = linear_graph(["x", "y"])
        assert a.signature == b.signature

    def test_different_services_differ(self):
        assert linear_graph(["x"]).signature != (
            linear_graph(["y"]).signature
        )

    def test_shape_matters(self):
        linear = linear_graph(["x", "y", "z"])
        branching = branching_graph(chains=[["x"], ["y"]], tail=["z"])
        assert linear.signature != branching.signature


class TestCachedRouting:
    def test_same_results_as_uncached(self, framework, cached):
        plain = HierarchicalRouter(framework.hfc)
        for seed in range(10):
            request = framework.random_request(seed=seed)
            a = cached.route(request)
            b = plain.route(request)
            assert a.hops == b.hops

    def test_repeat_requests_hit(self, framework, cached):
        request = framework.random_request(seed=1)
        cached.route(request)
        assert cached.stats.misses == 1
        cached.route(request)
        cached.route(request)
        assert cached.stats.hits == 2

    def test_same_sg_different_source_in_same_cluster_hits(self, framework, cached):
        members = next(c for c in framework.clustering.clusters if len(c) >= 2)
        service = next(iter(framework.overlay.placement[framework.overlay.proxies[0]]))
        destination = next(
            p for p in framework.overlay.proxies
            if p not in (members[0], members[1])
        )
        sg = linear_graph([service])
        cached.route(ServiceRequest(members[0], sg, destination))
        cached.route(ServiceRequest(members[1], sg, destination))
        assert cached.stats.hits == 1

    def test_different_destination_misses(self, framework, cached):
        proxies = framework.overlay.proxies
        service = next(iter(framework.overlay.placement[proxies[0]]))
        sg = linear_graph([service])
        cached.route(ServiceRequest(proxies[1], sg, proxies[2]))
        cached.route(ServiceRequest(proxies[1], sg, proxies[3]))
        assert cached.stats.hits == 0
        assert cached.stats.misses == 2

    def test_paths_validate(self, framework, cached):
        for seed in range(8):
            request = framework.random_request(seed=seed + 40)
            path = cached.route(request)
            validate_path(path, request, framework.overlay)

    def test_invalidate_clears(self, framework, cached):
        request = framework.random_request(seed=2)
        cached.route(request)
        dropped = cached.invalidate()
        assert dropped == 1
        cached.route(request)
        assert cached.stats.misses == 2
        assert cached.stats.invalidations == 1
        assert cached.stats.entries_dropped == 1

    def test_empty_invalidate_not_counted(self, framework):
        router = CachedHierarchicalRouter(framework.hfc)
        assert router.invalidate() == 0
        assert router.invalidate() == 0
        assert router.stats.invalidations == 0
        assert router.stats.entries_dropped == 0
        request = framework.random_request(seed=2)
        router.route(request)
        assert router.invalidate() == 1
        assert router.stats.invalidations == 1

    def test_update_capabilities_changes_answers(self, framework, cached):
        """After SCT_C changes, cached answers must not leak through."""
        request = framework.random_request(seed=3)
        cached.route(request)
        empty = {cid: frozenset() for cid in range(framework.hfc.cluster_count)}
        cached.update_capabilities(empty)
        with pytest.raises(NoFeasiblePathError):
            cached.route(request)

    def test_lru_eviction(self, framework):
        router = CachedHierarchicalRouter(framework.hfc, cache_size=2)
        requests = [framework.random_request(seed=s) for s in range(3)]
        for request in requests:
            router.route(request)
        router.route(requests[0])  # evicted by the third insert
        assert router.stats.misses == 4

    def test_invalid_cache_size(self, framework):
        with pytest.raises(RoutingError):
            CachedHierarchicalRouter(framework.hfc, cache_size=0)

    def test_hit_rate(self, framework, cached):
        request = framework.random_request(seed=4)
        cached.route(request)
        cached.route(request)
        assert cached.stats.hit_rate == pytest.approx(0.5)


class TestFeedFreshness:
    """Stale-CSP regressions: a feed version move must never leak a cached
    answer computed under the previous capability view."""

    def _empty_caps(self, framework):
        return {cid: frozenset() for cid in range(framework.hfc.cluster_count)}

    def test_late_bound_feed_drops_prefeed_csps(self, framework):
        """Binding a feed to a router that already cached CSPs must fire
        the invalidation hook on the FIRST sync, not only on later bumps.

        Pre-fix, the first feed sync replaced the capability view but
        skipped ``_capabilities_changed`` — CSPs cached under the
        constructor-default (ground truth) view were served against the
        feed's content forever.
        """
        router = CachedHierarchicalRouter(framework.hfc)
        request = framework.random_request(seed=3)
        router.route(request)  # cached under the ground-truth default view
        router.capability_feed = MutableCapabilityFeed(self._empty_caps(framework))
        with pytest.raises(NoFeasiblePathError):
            router.route(request)

    def test_late_bound_feed_drops_prefeed_csps_in_batch(self, framework):
        """Same first-sync hole through the route_many batch engine."""
        router = CachedHierarchicalRouter(framework.hfc)
        requests = [framework.random_request(seed=s) for s in range(4)]
        router.route_many(requests)
        router.capability_feed = MutableCapabilityFeed(self._empty_caps(framework))
        with pytest.raises(NoFeasiblePathError):
            router.route_many(requests)

    def test_feed_bump_between_batches_recomputes(self, framework):
        """route_many must resync the feed at batch start: a version bump
        between two batches may not serve the first batch's CSPs."""
        feed = MutableCapabilityFeed(framework.capability_feed().capabilities())
        router = CachedHierarchicalRouter(framework.hfc, capability_feed=feed)
        requests = [framework.random_request(seed=s) for s in range(4)]
        first = router.route_many(requests)
        misses_after_first = router.stats.misses
        feed.publish(self._empty_caps(framework))
        with pytest.raises(NoFeasiblePathError):
            router.route_many(requests)
        # the failed batch recomputed rather than hitting stale entries
        assert router.stats.misses > misses_after_first
        # publishing the original view again serves correct paths anew
        feed.publish(framework.capability_feed().capabilities())
        second = router.route_many(requests)
        assert [p.hops for p in second] == [p.hops for p in first]
