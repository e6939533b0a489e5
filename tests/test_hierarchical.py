"""Tests for hierarchical divide-and-conquer routing (paper Section 5)."""

import gc
import random

import pytest

from repro.qos import BandwidthModel, QoSHierarchicalRouter
from repro.routing import HierarchicalRouter, validate_path
from repro.services import ServiceRequest, linear_graph
from repro.services.placement import aggregate_capability
from repro.util.errors import NoFeasiblePathError, RoutingError
from repro.experiments.ablations import ExactCspRouter
from tests.oracles.csp import router_for


def sample_requests(framework, count, seed=0):
    rng = random.Random(seed)
    return [framework.random_request(seed=rng.randint(0, 10**9)) for _ in range(count)]


@pytest.fixture(scope="module")
def router(framework):
    return HierarchicalRouter(framework.hfc)


class TestConstruction:
    def test_bad_method_rejected(self, framework):
        with pytest.raises(RoutingError):
            HierarchicalRouter(framework.hfc, method="magic")

    def test_exact_is_the_ablations_own_router(self, framework):
        """``exact`` left ``METHODS``: A4's harness routes it."""
        with pytest.raises(RoutingError, match=r"\('backtrack', 'external'\)"):
            HierarchicalRouter(framework.hfc, method="exact")
        assert ExactCspRouter(framework.hfc).method == "exact"

    def test_default_capabilities_are_exact_aggregates(self, framework, router):
        for cid in range(framework.hfc.cluster_count):
            expected = aggregate_capability(
                framework.overlay.placement, framework.hfc.members(cid)
            )
            assert router.cluster_capabilities[cid] == expected


class TestClusterLevel:
    def test_candidates_respect_sct_c(self, framework, router):
        request = framework.random_request(seed=1)
        candidates = router.cluster_candidates(request.service_graph)
        for slot, clusters in candidates.items():
            service = request.service_graph.service_of(slot)
            for cid in clusters:
                assert service in router.cluster_capabilities[cid]

    def test_csp_assignment_covers_a_configuration(self, framework, router):
        request = framework.random_request(seed=2)
        csp = router.cluster_level_path(request)
        slots = [slot for slot, _ in csp.assignment]
        assert request.service_graph.is_configuration(slots)

    def test_csp_endpoint_clusters(self, framework, router):
        request = framework.random_request(seed=3)
        csp = router.cluster_level_path(request)
        assert csp.source_cluster == framework.hfc.cluster_of(request.source_proxy)
        assert csp.destination_cluster == framework.hfc.cluster_of(
            request.destination_proxy
        )

    def test_unavailable_service_raises(self, framework, router):
        request = ServiceRequest(
            framework.overlay.proxies[0],
            linear_graph(["not-a-service"]),
            framework.overlay.proxies[1],
        )
        with pytest.raises(NoFeasiblePathError):
            router.cluster_level_path(request)

    def test_cluster_sequence_collapses_runs(self, framework, router):
        request = framework.random_request(seed=4)
        csp = router.cluster_level_path(request)
        seq = csp.cluster_sequence()
        for a, b in zip(seq, seq[1:]):
            assert a != b


class TestDissection:
    def test_children_cover_all_slots_in_order(self, framework, router):
        for request in sample_requests(framework, 15, seed=5):
            result = router.route_detailed(request)
            slots = [s for child in result.child_requests for s in child.slots]
            assert slots == [slot for slot, _ in result.csp.assignment]

    def test_child_endpoints_chain_via_borders(self, framework, router):
        hfc = framework.hfc
        for request in sample_requests(framework, 15, seed=6):
            result = router.route_detailed(request)
            children = result.child_requests
            assert children[0].source_proxy == request.source_proxy
            assert children[-1].destination_proxy == request.destination_proxy
            for prev, nxt in zip(children, children[1:]):
                # exit border of prev and entry border of nxt form the
                # external link between the two clusters
                assert prev.destination_proxy == hfc.border(prev.cluster, nxt.cluster)
                assert nxt.source_proxy == hfc.border(nxt.cluster, prev.cluster)

    def test_child_services_within_cluster_capability(self, framework, router):
        for request in sample_requests(framework, 15, seed=7):
            result = router.route_detailed(request)
            for child in result.child_requests:
                capability = router.cluster_capabilities[child.cluster]
                for service in child.services:
                    assert service in capability

    def test_first_and_last_clusters_match_endpoints(self, framework, router):
        hfc = framework.hfc
        for request in sample_requests(framework, 15, seed=8):
            result = router.route_detailed(request)
            children = result.child_requests
            assert children[0].cluster == hfc.cluster_of(request.source_proxy)
            assert children[-1].cluster == hfc.cluster_of(request.destination_proxy)


class TestConquer:
    def test_final_paths_validate(self, framework, router):
        for request in sample_requests(framework, 25, seed=9):
            path = router.route(request)
            validate_path(path, request, framework.overlay)

    def test_child_paths_stay_inside_their_cluster(self, framework, router):
        hfc = framework.hfc
        for request in sample_requests(framework, 15, seed=10):
            result = router.route_detailed(request)
            for child, child_path in zip(result.child_requests, result.child_paths):
                for hop in child_path.hops:
                    assert hfc.cluster_of(hop.proxy) == child.cluster

    def test_intra_cluster_services_served_locally(self, framework, router):
        """Every service hop must be a proxy of the cluster the CSP chose."""
        hfc = framework.hfc
        for request in sample_requests(framework, 15, seed=11):
            result = router.route_detailed(request)
            assigned = dict(result.csp.assignment)
            for hop in result.path.service_hops():
                assert hfc.cluster_of(hop.proxy) == assigned[hop.slot]

    def test_two_hop_property_of_consecutive_services(self, framework, router):
        """Any two consecutive service hops are at most 2 overlay links
        apart plus the endpoints — the HFC proximity guarantee means no hop
        chain longer than: exit-border, entry-border between them."""
        for request in sample_requests(framework, 15, seed=12):
            path = router.route(request)
            proxies = path.proxies()
            service_positions = []
            service_proxies = {h.proxy for h in path.service_hops()}
            for i, p in enumerate(proxies):
                if p in service_proxies:
                    service_positions.append(i)
            for a, b in zip(service_positions, service_positions[1:]):
                assert b - a <= 3  # at most two relays (the border pair) between


class TestMethods:
    @pytest.mark.parametrize("method", ["backtrack", "exact", "external"])
    def test_all_methods_produce_valid_paths(self, framework, method):
        router = router_for(framework.hfc, method)
        for request in sample_requests(framework, 10, seed=13):
            path = router.route(request)
            validate_path(path, request, framework.overlay)

    def test_exact_estimate_never_worse_than_backtrack(self, framework):
        """The exact DP minimises the same cost model backtracking
        approximates, so its estimated CSP cost is <=."""
        backtrack = HierarchicalRouter(framework.hfc, method="backtrack")
        exact = ExactCspRouter(framework.hfc)
        for request in sample_requests(framework, 10, seed=14):
            cb = backtrack.cluster_level_path(request).estimated_cost
            ce = exact.cluster_level_path(request).estimated_cost
            assert ce <= cb + 1e-9

    def test_backtrack_beats_external_on_true_delay_in_aggregate(self, framework):
        """The paper's back-tracking modification should pay off on average."""
        backtrack = HierarchicalRouter(framework.hfc, method="backtrack")
        external = HierarchicalRouter(framework.hfc, method="external")
        overlay = framework.overlay
        requests = sample_requests(framework, 40, seed=15)
        bt = sum(backtrack.route(r).true_delay(overlay) for r in requests)
        ext = sum(external.route(r).true_delay(overlay) for r in requests)
        assert bt <= ext * 1.02  # allow 2% noise margin


class TestStaleState:
    def test_stale_capabilities_can_fail_cleanly(self, framework):
        """If SCT_C over-advertises (stale), routing raises rather than
        returning a broken path."""
        # claim every cluster offers a phantom service
        stale = {
            cid: frozenset({"phantom"})
            | aggregate_capability(
                framework.overlay.placement, framework.hfc.members(cid)
            )
            for cid in range(framework.hfc.cluster_count)
        }
        router = HierarchicalRouter(framework.hfc, cluster_capabilities=stale)
        request = ServiceRequest(
            framework.overlay.proxies[0],
            linear_graph(["phantom"]),
            framework.overlay.proxies[1],
        )
        with pytest.raises(NoFeasiblePathError):
            router.route(request)

    def test_under_advertising_hides_services(self, framework):
        """If SCT_C under-advertises, the service is unreachable even though
        it is installed."""
        empty = {
            cid: frozenset() for cid in range(framework.hfc.cluster_count)
        }
        router = HierarchicalRouter(framework.hfc, cluster_capabilities=empty)
        with pytest.raises(NoFeasiblePathError):
            router.route(framework.random_request(seed=16))


#: every router that reaches the pipeline through ``_resolve``
COLLECTOR_ROUTERS = {
    "plain": lambda fw: fw.hierarchical_router(),
    "cached": lambda fw: fw.cached_hierarchical_router(),
    "qos": lambda fw: QoSHierarchicalRouter(fw.hfc, BandwidthModel(fw.physical, seed=4), 1.0),
    "levels=3": lambda fw: fw.hierarchy_router(levels=3),
}


@pytest.mark.parametrize("name", sorted(COLLECTOR_ROUTERS))
class TestCollector:
    """A pipeline call runs with the cyclic collector paused, which is sound
    only while a call makes no cyclic garbage, and puts it back as found."""

    @pytest.fixture(autouse=True)
    def _restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    def test_a_batch_leaves_nothing_for_the_collector(self, framework, name):
        router = COLLECTOR_ROUTERS[name](framework)
        requests = sample_requests(framework, 40, seed=5)
        router.route_many_detailed(requests)  # the tables and caches it keeps
        gc.collect()
        gc.disable()  # no collection between the batch and the count
        result = router.route_many_detailed(requests)
        assert gc.collect() == 0
        assert any(path is not None for path in result.paths)

    def test_the_stages_run_with_the_collector_paused(self, framework, name):
        router = COLLECTOR_ROUTERS[name](framework)
        seen, dissect = [], router.dissect

        def spy(request, csp):
            seen.append(gc.isenabled())
            return dissect(request, csp)

        router.dissect = spy
        gc.enable()
        router.route_many_detailed(sample_requests(framework, 5, seed=6))
        assert seen and not any(seen) and gc.isenabled()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_call_that_raises_puts_the_collector_back(self, framework, name, enabled):
        router = COLLECTOR_ROUTERS[name](framework)

        def boom(request, csp):
            raise RuntimeError("boom")

        router.dissect = boom
        (gc.enable if enabled else gc.disable)()
        with pytest.raises(RuntimeError, match="boom"):
            router.route_many_detailed(sample_requests(framework, 5, seed=6))
        assert gc.isenabled() is enabled
