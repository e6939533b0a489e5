"""Hierarchical routing with NON-LINEAR service graphs.

The paper notes (Section 5.1) that the inter-cluster solution "can be
easily extended to also consider non-linear service graphs, as shown in
[11]" — our cluster-level relaxations operate on arbitrary service DAGs, so
these tests exercise that extension end to end.
"""

import random

import pytest

from repro.routing import HierarchicalRouter, validate_path
from repro.services import ServiceGraph, ServiceRequest, branching_graph
from repro.util.errors import NoFeasiblePathError
from tests.oracles.csp import router_for


def random_branching_request(framework, rng):
    names = list(framework.catalog.names)
    sg = branching_graph(
        chains=[
            [rng.choice(names) for _ in range(rng.randint(1, 2))],
            [rng.choice(names) for _ in range(rng.randint(1, 2))],
        ],
        tail=[rng.choice(names) for _ in range(rng.randint(1, 3))],
    )
    src, dst = rng.sample(framework.overlay.proxies, 2)
    return ServiceRequest(src, sg, dst)


class TestNonLinearHierarchical:
    @pytest.mark.parametrize("method", ["backtrack", "exact", "external"])
    def test_paths_validate(self, framework, method):
        router = router_for(framework.hfc, method)
        rng = random.Random(61)
        for _ in range(10):
            request = random_branching_request(framework, rng)
            path = router.route(request)
            validate_path(path, request, framework.overlay)

    def test_chosen_slots_form_configuration(self, framework):
        router = HierarchicalRouter(framework.hfc)
        rng = random.Random(62)
        for _ in range(10):
            request = random_branching_request(framework, rng)
            result = router.route_detailed(request)
            slots = [slot for slot, _ in result.csp.assignment]
            assert request.service_graph.is_configuration(slots)

    def test_dead_branch_routed_around(self, framework):
        """A branch containing an unavailable service must be avoided, not
        fatal, when an alternative configuration exists."""
        available = next(iter(framework.overlay.placement[framework.overlay.proxies[0]]))
        sg = branching_graph(
            chains=[["ghost-service"], [available]],
            tail=[available],
        )
        src, dst = framework.overlay.proxies[0], framework.overlay.proxies[1]
        request = ServiceRequest(src, sg, dst)
        router = HierarchicalRouter(framework.hfc)
        path = router.route(request)
        validate_path(path, request, framework.overlay)
        assert all(h.service != "ghost-service" for h in path.service_hops())

    def test_all_branches_dead_is_infeasible(self, framework):
        sg = branching_graph(chains=[["ghost-a"], ["ghost-b"]], tail=["ghost-c"])
        request = ServiceRequest(
            framework.overlay.proxies[0], sg, framework.overlay.proxies[1]
        )
        with pytest.raises(NoFeasiblePathError):
            HierarchicalRouter(framework.hfc).route(request)

    def test_skip_edges_honoured(self, framework):
        """A direct head->sink edge may be used, skipping the middle slot."""
        proxies = framework.overlay.proxies
        a = next(iter(framework.overlay.placement[proxies[0]]))
        c = next(iter(framework.overlay.placement[proxies[1]]))
        sg = ServiceGraph(
            services={0: a, 1: "ghost-middle", 2: c},
            edges={(0, 1), (1, 2), (0, 2)},
        )
        request = ServiceRequest(proxies[2], sg, proxies[3])
        path = HierarchicalRouter(framework.hfc).route(request)
        validate_path(path, request, framework.overlay)
        assert [h.slot for h in path.service_hops()] == [0, 2]

    def test_nonlinear_matches_best_linearisation(self, framework):
        """On the CSP *estimate*, solving the non-linear SG at once must be
        at least as good as the best per-configuration linear solve."""
        from repro.services import linear_graph

        router = HierarchicalRouter(framework.hfc)
        rng = random.Random(63)
        for _ in range(5):
            request = random_branching_request(framework, rng)
            whole = router.cluster_level_path(request).estimated_cost
            per_config = []
            for config in request.service_graph.configurations():
                names = [request.service_graph.service_of(s) for s in config]
                sub = ServiceRequest(
                    request.source_proxy, linear_graph(names),
                    request.destination_proxy,
                )
                try:
                    per_config.append(router.cluster_level_path(sub).estimated_cost)
                except NoFeasiblePathError:
                    continue
            assert per_config
            assert whole <= min(per_config) + 1e-9
