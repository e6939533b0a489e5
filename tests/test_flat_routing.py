"""Tests for flat routers (coordinate, oracle, mesh, HFC-full-state)."""

import random

import pytest

from repro.overlay import OverlayNetwork, build_mesh
from repro.routing import (
    CoordinateProvider,
    MatrixProvider,
    MeshRouter,
    TrueDelayProvider,
    coordinate_router,
    hfc_full_state_router,
    materialise_assignment,
    oracle_router,
    validate_path,
)
from repro.services import ServiceRequest, linear_graph
from repro.util.errors import NoFeasiblePathError, RoutingError

import numpy as np
from tests.oracles.shortest_paths import physical_graph


def sample_requests(framework, count, seed=0):
    rng = random.Random(seed)
    return [framework.random_request(seed=rng.randint(0, 10**9)) for _ in range(count)]


class TestProviders:
    def test_coordinate_provider_pair_vs_block(self, tiny_framework):
        """The kernel's elementwise ``pairs`` over every pair of a block."""
        provider = CoordinateProvider(tiny_framework.space)
        proxies = tiny_framework.overlay.proxies[:5]
        us, vs = zip(*[(u, v) for u in proxies for v in proxies])
        got = provider.pairs(provider.points(us), provider.points(vs))
        for u, v, distance in zip(us, vs, got):
            assert distance == pytest.approx(provider.pair(u, v))

    def test_true_provider_matches_overlay(self, tiny_framework):
        provider = TrueDelayProvider(tiny_framework.overlay)
        u, v = tiny_framework.overlay.proxies[:2]
        assert provider.pair(u, v) == pytest.approx(
            tiny_framework.overlay.true_delay(u, v)
        )

    def test_the_provider_index_follows_a_rewritten_placement(self, tiny_framework):
        """The flat router's service -> providers index answers what
        ``providers_of`` scans for, also after a placement set is rewritten
        in place (a crash's restart) or a proxy is gone from the overlay."""
        fw = tiny_framework
        overlay = OverlayNetwork(
            physical=fw.physical, proxies=list(fw.overlay.proxies),
            placement=dict(fw.overlay.placement), space=fw.space,
        )
        router = coordinate_router(overlay)
        services = sorted(set().union(*overlay.placement.values()))

        def agrees():
            providers = router._providers()
            return all(list(providers(s)) == overlay.providers_of(s) for s in services + ["none"])

        assert agrees()
        first, second = overlay.proxies[:2]
        overlay.placement[first] = frozenset(services[:1])
        overlay.placement[second] = overlay.placement[second] | {services[-1]}
        assert agrees()
        overlay.proxies.remove(second)
        assert agrees()

    def test_matrix_provider_validation(self):
        with pytest.raises(RoutingError):
            MatrixProvider({1: 0}, np.zeros((2, 3)))

    def test_matrix_provider_unknown_proxy(self):
        provider = MatrixProvider({1: 0, 2: 1}, np.zeros((2, 2)))
        with pytest.raises(RoutingError):
            provider.pair(1, 99)


class TestCoordinateAndOracleRouters:
    def test_paths_validate(self, tiny_framework):
        router = coordinate_router(tiny_framework.overlay)
        for request in sample_requests(tiny_framework, 10, seed=1):
            path = router.route(request)
            validate_path(path, request, tiny_framework.overlay)

    def test_oracle_never_worse_than_coords(self, tiny_framework):
        """On true delay, oracle routing must beat estimate-based routing."""
        coords = coordinate_router(tiny_framework.overlay)
        oracle = oracle_router(tiny_framework.overlay)
        overlay = tiny_framework.overlay
        total_coords, total_oracle = 0.0, 0.0
        for request in sample_requests(tiny_framework, 20, seed=2):
            total_coords += coords.route(request).true_delay(overlay)
            total_oracle += oracle.route(request).true_delay(overlay)
        assert total_oracle <= total_coords + 1e-9

    def test_no_relays_on_full_topology(self, tiny_framework):
        router = coordinate_router(tiny_framework.overlay)
        for request in sample_requests(tiny_framework, 10, seed=3):
            assert router.route(request).relay_count() == 0

    def test_unknown_service_infeasible(self, tiny_framework):
        overlay = tiny_framework.overlay
        request = ServiceRequest(
            overlay.proxies[0], linear_graph(["no-such-service"]), overlay.proxies[1]
        )
        with pytest.raises(NoFeasiblePathError):
            coordinate_router(tiny_framework.overlay).route(request)

    def test_reference_and_numpy_solvers_agree(self, tiny_framework):
        from tests.oracles.servicedag import solve_reference

        router = coordinate_router(tiny_framework.overlay)
        overlay = tiny_framework.overlay
        for request in sample_requests(tiny_framework, 10, seed=4):
            sg = request.service_graph
            slow = solve_reference(
                sg,
                {slot: overlay.providers_of(sg.service_of(slot)) for slot in sg.slots()},
                request.source_proxy,
                request.destination_proxy,
                router.provider.pair,
            )
            a = router.route(request).true_delay(overlay)
            b = materialise_assignment(request, slow.assignment).true_delay(overlay)
            assert a == pytest.approx(b)


FLAT_ROUTERS = {
    "coordinate": lambda fw: coordinate_router(fw.overlay),
    "oracle": lambda fw: oracle_router(fw.overlay),
    "mesh": lambda fw: MeshRouter(fw.overlay, build_mesh(fw.overlay, seed=6)),
    "hfc-full-state": lambda fw: hfc_full_state_router(fw.hfc),
}


@pytest.mark.parametrize("make", FLAT_ROUTERS.values(), ids=FLAT_ROUTERS.keys())
def test_stranger_endpoint_fails_only_its_request(tiny_framework, make):
    """A source or destination that is not an overlay member is that
    request's own :class:`NoFeasiblePathError`, worded as the hierarchical
    router words it; the rest of the batch still routes."""
    router = make(tiny_framework)
    overlay = tiny_framework.overlay
    stranger = next(n for n in physical_graph(overlay.physical).nodes() if n not in set(overlay.proxies))
    ok = sample_requests(tiny_framework, 2, seed=16)
    sg = ok[0].service_graph
    batch = [ok[0], ServiceRequest(stranger, sg, overlay.proxies[0]), ok[1]]
    result = router.route_many_detailed(batch)
    assert result.ok_count == 2 and result.paths[1] is None
    assert str(result.errors[1]) == f"source proxy {stranger!r} is not an overlay member"
    with pytest.raises(NoFeasiblePathError, match="destination proxy .* is not an overlay member"):
        router.route(ServiceRequest(overlay.proxies[0], sg, stranger))


class TestMeshRouter:
    @pytest.fixture(scope="class")
    def mesh_router(self, tiny_framework):
        mesh = build_mesh(tiny_framework.overlay, seed=6)
        return MeshRouter(tiny_framework.overlay, mesh)

    def test_paths_validate(self, tiny_framework, mesh_router):
        for request in sample_requests(tiny_framework, 10, seed=7):
            path = mesh_router.route(request)
            validate_path(path, request, tiny_framework.overlay)

    def test_consecutive_hops_are_mesh_edges(self, tiny_framework, mesh_router):
        for request in sample_requests(tiny_framework, 10, seed=8):
            path = mesh_router.route(request)
            proxies = path.proxies()
            for u, v in zip(proxies, proxies[1:]):
                assert mesh_router.mesh.has_edge(u, v)

    def test_mesh_distance_symmetric(self, tiny_framework, mesh_router):
        u, v = tiny_framework.overlay.proxies[:2]
        assert mesh_router.mesh_distance(u, v) == pytest.approx(
            mesh_router.mesh_distance(v, u)
        )

    def test_missing_proxy_in_mesh_rejected(self, tiny_framework):
        from repro.graph import Graph

        empty = Graph()
        with pytest.raises(RoutingError):
            MeshRouter(tiny_framework.overlay, empty)

    def test_relays_appear_for_distant_services(self, tiny_framework, mesh_router):
        """Across many requests, mesh paths must use at least some relays —
        the paper's core observation about static meshes."""
        relay_total = sum(
            mesh_router.route(r).relay_count()
            for r in sample_requests(tiny_framework, 20, seed=9)
        )
        assert relay_total > 0


class TestHfcFullStateRouter:
    def test_paths_validate(self, framework):
        router = hfc_full_state_router(framework.hfc)
        for request in sample_requests(framework, 10, seed=10):
            path = router.route(request)
            validate_path(path, request, framework.overlay)

    def test_cross_cluster_hops_expand_through_borders(self, framework):
        router = hfc_full_state_router(framework.hfc)
        hfc = framework.hfc
        for request in sample_requests(framework, 10, seed=11):
            path = router.route(request)
            proxies = path.proxies()
            for u, v in zip(proxies, proxies[1:]):
                cu, cv = hfc.cluster_of(u), hfc.cluster_of(v)
                if cu != cv:
                    # a direct cross-cluster hop must be an external border link
                    assert u in hfc.border_nodes(cu)
                    assert v in hfc.border_nodes(cv)
