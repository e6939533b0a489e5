"""Tests for flat routers (coordinate, oracle, mesh, HFC-full-state)."""

import random

import pytest

from repro.overlay import build_mesh
from repro.routing import (
    CoordinateProvider,
    MatrixProvider,
    MeshRouter,
    TrueDelayProvider,
    coordinate_router,
    hfc_full_state_router,
    oracle_router,
    validate_path,
)
from repro.services import ServiceRequest, linear_graph
from repro.util.errors import NoFeasiblePathError, RoutingError

import numpy as np


def sample_requests(framework, count, seed=0):
    rng = random.Random(seed)
    return [framework.random_request(seed=rng.randint(0, 10**9)) for _ in range(count)]


class TestProviders:
    def test_coordinate_provider_pair_vs_block(self, tiny_framework):
        provider = CoordinateProvider(tiny_framework.space)
        proxies = tiny_framework.overlay.proxies[:5]
        block = provider.block(proxies, proxies)
        for i, u in enumerate(proxies):
            for j, v in enumerate(proxies):
                assert block[i, j] == pytest.approx(provider.pair(u, v))

    def test_true_provider_matches_overlay(self, tiny_framework):
        provider = TrueDelayProvider(tiny_framework.overlay)
        u, v = tiny_framework.overlay.proxies[:2]
        assert provider.pair(u, v) == pytest.approx(
            tiny_framework.overlay.true_delay(u, v)
        )

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
        from repro.routing.path import path_from_assignment
        from tests.oracles.servicedag import solve_reference

        router = coordinate_router(tiny_framework.overlay)
        overlay = tiny_framework.overlay
        for request in sample_requests(tiny_framework, 10, seed=4):
            slow = solve_reference(
                request.service_graph,
                router.candidates_for(request),
                request.source_proxy,
                request.destination_proxy,
                router.provider.pair,
            )
            a = router.route(request).true_delay(overlay)
            b = path_from_assignment(request, slow.assignment).true_delay(overlay)
            assert a == pytest.approx(b)

    def test_candidate_filter_restricts(self, tiny_framework):
        overlay = tiny_framework.overlay
        allowed = set(overlay.proxies[: len(overlay.proxies) // 2])
        router = coordinate_router(tiny_framework.overlay)
        router.candidate_filter = allowed.__contains__
        for request in sample_requests(tiny_framework, 10, seed=5):
            try:
                path = router.route(request)
            except NoFeasiblePathError:
                continue
            for hop in path.service_hops():
                assert hop.proxy in allowed


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
