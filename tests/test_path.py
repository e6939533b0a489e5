"""Tests for ServicePath, Hop, and path validation."""

import pytest

from repro.routing import Hop, ServicePath, materialise_assignment, validate_path
from repro.services import ServiceRequest, linear_graph
from repro.util.errors import RoutingError


def make_path(*hops):
    return ServicePath(hops=tuple(hops))


class TestServicePath:
    def test_endpoints(self):
        path = make_path(Hop(1), Hop(2, "a", 0), Hop(3))
        assert path.source == 1
        assert path.destination == 3

    def test_proxies_collapse_duplicates(self):
        path = make_path(Hop(1), Hop(1, "a", 0), Hop(2, "b", 1), Hop(2))
        assert path.proxies() == [1, 2]

    def test_service_hops(self):
        path = make_path(Hop(1), Hop(5, "a", 0), Hop(6), Hop(7, "b", 1), Hop(2))
        assert [h.service for h in path.service_hops()] == ["a", "b"]

    def test_relay_count_excludes_endpoints(self):
        path = make_path(Hop(1), Hop(5, "a", 0), Hop(6), Hop(2))
        assert path.relay_count() == 1

    def test_overlay_hop_count(self):
        path = make_path(Hop(1), Hop(5, "a", 0), Hop(2))
        assert path.overlay_hop_count == 2

    def test_empty_rejected(self):
        with pytest.raises(RoutingError):
            ServicePath(hops=())

    def test_repr_uses_paper_notation(self):
        path = make_path(Hop(1), Hop(5, "a", 0))
        assert "-/1" in repr(path)
        assert "a/5" in repr(path)

    def test_true_delay_sums_physical(self, tiny_framework):
        overlay = tiny_framework.overlay
        p = overlay.proxies
        path = make_path(Hop(p[0]), Hop(p[1], "x", 0), Hop(p[2]))
        expected = overlay.true_delay(p[0], p[1]) + overlay.true_delay(p[1], p[2])
        assert path.true_delay(overlay) == pytest.approx(expected)

    def test_estimated_length_uses_coordinates(self, tiny_framework):
        overlay = tiny_framework.overlay
        p = overlay.proxies
        path = make_path(Hop(p[0]), Hop(p[1]))
        assert path.estimated_length(overlay) == pytest.approx(
            overlay.coordinate_distance(p[0], p[1])
        )


class TestPathFromAssignment:
    def test_builds_endpoint_hops(self):
        sg = linear_graph(["a", "b"])
        request = ServiceRequest(100, sg, 200)
        path = materialise_assignment(request, [(0, 5), (1, 6)])
        assert path.source == 100
        assert path.destination == 200
        assert [h.service for h in path.service_hops()] == ["a", "b"]


class TestValidatePath:
    @pytest.fixture
    def valid_setup(self, tiny_framework):
        overlay = tiny_framework.overlay
        service = next(iter(overlay.placement[overlay.proxies[3]]))
        sg = linear_graph([service])
        request = ServiceRequest(overlay.proxies[0], sg, overlay.proxies[1])
        path = make_path(
            Hop(overlay.proxies[0]),
            Hop(overlay.proxies[3], service, 0),
            Hop(overlay.proxies[1]),
        )
        return path, request, overlay

    def test_valid_path_passes(self, valid_setup):
        path, request, overlay = valid_setup
        validate_path(path, request, overlay)  # must not raise

    def test_wrong_source_rejected(self, valid_setup):
        path, request, overlay = valid_setup
        bad = ServiceRequest(overlay.proxies[5], request.service_graph,
                             request.destination_proxy)
        with pytest.raises(RoutingError):
            validate_path(path, bad, overlay)

    def test_wrong_destination_rejected(self, valid_setup):
        path, request, overlay = valid_setup
        bad = ServiceRequest(request.source_proxy, request.service_graph,
                             overlay.proxies[5])
        with pytest.raises(RoutingError):
            validate_path(path, bad, overlay)

    def test_proxy_not_hosting_service_rejected(self, tiny_framework):
        overlay = tiny_framework.overlay
        # find a proxy NOT hosting some service
        service = next(iter(overlay.placement[overlay.proxies[3]]))
        non_host = next(
            p for p in overlay.proxies if service not in overlay.placement[p]
        )
        request = ServiceRequest(
            overlay.proxies[0], linear_graph([service]), overlay.proxies[1]
        )
        path = make_path(
            Hop(overlay.proxies[0]), Hop(non_host, service, 0), Hop(overlay.proxies[1])
        )
        with pytest.raises(RoutingError):
            validate_path(path, request, overlay)

    def test_missing_slot_rejected(self, valid_setup):
        path, request, overlay = valid_setup
        no_slot = make_path(
            Hop(request.source_proxy),
            Hop(path.hops[1].proxy, path.hops[1].service, None),
            Hop(request.destination_proxy),
        )
        with pytest.raises(RoutingError):
            validate_path(no_slot, request, overlay)

    def test_incomplete_configuration_rejected(self, tiny_framework):
        overlay = tiny_framework.overlay
        s1 = next(iter(overlay.placement[overlay.proxies[3]]))
        s2 = next(iter(overlay.placement[overlay.proxies[4]]))
        request = ServiceRequest(
            overlay.proxies[0], linear_graph([s1, s2]), overlay.proxies[1]
        )
        partial = make_path(
            Hop(overlay.proxies[0]),
            Hop(overlay.proxies[3], s1, 0),
            Hop(overlay.proxies[1]),
        )
        with pytest.raises(RoutingError):
            validate_path(partial, request, overlay)

    def test_out_of_order_configuration_rejected(self, tiny_framework):
        overlay = tiny_framework.overlay
        s1 = next(iter(overlay.placement[overlay.proxies[3]]))
        s2 = next(iter(overlay.placement[overlay.proxies[4]]))
        request = ServiceRequest(
            overlay.proxies[0], linear_graph([s1, s2]), overlay.proxies[1]
        )
        swapped = make_path(
            Hop(overlay.proxies[0]),
            Hop(overlay.proxies[4], s2, 1),
            Hop(overlay.proxies[3], s1, 0),
            Hop(overlay.proxies[1]),
        )
        with pytest.raises(RoutingError):
            validate_path(swapped, request, overlay)
