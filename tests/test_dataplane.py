"""Tests for the data-plane streaming simulation and failure recovery."""

import pytest

from repro.dataplane import StreamingSession, make_rerouter, path_nominal_latency
from repro.routing import HierarchicalRouter
from repro.util.errors import EndpointFailedError, RoutingError, SessionError


@pytest.fixture(scope="module")
def routed(framework):
    router = HierarchicalRouter(framework.hfc)
    request = framework.random_request(seed=81)
    return request, router.route(request)


class TestHealthySession:
    def test_all_packets_delivered(self, framework, routed):
        _, path = routed
        session = StreamingSession(framework.overlay, path, packet_count=20)
        report = session.run()
        assert report.delivered == 20
        assert report.lost == 0

    def test_latency_equals_nominal(self, framework, routed):
        _, path = routed
        session = StreamingSession(framework.overlay, path, packet_count=10)
        report = session.run()
        for record in report.records:
            assert record.latency == pytest.approx(report.nominal_latency)

    def test_nominal_latency_includes_processing(self, framework, routed):
        _, path = routed
        with_processing = path_nominal_latency(path, framework.overlay, 5.0)
        without = path_nominal_latency(path, framework.overlay, 0.0)
        assert with_processing == pytest.approx(
            without + 5.0 * len(path.service_hops())
        )

    def test_packets_emitted_at_interval(self, framework, routed):
        _, path = routed
        session = StreamingSession(
            framework.overlay, path, packet_count=5, packet_interval=7.0
        )
        report = session.run()
        for i, record in enumerate(report.records):
            assert record.sent_at == pytest.approx(7.0 * i)

    def test_invalid_packet_count(self, framework, routed):
        _, path = routed
        with pytest.raises(RoutingError):
            StreamingSession(framework.overlay, path, packet_count=0)


class TestFailureWithoutRecovery:
    def test_packets_after_failure_lost(self, framework, routed):
        _, path = routed
        victim = path.service_hops()[0].proxy
        session = StreamingSession(
            framework.overlay, path, packet_count=20, packet_interval=5.0
        )
        report = session.run(failures={victim: 40.0})
        assert report.lost > 0
        assert report.delivered < 20
        # every lost packet was sent around/after the failure
        latest_ok = max(
            (r.sent_at for r in report.records if r.delivered), default=0.0
        )
        earliest_lost = min(
            r.sent_at for r in report.records if not r.delivered
        )
        assert earliest_lost >= latest_ok - session.report.nominal_latency

    def test_failure_before_start_loses_everything(self, framework, routed):
        _, path = routed
        victim = path.service_hops()[0].proxy
        session = StreamingSession(framework.overlay, path, packet_count=5)
        report = session.run(failures={victim: 0.0})
        assert report.delivered == 0

    def test_every_lost_packet_is_a_counted_drop(self, framework, routed):
        """A failure is a crash in the fault layer: the packets it kills are
        in the simulator's ledger, not counted as delivered."""
        _, path = routed
        victim = path.service_hops()[0].proxy
        session = StreamingSession(
            framework.overlay, path, packet_count=20, packet_interval=5.0
        )
        report = session.run(failures={victim: 40.0})
        ledger = session.sim.conservation()
        assert ledger["balanced"] and ledger["pending"] == 0
        assert 0 < report.lost == ledger["dropped"]
        dropped = session.sim.telemetry.registry.values_by_label("sim.messages.dropped", "cause")
        assert dropped == {"intercepted": report.lost}


class TestFailureWithRecovery:
    def test_session_recovers(self, framework, routed):
        request, path = routed
        victim = path.service_hops()[0].proxy
        if victim in (request.source_proxy, request.destination_proxy):
            pytest.skip("victim is an endpoint")
        nominal = path_nominal_latency(path, framework.overlay, 1.0)
        session = StreamingSession(
            framework.overlay, path,
            packet_count=max(40, int(nominal)), packet_interval=10.0,
        )
        report = session.run(
            failures={victim: 30.0},
            rerouter=make_rerouter(framework, request),
        )
        assert report.recovery_started_at is not None
        assert report.recovered_at is not None
        assert report.delivered > 0
        assert report.lost > 0  # packets in flight during the outage die
        # packets delivered after recovery used the new path
        late = [r for r in report.records if r.path_version > 1]
        assert late and all(r.delivered for r in late)
        assert victim not in set(report.final_path.proxies())

    def test_recovered_path_still_answers_request(self, framework, routed):
        from repro.routing import validate_path

        request, path = routed
        victim = path.service_hops()[0].proxy
        if victim in (request.source_proxy, request.destination_proxy):
            pytest.skip("victim is an endpoint")
        session = StreamingSession(
            framework.overlay, path, packet_count=30, packet_interval=10.0
        )
        report = session.run(
            failures={victim: 30.0}, rerouter=make_rerouter(framework, request)
        )
        validate_path(report.final_path, request, framework.overlay)

    def test_endpoint_failure_is_fatal(self, framework, routed):
        request, path = routed
        session = StreamingSession(
            framework.overlay, path, packet_count=20, packet_interval=5.0
        )
        with pytest.raises(RoutingError):
            session.run(
                failures={request.destination_proxy: 10.0},
                rerouter=make_rerouter(framework, request),
            )

    def test_endpoint_failure_raises_typed_session_error(self, framework, routed):
        """A dead endpoint is a session-level failure, distinguishable from
        ordinary routing failures by its type."""
        request, _ = routed
        reroute = make_rerouter(framework, request)
        with pytest.raises(EndpointFailedError) as exc_info:
            reroute(frozenset({request.source_proxy}))
        assert isinstance(exc_info.value, SessionError)
        assert isinstance(exc_info.value, RoutingError)  # back-compat catch
        assert repr(request.source_proxy) in str(exc_info.value)

    def test_rerouter_reuses_router_across_calls(self, framework, routed):
        """The hoisted router is rebound only when the overlay version
        moves; repeat calls with no new failures reuse it outright."""
        request, path = routed
        victim = path.service_hops()[0].proxy
        if victim in (request.source_proxy, request.destination_proxy):
            pytest.skip("victim is an endpoint")
        reroute = make_rerouter(framework, request)
        # no failures yet: both calls route on the pristine overlay
        first = reroute(frozenset())
        second = reroute(frozenset())
        assert first.hops == second.hops
        # a failure rebuilds the topology and the rerouted path avoids it
        repaired = reroute(frozenset({victim}))
        assert victim not in repaired.proxies()
        # the already-processed failure does not trigger another rebuild
        assert reroute(frozenset({victim})).hops == repaired.hops

    def test_loss_bounded_by_detection_window(self, framework, routed):
        """Packets lost ~ (outage until switch) / interval, bounded above."""
        request, path = routed
        victim = path.service_hops()[0].proxy
        if victim in (request.source_proxy, request.destination_proxy):
            pytest.skip("victim is an endpoint")
        nominal = path_nominal_latency(path, framework.overlay, 1.0)
        interval = 10.0
        session = StreamingSession(
            framework.overlay, path,
            packet_count=max(60, int(nominal)), packet_interval=interval,
            detection_margin=10.0,
        )
        report = session.run(
            failures={victim: 30.0}, rerouter=make_rerouter(framework, request)
        )
        # outage window: fail -> detection (nominal+margin after send) ->
        # switch command travels back to the source
        window = (
            report.nominal_latency  # packets already in flight
            + report.nominal_latency + 10.0  # detection deadline
            + framework.overlay.true_delay(path.destination, path.source)
        )
        assert report.lost <= window / interval + 2


class TestSessionProperties:
    """Hypothesis properties of the streaming session."""

    def test_delivered_plus_lost_is_total_under_random_failures(self, framework, routed):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        request, path = routed
        service_proxies = [h.proxy for h in path.service_hops()]

        @settings(max_examples=15, deadline=None)
        @given(
            fail_index=st.integers(0, max(0, len(service_proxies) - 1)),
            fail_time=st.floats(0.0, 400.0),
            packets=st.integers(1, 30),
        )
        def run(fail_index, fail_time, packets):
            session = StreamingSession(
                framework.overlay, path, packet_count=packets,
                packet_interval=5.0,
            )
            report = session.run(
                failures={service_proxies[fail_index]: fail_time}
            )
            assert report.delivered + report.lost == packets
            for record in report.records:
                if record.latency is not None:
                    assert record.latency == pytest.approx(
                        report.nominal_latency
                    )

        run()
