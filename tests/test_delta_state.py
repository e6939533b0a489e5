"""Tests for the delta state plane and versioned capability consumption.

Covers the three layers the incremental state machinery spans: the wire
encoding (:mod:`repro.state.delta`), the protocol at its default delta
cadence vs the always-full ``refresh_every=1`` baseline, and the version-driven cache
invalidation contract between capability feeds and
:class:`~repro.routing.cache.CachedHierarchicalRouter`.
"""

import pytest

from repro.core.versioning import MutableCapabilityFeed, OverlayVersion
from repro.state.delta import Announcement, DeltaAssembler, DeltaEmitter
from repro.state.protocol import StateDistributionProtocol
from repro.util.errors import NoFeasiblePathError, StateError


class TestAnnouncement:
    def test_full_wire_size(self):
        a = Announcement(seq=1, full=frozenset({"a", "b", "c"}))
        assert a.is_full
        assert a.wire_size == 4  # header + 3 names

    def test_delta_wire_size(self):
        a = Announcement(seq=2, added=frozenset({"x"}), removed=frozenset({"y"}))
        assert not a.is_full
        assert a.wire_size == 3  # header + 1 added + 1 removed

    def test_empty_delta_costs_header_only(self):
        assert Announcement(seq=3).wire_size == 1


class TestDeltaEmitter:
    def test_first_announcement_is_full(self):
        emitter = DeltaEmitter()
        a = emitter.announce(("s",), frozenset({"a"}))
        assert a.is_full and a.seq == 1 and a.full == frozenset({"a"})

    def test_deltas_carry_symmetric_difference(self):
        emitter = DeltaEmitter(refresh_every=10)
        emitter.announce(("s",), frozenset({"a", "b"}))
        a = emitter.announce(("s",), frozenset({"b", "c"}))
        assert not a.is_full
        assert a.added == frozenset({"c"})
        assert a.removed == frozenset({"a"})

    def test_refresh_cadence(self):
        emitter = DeltaEmitter(refresh_every=3)
        kinds = [
            emitter.announce(("s",), frozenset({"a"})).is_full for _ in range(7)
        ]
        # seq 1, 4, 7 are fulls: (seq-1) % 3 == 0
        assert kinds == [True, False, False, True, False, False, True]

    def test_streams_are_independent(self):
        emitter = DeltaEmitter()
        emitter.announce(("s1",), frozenset({"a"}))
        a = emitter.announce(("s2",), frozenset({"b"}))
        assert a.is_full and a.seq == 1

    def test_refresh_every_validated(self):
        with pytest.raises(StateError):
            DeltaEmitter(refresh_every=0)


class TestDeltaAssembler:
    def test_roundtrip_through_emitter(self):
        emitter, assembler = DeltaEmitter(refresh_every=5), DeltaAssembler()
        sets = [
            frozenset({"a", "b"}),
            frozenset({"b", "c"}),
            frozenset({"c"}),
            frozenset({"c", "d", "e"}),
        ]
        for expected in sets:
            got = assembler.apply(("s",), emitter.announce(("s",), expected))
            assert got == expected
        assert assembler.applied == len(sets)
        assert assembler.current(("s",)) == sets[-1]

    def test_stale_ignored(self):
        assembler = DeltaAssembler()
        assembler.apply(("s",), Announcement(seq=2, full=frozenset({"a"})))
        assert assembler.apply(("s",), Announcement(seq=1, full=frozenset())) is None
        assert assembler.stale == 1
        assert assembler.current(("s",)) == frozenset({"a"})

    def test_gap_ignored_until_next_full(self):
        assembler = DeltaAssembler()
        assembler.apply(("s",), Announcement(seq=1, full=frozenset({"a"})))
        # seq 2 lost; the seq-3 delta must NOT apply
        got = assembler.apply(("s",), Announcement(seq=3, added=frozenset({"b"})))
        assert got is None and assembler.gaps == 1
        # ...and neither must seq 4 (still anchored at 1)
        assert assembler.apply(("s",), Announcement(seq=4, added=frozenset({"c"}))) is None
        # a full snapshot re-anchors
        got = assembler.apply(("s",), Announcement(seq=5, full=frozenset({"z"})))
        assert got == frozenset({"z"})

    def test_empty_delta_returns_the_base_object_itself(self):
        emitter, assembler = DeltaEmitter(refresh_every=10), DeltaAssembler()
        held = frozenset({"a", "b"})
        base = assembler.apply(("s",), emitter.announce(("s",), held))
        for _ in range(3):  # nothing new: the very object, not an equal copy
            assert assembler.apply(("s",), emitter.announce(("s",), held)) is base
        assert assembler.current(("s",)) is base
        assert (assembler.applied, assembler.stale, assembler.gaps) == (4, 0, 0)
        # the head moved with every empty delta: a replay is stale, a skip is a gap
        assert assembler.apply(("s",), Announcement(seq=4)) is None
        assert assembler.apply(("s",), Announcement(seq=6)) is None
        assert (assembler.applied, assembler.stale, assembler.gaps) == (4, 1, 1)
        changed = assembler.apply(("s",), emitter.announce(("s",), held | {"c"}))
        assert changed == {"a", "b", "c"} and assembler.current(("s",)) is changed

    def test_delta_without_base_is_a_gap(self):
        assembler = DeltaAssembler()
        assert assembler.apply(("s",), Announcement(seq=1, added=frozenset({"a"}))) is None
        assert assembler.gaps == 1
        assert assembler.current(("s",)) is None


class TestDeltaProtocol:
    @pytest.fixture(scope="class")
    def reports(self, tiny_framework):
        # "full": every announcement a full snapshot (refresh_every=1, the
        # re-flood-everything baseline); "delta": the default cadence
        out = {}
        for mode, cadence in (("full", {"refresh_every": 1}), ("delta", {})):
            protocol = StateDistributionProtocol(
                tiny_framework.hfc, seed=21, **cadence
            )
            report = protocol.run(max_time=12000.0, stop_on_convergence=False)
            out[mode] = (protocol, report)
        return out

    def test_both_modes_converge_to_ground_truth(self, reports):
        for mode, (protocol, report) in reports.items():
            assert report.converged_at is not None, mode
            assert protocol.converged(), mode

    def test_modes_agree_on_final_tables(self, reports):
        full_states = reports["full"][0].states
        delta_states = reports["delta"][0].states
        for proxy, full_state in full_states.items():
            delta_state = delta_states[proxy]
            assert full_state.sct_p.as_dict() == delta_state.sct_p.as_dict()
            assert full_state.sct_c.as_dict() == delta_state.sct_c.as_dict()

    def test_delta_mode_at_least_halves_bytes(self, reports):
        full_bytes = reports["full"][1].total_size
        delta_bytes = reports["delta"][1].total_size
        assert delta_bytes * 2 <= full_bytes

    def test_reports_carry_byte_breakdown(self, reports):
        for _, report in reports.values():
            assert sum(report.bytes_by_kind.values()) == report.total_size
            assert report.to_dict()["bytes_by_kind"] == report.bytes_by_kind

    def test_message_overhead_accounting(self, reports):
        mean_size = {}
        for mode, (_, report) in reports.items():
            assert report.dropped_bytes == 0
            mean_size[mode] = report.total_size / report.total_messages
        # the delta encoding shrinks the mean delivered message
        assert mean_size["delta"] < mean_size["full"] / 2

    def test_delta_stats_counted(self, reports):
        protocol, report = reports["delta"]
        stats = protocol.delta_stats()
        assert stats["applied"] > 0
        # lossless run: nothing is ever stale or gapped
        assert stats["stale"] == 0 and stats["gaps"] == 0
        # a steady refresh flow mostly repeats itself, and the report says so
        assert stats["changed"] == sum(
            state.sct_p.revision + state.sct_c.revision for state in protocol.states.values()
        )
        assert 0 < stats["changed"] < 0.2 * stats["applied"]
        assert report.to_dict()["refresh"] == stats
        assert report.to_dict()["fault_drops"] == {}

    def test_reconverges_after_midrun_change(self, tiny_framework):
        protocol = StateDistributionProtocol(
            tiny_framework.hfc, seed=22
        )
        first = protocol.run(max_time=20000.0)
        assert first.converged_at is not None
        victim = tiny_framework.overlay.proxies[0]
        protocol.update_local_services(victim, frozenset({"brand-new-service"}))
        assert not protocol.converged()
        second = protocol.run(max_time=protocol.sim.now + 20000.0)
        assert second.converged_at is not None
        assert protocol.converged()

    def test_lossy_delta_run_accounts_dropped_bytes(self, tiny_framework):
        from repro.faults import FaultInjector, FaultPlan, LinkLoss

        protocol = StateDistributionProtocol(tiny_framework.hfc, seed=23)
        plan = FaultPlan(19, (LinkLoss(0.0, 40000.0, 0.2),))
        FaultInjector(plan).install(protocol.sim)
        report = protocol.run(max_time=40000.0)
        assert report.converged_at is not None
        registry = protocol.sim.telemetry.registry
        by_kind = registry.values_by_label("sim.bytes.dropped", "kind")
        assert report.dropped_bytes == sum(by_kind.values()) > 0
        assert set(by_kind) <= set(report.bytes_by_kind)


class TestCapabilityFeeds:
    def test_protocol_feed_versions_monotonically(self, tiny_framework):
        protocol = StateDistributionProtocol(
            tiny_framework.hfc, seed=24
        )
        feed = protocol.capability_feed()
        v0 = feed.version
        report = protocol.run(max_time=20000.0)
        assert report.converged_at is not None
        assert feed.version > v0
        assert feed.capabilities() == protocol.capabilities_for_routing()

    def test_framework_feed_seeds_ground_truth(self, tiny_framework):
        feed = tiny_framework.capability_feed()
        protocol = StateDistributionProtocol(tiny_framework.hfc, seed=25)
        assert dict(feed.capabilities()) == protocol.ground_truth_sct_c()
        assert feed.version == OverlayVersion()

    def test_cached_router_invalidates_on_publish(self, tiny_framework):
        feed = tiny_framework.capability_feed()
        router = tiny_framework.cached_hierarchical_router(capability_feed=feed)
        request = tiny_framework.random_request(seed=5)
        router.route(request)
        router.route(request)
        assert router.stats.hits == 1
        assert router.stats.invalidations == 0  # first sync is not a change
        feed.publish(feed.capabilities())  # version moves -> cache drops
        router.route(request)
        assert router.stats.invalidations == 1
        assert router.stats.misses == 2

    def test_cached_router_sees_published_content(self, tiny_framework):
        feed = tiny_framework.capability_feed()
        router = tiny_framework.cached_hierarchical_router(capability_feed=feed)
        request = tiny_framework.random_request(seed=5)
        router.route(request)
        feed.publish({cid: frozenset() for cid in feed.capabilities()})
        with pytest.raises(NoFeasiblePathError):
            router.route(request)
