"""Tests for state tables, the distribution protocol, and overhead accounting."""

import pytest

from repro.state import (
    ProxyState,
    ServiceCapabilityTable,
    StateDistributionProtocol,
    coordinates_node_states,
    mean_coordinates_overhead,
    mean_service_overhead,
    service_node_states,
)
from repro.util.errors import StateError


class TestServiceCapabilityTable:
    def test_update_and_lookup(self):
        table = ServiceCapabilityTable()
        assert table.update("p1", frozenset({"a"}), now=1.0) is True
        assert table.services_of("p1") == frozenset({"a"})
        assert table.updated_at("p1") == 1.0

    def test_unchanged_update_returns_false(self):
        table = ServiceCapabilityTable()
        table.update("p1", frozenset({"a"}), now=1.0)
        assert table.update("p1", frozenset({"a"}), now=2.0) is False
        assert table.updated_at("p1") == 2.0  # timestamp still refreshes

    def test_unchanged_update_moves_only_the_timestamp(self):
        table = ServiceCapabilityTable()
        stored = frozenset({"a", "b"})
        table.update("p1", stored, now=1.0)
        revision = table.revision
        assert table.update("p1", frozenset({"b", "a"}), now=2.0) is False
        assert table.update("p1", {"a", "b"}, now=3.0) is False  # equal, not frozen
        assert table.services_of("p1") is stored
        assert table.revision == revision
        assert table.updated_at("p1") == 3.0

    def test_union_follows_every_content_change(self):
        table = ServiceCapabilityTable()
        assert table.union() == frozenset()
        table.update("p1", frozenset({"a"}))
        table.update("p2", frozenset({"a", "b"}))
        assert table.union() == frozenset({"a", "b"})
        assert table.union() is table.union()  # one object per revision
        table.remove("p2")
        assert table.union() == frozenset({"a"})
        table.update("p1", frozenset({"c"}))
        assert table.union() == frozenset({"c"})

    def test_expire_drops_the_silent_but_never_the_kept_key(self):
        table = ServiceCapabilityTable()
        table.update("me", frozenset({"a"}), now=0.0)
        table.update("old", frozenset({"b"}), now=1.0)
        table.update("fresh", frozenset({"c"}), now=5.0)
        assert table.expire(5.0, keep="me") is True
        assert set(table.as_dict()) == {"me", "fresh"}
        assert table.union() == frozenset({"a", "c"})
        revision = table.revision
        assert table.expire(5.0, keep="me") is False
        assert table.revision == revision

    def test_changed_update_returns_true(self):
        table = ServiceCapabilityTable()
        table.update("p1", frozenset({"a"}))
        assert table.update("p1", frozenset({"a", "b"})) is True

    def test_missing_entry_raises(self):
        with pytest.raises(StateError):
            ServiceCapabilityTable().services_of("ghost")

    def test_remove(self):
        table = ServiceCapabilityTable()
        table.update("p1", frozenset({"a"}))
        table.remove("p1")
        assert "p1" not in table
        table.remove("p1")  # idempotent

    def test_as_dict_snapshot(self):
        table = ServiceCapabilityTable()
        table.update("p1", frozenset({"a"}))
        snap = table.as_dict()
        table.update("p2", frozenset({"b"}))
        assert set(snap) == {"p1"}

    def test_len(self):
        table = ServiceCapabilityTable()
        table.update("x", frozenset())
        table.update("y", frozenset())
        assert len(table) == 2


class TestProxyState:
    def test_aggregate_own_cluster(self):
        state = ProxyState(proxy="p1", cluster_id=0)
        state.sct_p.update("p1", frozenset({"a"}))
        state.sct_p.update("p2", frozenset({"b", "c"}))
        assert state.aggregate_own_cluster() == frozenset({"a", "b", "c"})

    def test_local_capability(self):
        state = ProxyState(proxy="p1", cluster_id=0)
        state.sct_p.update("p1", frozenset({"a"}))
        assert state.local_capability() == frozenset({"a"})


class TestUnionUnderLifecycle:
    """The union a proxy aggregates is its current table's, whatever happened
    to the table: written, expired, wiped, restored or round-tripped."""

    def test_union_is_the_brute_force_union_after_every_step(self, tiny_framework):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        from repro.state.serialize import proxy_state_from_dict, proxy_state_to_dict

        hfc = tiny_framework.hfc
        proxy = hfc.overlay.proxies[0]
        keys = st.sampled_from(["m1", "m2", "m3"])
        services = st.frozensets(st.sampled_from(["a", "b", "c", "d"]), max_size=3)
        step = st.one_of(
            st.tuples(st.just("update"), keys, services),
            st.tuples(st.just("remove"), keys),
            st.tuples(st.just("expire"), st.integers(min_value=0, max_value=40)),
            st.tuples(st.sampled_from(["wipe", "restore", "round_trip"])),
        )

        @settings(max_examples=60, deadline=None)
        @given(st.lists(step, min_size=1, max_size=30))
        def check(steps):
            protocol = StateDistributionProtocol(hfc, seed=1)
            agent = protocol._agent_of[proxy]
            saved = protocol.snapshot_proxy(proxy)
            for clock, (op, *args) in enumerate(steps, start=1):
                table = agent.state.sct_p
                if op == "update":
                    table.update(args[0], args[1], now=float(clock))
                elif op == "remove":
                    table.remove(args[0])
                elif op == "expire":
                    table.expire(float(clock - args[0]), keep=proxy)
                    assert proxy in table  # a proxy's own entry never expires
                elif op == "wipe":
                    saved = protocol.snapshot_proxy(proxy)
                    protocol.wipe_state(proxy)
                elif op == "restore":
                    protocol.restore_state(proxy, saved)
                else:
                    agent.state = protocol.states[proxy] = proxy_state_from_dict(
                        proxy_state_to_dict(agent.state)
                    )
                state = agent.state
                assert state is protocol.states[proxy]
                brute = frozenset().union(*state.sct_p.as_dict().values())
                assert state.aggregate_own_cluster() == brute, (op, args)

        check()


class TestDepartedProxy:
    """``remove_proxy`` retracts nothing: the peers' entries have to age out."""

    @pytest.fixture(scope="class")
    def departed(self):
        from repro.core import HFCFramework

        framework = HFCFramework.build(proxy_count=60, seed=11)
        protocol = StateDistributionProtocol(framework.hfc, seed=11)
        assert protocol.run().converged_at is not None
        hfc, placement = framework.hfc, framework.overlay.placement

        def orphans(proxy):
            others = [m for m in hfc.members(hfc.cluster_of(proxy)) if m != proxy]
            return placement[proxy] - frozenset().union(*(placement[m] for m in others))

        # somebody whose leaving takes services out of its cluster's aggregate;
        # not a border: nothing re-elects one here (``DynamicOverlay`` does), so
        # a border's departure also cuts its cluster pair's aggregate flow
        victim = next(
            p
            for p in framework.overlay.proxies[1:]
            if orphans(p) and not protocol.border_peers[p]
        )
        return protocol, victim, hfc.cluster_of(victim), orphans(victim)

    def test_peers_forget_it_and_the_aggregates_follow(self, departed):
        from repro.state.protocol import EXPIRY_PERIODS

        protocol, victim, cluster, orphaned = departed
        left_at = protocol.sim.now
        protocol.remove_proxy(victim)
        assert not protocol.converged()
        # the holder's next local timer after the silence, one aggregate
        # period, and the border-to-border and border-to-member hops
        budget = (EXPIRY_PERIODS + 1) * protocol.local_period + protocol.aggregate_period + 500.0
        protocol.sim.run_until(left_at + budget)
        assert protocol.converged()
        for state in protocol.states.values():
            assert victim not in state.sct_p
            assert not orphaned & state.sct_c.services_of(cluster)
        assert not orphaned & protocol.capabilities_for_routing()[cluster]

    def test_an_ignored_announcement_still_proves_its_sender_alive(self, tiny_framework):
        from repro.netsim.eventsim import Message
        from repro.state.delta import Announcement

        protocol = StateDistributionProtocol(tiny_framework.hfc, seed=3)
        assert protocol.run().converged_at is not None
        hfc = tiny_framework.hfc
        receiver = next(p for p in hfc.overlay.proxies if len(hfc.members(hfc.cluster_of(p))) > 1)
        sender = next(m for m in hfc.members(hfc.cluster_of(receiver)) if m != receiver)
        agent = protocol._agent_of[receiver]
        table = agent.state.sct_p
        held, revision = table.services_of(sender), table.revision
        incarnation, seq = agent.assembler._heads[("local", sender)]
        gapped = Announcement(seq=seq + 2, added=frozenset({"never-seen"}), incarnation=incarnation)
        protocol.sim.run_until(protocol.sim.now + 10.0)  # between two local periods
        assert table.updated_at(sender) < protocol.sim.now
        agent.receive(Message(sender, receiver, "local_state", (sender, gapped)))
        assert agent.assembler.gaps == 1
        assert table.updated_at(sender) == protocol.sim.now
        assert table.services_of(sender) is held and table.revision == revision

    def test_nothing_live_expires(self, departed):
        protocol = departed[0]
        protocol.sim.run_until(protocol.sim.now + 3 * 6000.0)
        assert protocol.converged()
        for proxy, state in protocol.states.items():
            assert proxy in state.sct_p


class TestObserverIsLive:
    """Routing's SCT_C view, its feed and the snapshot follow the tracked agents."""

    @pytest.fixture
    def protocol(self, tiny_framework):
        protocol = StateDistributionProtocol(tiny_framework.hfc, seed=3)
        assert protocol.run().converged_at is not None
        return protocol

    def test_removing_the_observer_hands_the_view_to_the_next_proxy(self, protocol):
        first, second = protocol.hfc.overlay.proxies[:2]
        feed = protocol.capability_feed()
        before = feed.version
        protocol.remove_proxy(first)
        assert set(protocol.snapshot_state_plane()) == {str(p) for p in protocol.states}
        table = protocol.states[second].sct_c
        assert protocol.capabilities_for_routing() == {
            cid: table.services_of(cid) for cid in range(protocol.hfc.cluster_count)
            if cid in table
        }
        assert feed.version > before

    def test_a_feed_bound_router_relearns_a_wiped_observer(self, protocol):
        from repro.routing.cache import CachedHierarchicalRouter

        observer = protocol.hfc.overlay.proxies[0]
        feed = protocol.capability_feed()
        router = CachedHierarchicalRouter(protocol.hfc, capability_feed=feed)
        assert router.refresh_capabilities()
        assert router.cluster_capabilities == protocol.ground_truth_sct_c()
        seen = [feed.version]
        protocol.wipe_state(observer)
        assert router.refresh_capabilities()
        assert set(router.cluster_capabilities) == {protocol.hfc.cluster_of(observer)}
        while not protocol.converged():
            protocol.sim.run_until(protocol.sim.now + 250.0)
            seen.append(feed.version)
        assert seen == sorted(seen) and seen[1] > seen[0]
        router.refresh_capabilities()
        assert router.cluster_capabilities == protocol.ground_truth_sct_c()

    def test_a_restore_never_repeats_a_version(self, protocol):
        observer = protocol.hfc.overlay.proxies[0]
        feed = protocol.capability_feed()
        saved, versions = protocol.snapshot_proxy(observer), [feed.version]
        protocol.wipe_state(observer)
        versions.append(feed.version)
        protocol.restore_state(observer, saved)
        versions.append(feed.version)
        assert versions == sorted(set(versions))


class TestProtocol:
    @pytest.fixture(scope="class")
    def report_and_protocol(self, framework):
        protocol = StateDistributionProtocol(framework.hfc, seed=5)
        report = protocol.run(max_time=30000.0)
        return report, protocol

    def test_converges(self, report_and_protocol):
        report, protocol = report_and_protocol
        assert report.converged_at is not None
        assert protocol.converged()

    def test_sct_p_matches_ground_truth(self, report_and_protocol, framework):
        _, protocol = report_and_protocol
        for proxy, state in protocol.states.items():
            assert state.sct_p.as_dict() == protocol.ground_truth_sct_p(proxy)

    def test_sct_c_matches_ground_truth(self, report_and_protocol):
        _, protocol = report_and_protocol
        truth = protocol.ground_truth_sct_c()
        for state in protocol.states.values():
            assert state.sct_c.as_dict() == truth

    def test_all_message_kinds_used(self, report_and_protocol, framework):
        report, _ = report_and_protocol
        assert report.messages_by_kind.get("local_state", 0) > 0
        if framework.hfc.cluster_count > 1:
            assert report.messages_by_kind.get("aggregate_state", 0) > 0
            assert report.messages_by_kind.get("aggregate_forward", 0) > 0

    def test_message_sizes_accumulate(self, report_and_protocol):
        report, _ = report_and_protocol
        assert report.total_size >= report.total_messages  # every service set >= 1

    def test_routing_from_protocol_state(self, report_and_protocol, framework):
        """Converged SCT_C drives the hierarchical router correctly."""
        from repro.routing import HierarchicalRouter, validate_path

        _, protocol = report_and_protocol
        capabilities = protocol.capabilities_for_routing()
        router = HierarchicalRouter(
            framework.hfc, cluster_capabilities=capabilities
        )
        request = framework.random_request(seed=3)
        validate_path(router.route(request), request, framework.overlay)

    def test_invalid_periods_rejected(self, framework):
        with pytest.raises(StateError):
            StateDistributionProtocol(framework.hfc, local_period=0)

    def test_non_convergence_reported_as_none(self, framework):
        protocol = StateDistributionProtocol(framework.hfc, seed=5)
        report = protocol.run(max_time=1.0)  # far too short
        assert report.converged_at is None


class TestOverheadAccounting:
    def test_coordinates_node_states_formula(self, framework):
        hfc = framework.hfc
        states = coordinates_node_states(hfc)
        borders = set(hfc.all_border_nodes())
        for proxy, value in states.items():
            members = set(hfc.members(hfc.cluster_of(proxy)))
            assert value == len(members) + len(borders - members)

    def test_service_node_states_formula(self, framework):
        hfc = framework.hfc
        states = service_node_states(hfc)
        for proxy, value in states.items():
            members = hfc.members(hfc.cluster_of(proxy))
            assert value == len(members) + hfc.cluster_count

    def test_every_proxy_accounted(self, framework):
        assert set(coordinates_node_states(framework.hfc)) == set(
            framework.overlay.proxies
        )

    def test_hierarchical_beats_flat(self, framework):
        """The paper's core claim at this size: HFC keeps far fewer states."""
        n = framework.overlay.size
        assert mean_coordinates_overhead(framework.hfc) < n
        assert mean_service_overhead(framework.hfc) < n

    def test_means_positive(self, framework):
        assert mean_coordinates_overhead(framework.hfc) > 0
        assert mean_service_overhead(framework.hfc) > 0


class TestProtocolDynamics:
    def test_reconvergence_after_service_change(self, framework):
        """Installing a new service mid-run must propagate and re-converge."""
        from repro.state import StateDistributionProtocol

        protocol = StateDistributionProtocol(framework.hfc, seed=7)
        first = protocol.run(max_time=30000.0)
        assert first.converged_at is not None

        victim = framework.overlay.proxies[0]
        old = framework.overlay.placement[victim]
        try:
            protocol.update_local_services(victim, old | {"brand-new-service"})
            assert not protocol.converged()  # peers do not know yet
            second = protocol.run(max_time=protocol.sim.now + 30000.0)
            assert second.converged_at is not None
            # every proxy in the victim's cluster sees the new SCT_P entry
            cid = framework.hfc.cluster_of(victim)
            for member in framework.hfc.members(cid):
                table = protocol.states[member].sct_p
                assert "brand-new-service" in table.services_of(victim)
            # every proxy system-wide sees it in the cluster aggregate
            for state in protocol.states.values():
                assert "brand-new-service" in state.sct_c.services_of(cid)
        finally:
            framework.overlay.placement[victim] = old

    def test_update_unknown_proxy_rejected(self, framework):
        from repro.state import StateDistributionProtocol
        from repro.util.errors import StateError

        protocol = StateDistributionProtocol(framework.hfc, seed=7)
        with pytest.raises(StateError):
            protocol.update_local_services(-1, frozenset())

    def test_service_removal_propagates(self, framework):
        """Uninstalling a service must eventually disappear from aggregates
        (set-union aggregation handles removals because borders rebuild the
        union from SCT_P each period rather than merging increments)."""
        from repro.state import StateDistributionProtocol

        protocol = StateDistributionProtocol(framework.hfc, seed=8)
        victim = framework.overlay.proxies[0]
        old = framework.overlay.placement[victim]
        try:
            protocol.update_local_services(victim, old | {"temp-service"})
            report = protocol.run(max_time=30000.0)
            assert report.converged_at is not None
            protocol.update_local_services(victim, old)
            second = protocol.run(max_time=protocol.sim.now + 30000.0)
            assert second.converged_at is not None
            cid = framework.hfc.cluster_of(victim)
            for state in protocol.states.values():
                assert "temp-service" not in state.sct_c.services_of(cid)
        finally:
            framework.overlay.placement[victim] = old


def lossy_protocol(hfc, loss_rate, *, seed, plan_seed, horizon):
    """A protocol whose simulator loses *loss_rate* of all copies until *horizon*."""
    from repro.faults import FaultInjector, FaultPlan, LinkLoss
    from repro.state import StateDistributionProtocol

    protocol = StateDistributionProtocol(hfc, seed=seed)
    plan = FaultPlan(plan_seed, (LinkLoss(0.0, horizon, loss_rate),))
    FaultInjector(plan).install(protocol.sim)
    return protocol


class TestProtocolUnderLoss:
    def test_converges_despite_heavy_loss(self, framework):
        """The periodic soft-state design must heal 30% message loss, and
        every lost copy is in the simulator's ledger."""
        protocol = lossy_protocol(
            framework.hfc, 0.3, seed=13, plan_seed=16, horizon=60000.0
        )
        report = protocol.run(max_time=60000.0)
        assert report.converged_at is not None
        sim = protocol.sim
        ledger = sim.conservation()
        assert ledger["balanced"] and ledger["dropped"] > 0
        assert report.messages_dropped == sim.messages_dropped == ledger["dropped"]
        assert report.fault_drops["loss"] == report.messages_dropped
        assert report.dropped_bytes > 0
        assert report.dropped_bytes == sim.telemetry.registry.total("sim.bytes.dropped")

    def test_loss_slows_convergence(self, framework):
        from repro.state import StateDistributionProtocol

        clean = StateDistributionProtocol(framework.hfc, seed=14)
        lossy = lossy_protocol(
            framework.hfc, 0.4, seed=14, plan_seed=18, horizon=90000.0
        )
        t_clean = clean.run(max_time=90000.0).converged_at
        t_lossy = lossy.run(max_time=90000.0).converged_at
        assert t_clean is not None and t_lossy is not None
        assert t_lossy >= t_clean

    def test_invalid_loss_rate_rejected(self, framework):
        """Loss is a fault plan's, validated there; the protocol has no knob."""
        from repro.faults import LinkLoss
        from repro.state import StateDistributionProtocol
        from repro.util.errors import FaultError

        with pytest.raises(FaultError):
            LinkLoss(0.0, 1000.0, 1.5)
        with pytest.raises(FaultError):
            LinkLoss(0.0, 1000.0, -0.1)
        with pytest.raises(TypeError):
            StateDistributionProtocol(framework.hfc, loss_rate=0.3)

    def test_zero_loss_drops_nothing(self, framework):
        from repro.state import StateDistributionProtocol

        protocol = StateDistributionProtocol(framework.hfc, seed=15)
        report = protocol.run(max_time=5000.0)
        assert report.messages_dropped == protocol.sim.messages_dropped == 0
        assert report.dropped_bytes == 0
