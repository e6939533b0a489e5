"""Tests for the dynamic-membership extension (joins, leaves, restructuring)."""

import random

import pytest

from repro.membership import DynamicOverlay, run_churn_session
from repro.routing import HierarchicalRouter, validate_path
from repro.services import ServiceRequest, linear_graph
from repro.util.errors import EmbeddingError, MembershipError
from tests.oracles.churn import RebuildingOverlay
from tests.oracles.csp import ReferenceCspRouter


@pytest.fixture
def dyn(framework):
    return DynamicOverlay(framework, restructure_tolerance=None)


def free_stub(framework, dyn):
    used = set(dyn.proxies)
    return next(s for s in framework.physical.topology.stub_nodes if s not in used)


class TestJoin:
    def test_join_adds_member(self, framework, dyn):
        router_id = free_stub(framework, dyn)
        before = dyn.size
        dyn.join(router_id, frozenset({"s0", "s1"}))
        assert dyn.size == before + 1
        assert router_id in dyn.proxies

    def test_join_assigns_nearest_cluster(self, framework, dyn):
        router_id = free_stub(framework, dyn)
        dyn.join(router_id, frozenset({"s0"}))
        cid = dyn.clustering.cluster_of(router_id)
        nearest = min(
            (p for p in dyn.proxies if p != router_id),
            key=lambda p: dyn.space.distance(router_id, p),
        )
        assert cid == dyn.clustering.cluster_of(nearest)

    def test_join_duplicate_rejected(self, framework, dyn):
        existing = dyn.proxies[0]
        with pytest.raises(MembershipError):
            dyn.join(existing, frozenset({"s0"}))

    def test_join_updates_placement_and_space(self, framework, dyn):
        router_id = free_stub(framework, dyn)
        dyn.join(router_id, frozenset({"zzz"}))
        assert dyn.overlay.placement[router_id] == frozenset({"zzz"})
        assert router_id in dyn.space

    @pytest.mark.parametrize(
        "coords",
        [(1.0,), (1.0, 2.0, 3.0), (float("nan"), 0.0), (0.0, float("inf"))],
        ids=["1-D", "3-D", "nan", "inf"],
    )
    def test_bad_coordinates_rejected_before_any_state_moves(
        self, framework, dyn, coords
    ):
        """A wrong-dimension or non-finite point names the proxy and leaves
        the overlay as it was — with a freed row waiting to be reused."""
        dyn.leave(dyn.proxies[0])
        assert dyn._free_rows
        router_id = free_stub(framework, dyn)
        before = (
            list(dyn._free_rows), dict(dyn._labels), dyn.version, list(dyn.history)
        )
        with pytest.raises(MembershipError, match=repr(router_id)):
            dyn.join(router_id, frozenset({"s0"}), coords=coords)
        assert before == (
            dyn._free_rows, dyn._labels, dyn.version, dyn.history
        )
        assert router_id not in dyn

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_unusable_measurement_surfaces_before_any_state_moves(
        self, framework, dyn, monkeypatch, bad
    ):
        """A probe that came back NaN or infinite is the embedding's error,
        naming the landmark, raised before the descent and before the
        overlay is touched — with a freed row waiting to be reused."""
        dyn.leave(dyn.proxies[0])
        assert dyn._free_rows
        router_id = free_stub(framework, dyn)
        measure_many = framework.physical.measure_many

        def broken(sources, targets, **kwargs):
            measured = measure_many(sources, targets, **kwargs)
            measured[0, 4] = bad
            return measured

        monkeypatch.setattr(framework.physical, "measure_many", broken)
        before = (
            list(dyn._free_rows), dict(dyn._labels), dyn.version, list(dyn.history)
        )
        with pytest.raises(EmbeddingError, match="landmark 4"):
            dyn.join(router_id, frozenset({"s0"}))
        assert before == (
            dyn._free_rows, dyn._labels, dyn.version, dyn.history
        )
        assert router_id not in dyn

    def test_join_record_carries_the_locate_iterations(self, framework):
        """The event log says what the join's own solve cost, beside the
        border pairs it re-reduced; a join at given coordinates ran none."""
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        dyn = DynamicOverlay(
            framework, restructure_tolerance=None, telemetry=telemetry
        )
        first, second = [
            s for s in framework.physical.topology.stub_nodes if s not in dyn
        ][:2]
        dyn.join(first, frozenset({"s0"}))
        dyn.join(second, frozenset({"s0"}), coords=dyn.locate(second))
        located, given = telemetry.events.of_kind("membership.join")
        assert 20 <= located["locate_iterations"] <= 800
        assert "pairs_reduced" in located
        assert "locate_iterations" not in given

    def test_join_recorded_in_history(self, framework, dyn):
        router_id = free_stub(framework, dyn)
        dyn.join(router_id, frozenset({"s0"}))
        assert dyn.history[-1].kind == "join"
        assert dyn.history[-1].proxy == router_id

    def test_joined_proxy_is_routable(self, framework, dyn):
        """A joined proxy's unique service must become reachable."""
        router_id = free_stub(framework, dyn)
        dyn.join(router_id, frozenset({"unique-new-service"}))
        router = HierarchicalRouter(dyn.hfc)
        others = [p for p in dyn.proxies if p != router_id]
        request = ServiceRequest(
            others[0], linear_graph(["unique-new-service"]), others[1]
        )
        path = router.route(request)
        validate_path(path, request, dyn.overlay)
        assert any(h.proxy == router_id for h in path.service_hops())


class TestLeave:
    def test_leave_removes_member(self, framework, dyn):
        victim = dyn.proxies[0]
        before = dyn.size
        dyn.leave(victim)
        assert dyn.size == before - 1
        assert victim not in dyn.proxies

    def test_leave_unknown_rejected(self, dyn):
        with pytest.raises(MembershipError):
            dyn.leave(-999)

    def test_leave_border_reselects(self, framework, dyn):
        """Removing a border proxy must yield a consistent new HFC."""
        border = dyn.hfc.all_border_nodes()[0]
        dyn.leave(border)
        k = dyn.hfc.cluster_count
        for i in range(k):
            for j in range(k):
                if i != j:
                    b = dyn.hfc.border(i, j)
                    assert b != border
                    assert dyn.hfc.cluster_of(b) == i

    def test_last_members_leave_drops_cluster(self, framework, dyn):
        """Draining a whole cluster compacts cluster ids."""
        smallest = min(dyn.clustering.clusters, key=len)
        count_before = dyn.clustering.cluster_count
        for proxy in list(smallest):
            dyn.leave(proxy)
        assert dyn.clustering.cluster_count == count_before - 1

    def test_cannot_shrink_below_two(self, framework):
        dyn = DynamicOverlay(framework, restructure_tolerance=None)
        for proxy in list(dyn.proxies)[:-2]:
            dyn.leave(proxy)
        with pytest.raises(MembershipError):
            dyn.leave(dyn.proxies[0])


class TestRestructure:
    def test_manual_restructure_matches_fresh_quality(self, framework, dyn):
        dyn.restructure()
        assert dyn.quality() == pytest.approx(dyn.fresh_quality(), rel=1e-6)

    def test_restructure_recorded(self, framework, dyn):
        dyn.restructure()
        assert dyn.history[-1].kind == "restructure"

    def test_auto_restructure_triggers(self, framework):
        """With a tolerance, churn sessions must keep quality near fresh."""
        dyn = run_churn_session(
            framework, events=30, seed=4, restructure_tolerance=0.7
        )
        q, fresh = dyn.quality(), dyn.fresh_quality()
        if q == q and fresh == fresh and fresh != float("inf"):  # NaN/inf guard
            assert q >= 0.7 * fresh - 1e-6


class TestVersioning:
    def test_join_and_leave_bump_step(self, framework, dyn):
        v0 = dyn.version
        router_id = free_stub(framework, dyn)
        dyn.join(router_id, frozenset({"s0"}))
        assert dyn.version == v0.bump()
        dyn.leave(router_id)
        assert dyn.version == v0.bump().bump()

    def test_restructure_bumps_epoch(self, dyn):
        epoch = dyn.version.epoch
        dyn.restructure()
        assert dyn.version.epoch == epoch + 1
        assert dyn.version.step == 0

    def test_notifier_fires_per_event(self, framework, dyn):
        seen = []
        dyn.notifier.subscribe(
            lambda version, **info: seen.append((version, info["kind"]))
        )
        router_id = free_stub(framework, dyn)
        dyn.join(router_id, frozenset({"s0"}))
        dyn.leave(router_id)
        assert [kind for _, kind in seen] == ["join", "leave"]
        assert seen[0][0] < seen[1][0]

    def test_full_mode_produces_same_topology(self, framework):
        inc = DynamicOverlay(framework, restructure_tolerance=None)
        full = RebuildingOverlay(framework, restructure_tolerance=None)
        victim = inc.hfc.all_border_nodes()[0]
        inc.leave(victim)
        full.leave(victim)
        assert inc.hfc.borders == full.hfc.borders

    def test_quality_tracking_can_be_disabled(self, framework):
        dyn = DynamicOverlay(
            framework, restructure_tolerance=None, track_quality=False
        )
        dyn.leave(dyn.proxies[0])
        assert dyn.history[-1].quality_after is None

    def test_tolerates_missing_telemetry(self, framework):
        dyn = DynamicOverlay(framework, restructure_tolerance=None)
        dyn.telemetry = None  # e.g. a stripped embedded deployment
        dyn.leave(dyn.proxies[0])  # must not raise
        assert dyn.history[-1].kind == "leave"


class TestPairsReduced:
    """An event says how many closest-pair launches it made, and which base
    pairs it re-elected — in its history entry, the event log, a counter
    and the notifier."""

    def test_counted_where_the_event_is_recorded(self, framework):
        from repro.telemetry import Telemetry

        telemetry = Telemetry()
        dyn = DynamicOverlay(
            framework, restructure_tolerance=None, telemetry=telemetry
        )
        announced = []
        dyn.notifier.subscribe(
            lambda version, **info: announced.append(info["reelected"])
        )
        dyn.leave(dyn.hfc.all_border_nodes()[0])
        dyn.join(free_stub(framework, dyn), frozenset({"s0"}))
        dyn.restructure()
        k = dyn.hfc.cluster_count
        assert [e.pairs_reduced for e in dyn.history] == [
            len(pairs) for pairs in announced
        ]
        assert dyn.history[0].pairs_reduced >= 1  # it bordered something
        assert all(i < j for pairs in announced for i, j in pairs)
        assert sorted(announced[-1]) == [
            (i, j) for i in range(k) for j in range(i + 1, k)
        ]
        logged = [
            event["pairs_reduced"]
            for event in telemetry.events
            if event["kind"].startswith("membership.")
        ]
        assert logged == [e.pairs_reduced for e in dyn.history]
        for event in dyn.history:
            counter = telemetry.registry.counter(
                "membership.border_pairs_reduced", kind=event.kind
            )
            assert counter.value == event.pairs_reduced

    def test_seeded_session_total_repeats_exactly(self):
        """The default session (40 events, tolerance 0.7) at seed 402 on a
        fresh build (a join's probes draw from the network's noise stream):
        a count, so pinned — it moves only if the events or the rule do."""
        from repro.core import HFCFramework

        totals = [
            sum(
                e.pairs_reduced
                for e in run_churn_session(
                    HFCFramework.build(proxy_count=80, seed=7), seed=402
                ).history
            )
            for _ in range(2)
        ]
        assert totals == [29, 29]

    def test_event_cost_is_local_at_n2000_with_three_levels(self):
        """The timing-free form of "a leave is microseconds": at n=2000
        (60 clusters, 8 top-level groups) an event launches the kernel a
        handful of times — most events not once — where it used to launch
        it for every sibling at every level (59 + 7 times), and the level
        stack adds almost nothing."""
        from repro.core import HFCFramework

        big = HFCFramework.build(proxy_count=2000, seed=11)
        plain = DynamicOverlay(big, restructure_tolerance=None, track_quality=False)
        tall = DynamicOverlay(big, restructure_tolerance=None, track_quality=False)
        tall.attach_hierarchy(levels=3)
        rng = random.Random(5)
        free = [s for s in big.physical.topology.stub_nodes if s not in plain]
        joiners = [(r, plain.locate(r)) for r in rng.sample(free, 60)]
        for dyn in (plain, tall):
            for router_id, coords in joiners:
                dyn.join(router_id, frozenset({"s0"}), coords=coords)
            for proxy in random.Random(6).sample(big.overlay.proxies, 60):
                dyn.leave(proxy)
        full_scan = sum(
            count - 1
            for count in (
                big.clustering.cluster_count,
                *(level.count for level in tall.hierarchy().levels),
            )
        )
        for kind in ("join", "leave"):
            base = [e.pairs_reduced for e in plain.history if e.kind == kind]
            stacked = [e.pairs_reduced for e in tall.history if e.kind == kind]
            assert sorted(stacked)[len(stacked) // 2] <= 2
            assert sum(stacked) <= len(stacked) * full_scan / 6
            assert sum(stacked) - sum(base) <= len(stacked)


class TestChurnSession:
    def test_history_populated(self, framework):
        dyn = run_churn_session(framework, events=20, seed=3,
                                restructure_tolerance=None)
        assert len(dyn.history) == 20

    def test_routing_still_works_after_churn(self, framework):
        dyn = run_churn_session(framework, events=25, seed=5,
                                restructure_tolerance=0.7)
        router = HierarchicalRouter(dyn.hfc)
        import random

        rng = random.Random(11)
        for _ in range(5):
            src, dst = rng.sample(dyn.proxies, 2)
            service_union = set()
            for p in dyn.proxies:
                service_union |= dyn.overlay.placement[p]
            services = rng.sample(sorted(service_union), 3)
            request = ServiceRequest(src, linear_graph(services), dst)
            path = router.route(request)
            validate_path(path, request, dyn.overlay)

    def test_single_conquer_equals_batch_conquer_after_churn(self, framework):
        """The conquer stage lists a cluster's providers from its members,
        put in overlay proxy order; the reference filters a whole-overlay
        provider scan by membership. After churn the member lists are no
        longer in overlay order — same candidates, same order, same child
        path all the same, for one child and for all of them in one call."""
        import random

        dyn = run_churn_session(framework, events=40, seed=5,
                                restructure_tolerance=0.7)
        hfc = dyn.hfc
        assert any(
            hfc.members(c) != sorted(hfc.members(c), key=hfc.overlay.index_of)
            for c in range(hfc.cluster_count)
        ), "churn left every member list in overlay order: the test is vacuous"
        router = HierarchicalRouter(hfc)
        reference = ReferenceCspRouter(hfc)
        services = sorted(set().union(*hfc.overlay.placement.values()))
        rng = random.Random(7)
        jobs = []
        for _ in range(20):
            src, dst = rng.sample(dyn.proxies, 2)
            request = ServiceRequest(src, linear_graph(rng.sample(services, 3)), dst)
            for child in router.dissect(request, router.cluster_level_path(request)):
                jobs.append((request, child))
        assert sum(bool(child.slots) for _, child in jobs) >= 20
        expected = [reference.solve_child(*job) for job in jobs]
        assert [router.solve_child(*job) for job in jobs] == expected
        assert router._conquer(jobs) == [path.hops for path in expected]

    def test_framework_untouched(self, framework):
        before_proxies = list(framework.overlay.proxies)
        before_labels = dict(framework.clustering.labels)
        run_churn_session(framework, events=15, seed=6)
        assert framework.overlay.proxies == before_proxies
        assert framework.clustering.labels == before_labels
