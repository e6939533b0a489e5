"""Tests for the dynamic-membership extension (joins, leaves, restructuring)."""

import pytest

from repro.membership import DynamicOverlay, run_churn_session
from repro.routing import HierarchicalRouter, validate_path
from repro.services import ServiceRequest, linear_graph
from repro.util.errors import MembershipError
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
        nearest = dyn.space.nearest(router_id, [p for p in dyn.proxies if p != router_id])
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
