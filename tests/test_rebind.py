"""A rebind costs what the churn changed.

``HierarchicalRouter.rebind`` carries what a feed-less router derived from
its view — the per-cluster provider entries and aggregates, the map step's
index, the query tables — to the next view, patched from the
``membership_changes`` record ``DynamicOverlay`` hands that view
(:func:`repro.routing.batch.rebind_derived`). These tests hold the carried
structures to a cold derivation on the same view (the tables bit for bit),
pin which cases fall back to the full derivation and say so in the
``routing.rebind`` event, and check that no predecessor view stays alive.
"""

import gc
import random
import weakref

import pytest

from repro.core import HFCFramework
from repro.core.versioning import MutableCapabilityFeed
from repro.membership import DynamicOverlay
from repro.routing import HierarchicalRouter
from repro.services import ServiceRequest, linear_graph
from repro.telemetry import Telemetry
from tests.oracles.rebind import assert_carried_state_is_cold


def churn(dyn, rng, events):
    names = list(dyn.framework.catalog.names)
    for _ in range(events):
        free = [r for r in dyn.framework.physical.topology.stub_nodes if r not in dyn]
        if free and rng.random() < 0.5:
            dyn.join(rng.choice(free), frozenset(rng.sample(names, rng.randint(1, 5))))
        else:
            dyn.leave(rng.choice(dyn.proxies))


def route_some(router, dyn, rng, count=20):
    services = sorted(set().union(*router.hfc.overlay.placement.values()))
    for _ in range(count):
        src, dst = rng.sample(dyn.proxies, 2)
        router.route_many_detailed(
            [ServiceRequest(src, linear_graph(rng.sample(services, 3)), dst)]
        )


def rebinds(telemetry):
    return [
        {key: value for key, value in event.items() if key not in ("ts", "clock", "kind")}
        for event in telemetry.events.of_kind("routing.rebind")
    ]


@pytest.fixture(scope="module")
def framework300():
    return HFCFramework.build(proxy_count=300, seed=3)


def test_patched_blocks_equal_a_cold_derivation(framework300):
    """Blocks of eight events between rebinds: every rebind patches, and
    what it carried is what a cold derivation builds."""
    telemetry = Telemetry()
    dyn = DynamicOverlay(framework300, restructure_tolerance=None, track_quality=False)
    router = HierarchicalRouter(dyn.hfc, telemetry=telemetry)
    rng = random.Random(11)
    route_some(router, dyn, rng)
    for _ in range(10):
        churn(dyn, rng, 8)
        moves = len(dyn._changes.moves)
        router.rebind(dyn.hfc)
        assert_carried_state_is_cold(router)
        route_some(router, dyn, rng)
        assert_carried_state_is_cold(router)
        event = rebinds(telemetry)[-1]
        assert event["mode"] == "patched" and event["members_moved"] == moves
    events = rebinds(telemetry)
    assert all(event["clusters_reaggregated"] < dyn.hfc.cluster_count for event in events)
    assert sum(event["pairs_patched"] for event in events) > 0
    assert sum(event["services_flipped"] for event in events) > 0


def test_what_takes_the_full_derivation(framework300):
    """A view no record relates to the bound one (a framework-built view), a
    renumbering and a restructure derive afresh; a feed-bound router syncs
    with its feed; a rebind to the same view patches nothing."""
    telemetry = Telemetry()
    dyn = DynamicOverlay(framework300, restructure_tolerance=None, track_quality=False)
    router = HierarchicalRouter(framework300.hfc, telemetry=telemetry)
    router.rebind(dyn.hfc)
    router.rebind(dyn.hfc)
    clusters = dyn.clustering.clusters
    for proxy in list(min(clusters, key=len)):
        dyn.leave(proxy)
    router.rebind(dyn.hfc)
    assert_carried_state_is_cold(router)
    dyn.restructure()
    router.rebind(dyn.hfc)
    assert_carried_state_is_cold(router)
    feed = MutableCapabilityFeed(router.cluster_capabilities)
    HierarchicalRouter(dyn.hfc, capability_feed=feed, telemetry=telemetry).rebind(dyn.hfc)
    assert [event["mode"] for event in rebinds(telemetry)] == [
        "first bind", "patched", "renumbered", "restructured", "feed"
    ]
    first, same = rebinds(telemetry)[:2]
    nothing = dict(members_moved=0, pairs_patched=0, services_flipped=0)
    assert first == dict(nothing, mode="first bind", clusters_reaggregated=framework300.hfc.cluster_count)
    assert same == dict(nothing, mode="patched", clusters_reaggregated=0)


def test_an_unchanged_cluster_keeps_its_aggregate_object(framework300):
    dyn = DynamicOverlay(framework300, restructure_tolerance=None, track_quality=False)
    router = HierarchicalRouter(dyn.hfc)
    before = router.cluster_capabilities
    churn(dyn, random.Random(5), 3)
    touched = {cluster for _, _, cluster in dyn._changes.moves}
    router.rebind(dyn.hfc)
    after = router.cluster_capabilities
    assert after is not before
    assert all(after[c] is before[c] for c in after if c not in touched)


def test_a_live_placement_write_shows_through_a_patch(framework300):
    """A placement set rewritten on the new view before the rebind is a
    different object: its cluster is aggregated again, not carried."""
    dyn = DynamicOverlay(framework300, restructure_tolerance=None, track_quality=False)
    router = HierarchicalRouter(dyn.hfc)
    churn(dyn, random.Random(6), 4)
    hfc = dyn.hfc
    proxy = hfc.members(0)[0]
    hfc.overlay.placement[proxy] = frozenset({"brand-new"})
    router.rebind(hfc)
    assert "brand-new" in router.cluster_capabilities[0]
    assert router.cluster_candidates(linear_graph(["brand-new"]))[0] == [0]
    assert_carried_state_is_cold(router)


def test_no_predecessor_view_is_kept_alive(framework300):
    dyn = DynamicOverlay(framework300, restructure_tolerance=None, track_quality=False)
    router = HierarchicalRouter(dyn.hfc)
    route_some(router, dyn, random.Random(7))
    first = weakref.ref(dyn.hfc)
    churn(dyn, random.Random(7), 6)
    router.rebind(dyn.hfc)
    gc.collect()
    assert first() is None
