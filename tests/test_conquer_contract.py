"""The divide-and-conquer half of the pipeline, by its contract.

The conquer hook answers **per child its hop sequence** (what
``ServicePath.hops`` holds) **or its ``NoFeasiblePathError``**; ``compose``
concatenates and merges hop sequences; ``HierarchicalResult.child_paths``
wraps them on first read. These tests pin that contract over every router
class that rides the hook, the map step's index over the four ways a
capability view is replaced, and the per-request outcome of an endpoint that
is not an overlay member.
"""

import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.mstcluster import Clustering
from repro.coords.space import CoordinateSpace
from repro.core.versioning import MutableCapabilityFeed
from repro.hierarchy import RecursiveRouter, build_levels
from repro.membership import DynamicOverlay
from repro.overlay.hfc import build_hfc
from repro.overlay.network import OverlayNetwork
from repro.routing import ChildRequest, HierarchicalRouter, Hop, ServicePath
from repro.routing.cache import CachedHierarchicalRouter
from repro.routing.path import merge_consecutive_hops
from repro.services import ServiceRequest, linear_graph
from repro.util.errors import NoFeasiblePathError
from tests.oracles.csp import child_hops, flat_child_hops
from tests.test_query_batch import (
    _PHYSICAL,
    STAIRCASE_PAIRS,
    _assert_same_resolution,
    _ReferenceRecursive,
)
from tests.oracles.shortest_paths import physical_graph


def _recursive_pair(hfc, caps):
    """Depth 3, its *top-level* view claiming the unhosted service for group 0."""
    top = RecursiveRouter(build_levels(hfc, 3)).cluster_capabilities
    top[0] = top[0] | {"ghost"}
    return tuple(
        cls(build_levels(hfc, 3), cluster_capabilities=top)
        for cls in (RecursiveRouter, _ReferenceRecursive)
    )


#: the rotation ROADMAP 1(b) asks for: every class that rides the hook
ROTATION = {
    **{name: STAIRCASE_PAIRS[name] for name in ("backtrack", "cached", "centroid", "qos")},
    "recursive-3": _recursive_pair,
}


def _seeded_overlay(seed=20):
    """40 proxies in 6 clusters over the shared substrate, seeded."""
    rng = random.Random(seed)
    proxies = physical_graph(_PHYSICAL).nodes()[:40]
    space = CoordinateSpace({p: (rng.uniform(-100, 100), rng.uniform(-100, 100)) for p in proxies})
    catalog = [f"s{i}" for i in range(8)]
    placement = {p: frozenset(rng.sample(catalog, rng.randint(1, 3))) for p in proxies}
    overlay = OverlayNetwork(
        physical=_PHYSICAL, proxies=list(proxies), placement=placement, space=space
    )
    labels = {p: i if i < 6 else rng.randrange(6) for i, p in enumerate(proxies)}
    clusters = [sorted(p for p in proxies if labels[p] == c) for c in range(6)]
    return build_hfc(overlay, Clustering(clusters=clusters, labels=labels)), catalog, rng


def _seeded_requests(hfc, catalog, rng):
    """Chains of length 1..6 between random proxies, one through the service
    cluster 0 only claims to host, one naming a service nobody offers."""
    proxies = list(hfc.overlay.proxies)

    def request(names):
        src, dst = rng.sample(proxies, 2)
        return ServiceRequest(src, linear_graph(names), dst)

    requests = [
        request([rng.choice(catalog) for _ in range(length)])
        for length in range(1, 7)
        for _ in range(4)
    ]
    requests.append(request([rng.choice(catalog), "ghost", rng.choice(catalog)]))
    requests.append(request([rng.choice(catalog), "nowhere"]))
    rng.shuffle(requests)
    return requests


@pytest.mark.parametrize("make", ROTATION.values(), ids=ROTATION.keys())
def test_every_router_class_answers_with_hops(make):
    hfc, catalog, rng = _seeded_overlay()
    requests = _seeded_requests(hfc, catalog, rng)
    # cluster 0 advertises a service none of its members hosts: a child its
    # cluster cannot serve
    caps = HierarchicalRouter(hfc).cluster_capabilities
    caps[0] = caps[0] | {"ghost"}
    router, oracle = make(hfc, caps)
    single, _ = make(hfc, caps)

    batch = router._resolve(requests)
    want = oracle._resolve(requests)
    relays = refused = 0
    for request, got, expected in zip(requests, batch, want):
        _assert_same_resolution(got, expected)  # production == the scalar reference
        if isinstance(got, NoFeasiblePathError):
            with pytest.raises(NoFeasiblePathError) as caught:  # batch == singles
                single.route_detailed(request)
            assert str(caught.value) == str(got)
            try:
                oracle.cluster_level_path(request)
            except NoFeasiblePathError:
                continue
            refused += 1  # the cluster level found a path: a child's cluster said no
            continue
        assert single.route_detailed(request) == got
        for hops in got.child_hops:
            assert type(hops) is tuple and hops
            assert all(type(hop) is Hop for hop in hops)
        children = got.child_requests
        relays += sum(not child.slots for child in children)
        assert got.child_paths == [router.solve_child(request, child) for child in children]
        assert router._conquer(children) == got.child_hops
        assert router.compose(request, got.child_paths) == got.path
        assert router.compose(request, got.child_hops) == got.path
    assert relays, "no empty relay child in the seeded batch: the test is vacuous"
    assert refused, "no infeasible child in the seeded batch: the test is vacuous"


def test_an_infeasible_child_is_an_error_in_its_own_slot():
    hfc, catalog, rng = _seeded_overlay()
    caps = HierarchicalRouter(hfc).cluster_capabilities
    caps[0] = caps[0] | {"ghost"}
    router = HierarchicalRouter(hfc, cluster_capabilities=caps)
    inside = [p for p in hfc.overlay.proxies if hfc.cluster_of(p) != 0]
    request = ServiceRequest(inside[0], linear_graph([catalog[0], "ghost"]), inside[1])
    children = router.dissect(request, router.cluster_level_path(request))
    outcomes = router._conquer(children)
    assert len(outcomes) == len(children)
    for child, outcome in zip(children, outcomes):
        if "ghost" in child.services:
            assert isinstance(outcome, NoFeasiblePathError)
            assert str(outcome).startswith("cluster 0 cannot serve child request")
            with pytest.raises(NoFeasiblePathError):
                router.solve_child(request, child)
        else:
            assert outcome == router.solve_child(request, child).hops
    assert any(isinstance(outcome, NoFeasiblePathError) for outcome in outcomes)


def test_child_paths_are_wrapped_only_when_read():
    """One ``ServicePath`` per routed request — the answer — and none per
    child until somebody asks for ``child_paths``."""
    hfc, catalog, rng = _seeded_overlay()
    requests = _seeded_requests(hfc, catalog, rng)
    router = HierarchicalRouter(hfc)
    built = []
    with mock.patch.object(
        ServicePath, "__post_init__", autospec=True, side_effect=built.append
    ):
        results = router._resolve(requests)
        routed = [r for r in results if not isinstance(r, NoFeasiblePathError)]
        assert len(routed) > 20
        assert len(built) == len(routed)
        first = routed[0]
        paths = first.child_paths
        assert len(built) == len(routed) + len(first.child_requests)
        assert first.child_paths is paths  # wrapped once
    assert [path.hops for path in paths] == first.child_hops


# -- property: conditional end relays, then one merge ------------------------------


def _pr16_child_path(child, proxies):
    """``_materialise_chain`` as PR 16 had it."""
    hops = [Hop(*hop) for hop in zip(proxies, child.services, child.slots)]
    if not hops or hops[0].proxy != child.source_proxy:
        hops.insert(0, Hop(proxy=child.source_proxy))
    if hops[-1].proxy != child.destination_proxy:
        hops.append(Hop(proxy=child.destination_proxy))
    return ServicePath(hops=tuple(hops))


def _pr16_compose(child_paths):
    hops = []
    for child_path in child_paths:
        hops.extend(child_path.hops)
    return ServicePath(hops=tuple(merge_consecutive_hops(hops)))


@st.composite
def solved_children(draw):
    """Children of one request with the proxies picked for them, over five
    proxy ids so that ends, picks and neighbouring children coincide often."""
    proxy = st.integers(0, 4)
    children, slot = [], 0
    for cluster in range(draw(st.integers(1, 5))):
        picks = draw(st.lists(proxy, max_size=4))
        slots = tuple(range(slot, slot + len(picks)))
        slot += len(picks)
        child = ChildRequest(
            cluster=cluster,
            slots=slots,
            services=tuple(f"s{s % 3}" for s in slots),
            source_proxy=draw(proxy),
            destination_proxy=draw(proxy),
        )
        children.append((child, picks))
    return children


@settings(max_examples=300, deadline=None)
@given(solved_children())
def test_hops_then_one_merge_equal_paths_then_compose(children):
    router = HierarchicalRouter.__new__(HierarchicalRouter)
    hop_sequences = [child_hops(child, picks) for child, picks in children]
    for hops, (child, picks) in zip(hop_sequences, children):
        assert hops == _pr16_child_path(child, picks).hops == flat_child_hops(child, picks)
    composed = router.compose(None, hop_sequences)
    assert composed == _pr16_compose([_pr16_child_path(*solved) for solved in children])
    assert composed == _pr16_compose(
        [ServicePath(hops=flat_child_hops(*solved)) for solved in children]
    )
    assert composed == router.compose(None, [ServicePath(hops=hops) for hops in hop_sequences])


# -- the map step's index -----------------------------------------------------------


def _scan(router, service):
    """The map step as it was: every cluster's capability set, in id order."""
    return [
        cid
        for cid in range(router.hfc.cluster_count)
        if service in router.cluster_capabilities.get(cid, frozenset())
    ]


def _mapped(router, service):
    return router.cluster_candidates(linear_graph([service]))[0]


def _moved(capabilities, service, to):
    """*capabilities* with *service* offered by cluster *to* alone."""
    return {
        cid: (services - {service}) | ({service} if cid == to else set())
        for cid, services in capabilities.items()
    }


class TestMapIndex:
    def test_same_lists_as_the_scan(self, framework):
        router = HierarchicalRouter(framework.hfc)
        for service in list(framework.catalog.names) + ["nowhere"]:
            assert _mapped(router, service) == _scan(router, service)
        offering = {}
        sg = linear_graph(list(framework.catalog.names)[:3])
        assert router.cluster_candidates(sg, offering) == {
            slot: _scan(router, service) for slot, service in sg.services.items()
        }
        assert set(offering) == set(sg.services.values())

    def test_rebuilt_after_a_feed_sync(self, framework):
        service = framework.catalog.names[0]
        base = HierarchicalRouter(framework.hfc).cluster_capabilities
        feed = MutableCapabilityFeed(base)
        router = HierarchicalRouter(framework.hfc, capability_feed=feed)
        router.refresh_capabilities()
        before = _mapped(router, service)
        assert before == _scan(router, service)
        feed.publish(_moved(base, service, to=1))
        router.refresh_capabilities()
        assert _mapped(router, service) == _scan(router, service) == [1] != before

    def test_rebuilt_after_a_rebind(self, framework):
        dyn = DynamicOverlay(framework, restructure_tolerance=None)
        router = HierarchicalRouter(dyn.hfc)
        assert _mapped(router, "brand-new") == []
        used = set(dyn.proxies)
        newcomer = next(
            s for s in framework.physical.topology.stub_nodes if s not in used
        )
        dyn.join(newcomer, frozenset({"brand-new"}))
        router.rebind(dyn.hfc)
        assert _mapped(router, "brand-new") == [dyn.hfc.cluster_of(newcomer)]

    def test_rebuilt_after_update_capabilities(self, framework):
        service = framework.catalog.names[0]
        router = CachedHierarchicalRouter(framework.hfc)
        before = _mapped(router, service)
        router.update_capabilities(_moved(router.cluster_capabilities, service, to=2))
        assert _mapped(router, service) == _scan(router, service) == [2] != before

    def test_rebuilt_after_plain_assignment(self, framework):
        service = framework.catalog.names[0]
        router = HierarchicalRouter(framework.hfc)
        before = _mapped(router, service)
        router.cluster_capabilities = _moved(router.cluster_capabilities, service, to=3)
        assert _mapped(router, service) == _scan(router, service) == [3] != before


# -- plain data ---------------------------------------------------------------------


class TestPlainData:
    def test_hop(self):
        hop = Hop(proxy=7, service="s1", slot=2)
        assert hop == Hop(7, "s1", 2)
        assert (hop.proxy, hop.service, hop.slot) == (7, "s1", 2)
        assert repr(hop) == "s1/7" and repr(Hop(proxy=7)) == "-/7"
        assert Hop(proxy=7) == Hop(7, None, None)
        assert hash(hop) == hash(Hop(7, "s1", 2)) and len({hop, Hop(7, "s1", 2), Hop(7)}) == 2
        assert pickle.loads(pickle.dumps(hop)) == hop
        assert type(pickle.loads(pickle.dumps(hop))) is Hop
        with pytest.raises(AttributeError):
            hop.proxy = 8

    def test_child_request(self):
        child = ChildRequest(
            cluster=3, slots=(0, 1), services=("a", "b"), source_proxy=5, destination_proxy=9
        )
        assert child == ChildRequest(3, (0, 1), ("a", "b"), 5, 9)
        assert repr(child) == (
            "ChildRequest(cluster=3, slots=(0, 1), services=('a', 'b'), "
            "source_proxy=5, destination_proxy=9)"
        )
        assert hash(child) == hash(ChildRequest(3, (0, 1), ("a", "b"), 5, 9))
        restored = pickle.loads(pickle.dumps(child))
        assert restored == child and type(restored) is ChildRequest
        with pytest.raises(AttributeError):
            child.cluster = 4

    def test_a_path_of_hops_pickles(self):
        path = ServicePath(hops=(Hop(1), Hop(2, "s", 0), Hop(3)))
        assert pickle.loads(pickle.dumps(path)) == path
        assert repr(path) == "<-/1, s/2, -/3>"


# -- an endpoint that is not a member ---------------------------------------------


class TestUnknownEndpoint:
    def _requests(self, framework, stranger):
        a, b, c = framework.overlay.proxies[:3]
        names = list(framework.catalog.names)[:2]
        return [
            ServiceRequest(a, linear_graph(names), b),
            ServiceRequest(stranger, linear_graph(names), b),
            ServiceRequest(b, linear_graph(names), c),
            ServiceRequest(a, linear_graph(names), stranger),
        ]

    def test_batch_keeps_the_other_requests(self, framework):
        stranger = max(framework.overlay.proxies) + 1
        requests = self._requests(framework, stranger)
        router = HierarchicalRouter(framework.hfc)
        result = router.route_many_detailed(requests)
        assert [error is None for error in result.errors] == [True, False, True, False]
        assert result.paths[0] == router.route(requests[0])
        assert result.paths[2] == router.route(requests[2])
        assert str(result.errors[1]) == f"source proxy {stranger!r} is not an overlay member"
        assert str(result.errors[3]) == f"destination proxy {stranger!r} is not an overlay member"
        with pytest.raises(NoFeasiblePathError, match="source proxy .* is not an overlay member"):
            router.route_many(requests)

    def test_single_route_raises_the_same(self, framework):
        stranger = max(framework.overlay.proxies) + 1
        requests = self._requests(framework, stranger)
        for router in (
            HierarchicalRouter(framework.hfc),
            CachedHierarchicalRouter(framework.hfc),
        ):
            batch = router.route_many_detailed(requests)
            for at in (1, 3):
                with pytest.raises(NoFeasiblePathError) as caught:
                    router.route(requests[at])
                assert str(caught.value) == str(batch.errors[at])
                with pytest.raises(NoFeasiblePathError):
                    router.cluster_level_path(requests[at])

    def test_a_proxy_that_left_is_no_longer_an_endpoint(self, framework):
        dyn = DynamicOverlay(framework, restructure_tolerance=None)
        router = HierarchicalRouter(dyn.hfc)
        a, gone, b = dyn.proxies[0], dyn.proxies[1], dyn.proxies[2]
        names = list(framework.catalog.names)[:2]
        requests = [
            ServiceRequest(a, linear_graph(names), b),
            ServiceRequest(gone, linear_graph(names), b),
        ]
        assert router.route_many_detailed(requests).infeasible_count == 0
        dyn.leave(gone)
        router.rebind(dyn.hfc)
        result = router.route_many_detailed(requests)
        assert result.errors[0] is None and result.paths[0] is not None
        assert str(result.errors[1]) == f"source proxy {gone!r} is not an overlay member"
