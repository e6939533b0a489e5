"""Property-based tests of routing over fully synthetic overlays.

Rather than running the expensive build pipeline, these tests generate
small overlays directly — random proxy coordinates, random service
placements, random (valid) clusterings — and assert the routing invariants
that must hold for *any* input:

* hierarchical routing returns a valid path or raises NoFeasiblePathError;
* the chosen slots always form a feasible configuration;
* dissection chains children through the correct border proxies;
* the HFC full-state router (a relaxation) never reports a longer
  coordinate length than the composed hierarchical path.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.mstcluster import Clustering
from repro.coords.space import CoordinateSpace
from repro.netsim.physical import PhysicalNetwork
from repro.netsim.topology import waxman
from repro.overlay.hfc import build_hfc
from repro.overlay.network import OverlayNetwork
from repro.routing import (
    HierarchicalRouter,
    hfc_full_state_router,
    validate_path,
)
from repro.services import ServiceRequest, linear_graph
from repro.util.errors import NoFeasiblePathError

#: one shared physical substrate; synthetic overlays draw proxies from it
_PHYSICAL = PhysicalNetwork(waxman(40, seed=1234), noise=0.0, seed=99)


@st.composite
def synthetic_overlay(draw):
    """A small overlay with arbitrary coordinates/placement/clustering."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(min_value=4, max_value=16))
    proxies = _PHYSICAL.graph.nodes()[:n]

    coords = {
        p: (
            draw(st.floats(-100, 100, allow_nan=False, allow_infinity=False)),
            draw(st.floats(-100, 100, allow_nan=False, allow_infinity=False)),
        )
        for p in proxies
    }
    space = CoordinateSpace(coords)

    catalog = [f"s{i}" for i in range(draw(st.integers(2, 6)))]
    placement = {
        p: frozenset(rng.sample(catalog, rng.randint(1, len(catalog))))
        for p in proxies
    }
    overlay = OverlayNetwork(
        physical=_PHYSICAL, proxies=list(proxies), placement=placement, space=space
    )

    # random valid partition into 1..4 clusters
    cluster_count = draw(st.integers(1, min(4, n)))
    labels = {}
    # guarantee non-empty clusters: first `cluster_count` proxies seed them
    for i, p in enumerate(proxies):
        labels[p] = i if i < cluster_count else rng.randrange(cluster_count)
    clusters = [[] for _ in range(cluster_count)]
    for p in proxies:
        clusters[labels[p]].append(p)
    clustering = Clustering(
        clusters=[sorted(c) for c in clusters], labels=labels
    )
    hfc = build_hfc(overlay, clustering)

    length = draw(st.integers(1, 4))
    services = [rng.choice(catalog) for _ in range(length)]
    src, dst = rng.sample(list(proxies), 2)
    request = ServiceRequest(src, linear_graph(services), dst)
    return hfc, request


@settings(max_examples=60, deadline=None)
@given(synthetic_overlay())
def test_hierarchical_routing_total(case):
    """Property: route() either returns a valid path or raises cleanly."""
    hfc, request = case
    router = HierarchicalRouter(hfc)
    try:
        path = router.route(request)
    except NoFeasiblePathError:
        return
    validate_path(path, request, hfc.overlay)


@settings(max_examples=40, deadline=None)
@given(synthetic_overlay())
def test_dissection_border_chaining(case):
    """Property: consecutive children connect through the border pair."""
    hfc, request = case
    router = HierarchicalRouter(hfc)
    try:
        result = router.route_detailed(request)
    except NoFeasiblePathError:
        return
    children = result.child_requests
    assert children[0].source_proxy == request.source_proxy
    assert children[-1].destination_proxy == request.destination_proxy
    for prev, nxt in zip(children, children[1:]):
        assert prev.destination_proxy == hfc.border(prev.cluster, nxt.cluster)
        assert nxt.source_proxy == hfc.border(nxt.cluster, prev.cluster)


@settings(max_examples=40, deadline=None)
@given(synthetic_overlay())
def test_full_state_relaxation_bound(case):
    """Property: the full-state router's coordinate length never exceeds
    the hierarchical path's (it optimises over a superset of choices)."""
    hfc, request = case
    hier = HierarchicalRouter(hfc)
    full = hfc_full_state_router(hfc)
    try:
        hier_path = hier.route(request)
        full_path = full.route(request)
    except NoFeasiblePathError:
        return
    overlay = hfc.overlay
    assert full_path.estimated_length(overlay) <= (
        hier_path.estimated_length(overlay) + 1e-6
    )


@settings(max_examples=40, deadline=None)
@given(synthetic_overlay())
def test_methods_agree_on_feasibility(case):
    """Property: all three CSP methods agree on whether a request is
    feasible (they differ only in edge costs, not reachability)."""
    hfc, request = case
    outcomes = {}
    for method in ("backtrack", "exact", "external"):
        router = HierarchicalRouter(hfc, method=method)
        try:
            router.route(request)
            outcomes[method] = True
        except NoFeasiblePathError:
            outcomes[method] = False
    assert len(set(outcomes.values())) == 1, outcomes


@settings(max_examples=20, deadline=None)
@given(synthetic_overlay())
def test_protocol_converges_on_arbitrary_structures(case):
    """Property: the state protocol converges on any valid cluster layout."""
    from repro.state import StateDistributionProtocol

    hfc, _ = case
    protocol = StateDistributionProtocol(hfc, seed=1)
    report = protocol.run(max_time=20000.0)
    assert report.converged_at is not None


@settings(max_examples=20, deadline=None)
@given(synthetic_overlay())
def test_three_level_routing_total(case):
    """Property: depth-3 recursive routing is total on arbitrary structures
    and path-identical to the three-level prototype."""
    from repro.hierarchy import RecursiveRouter, build_levels
    from tests.oracles.three_level import ThreeLevelRouter, build_multilevel

    hfc, request = case
    router = RecursiveRouter(build_levels(hfc, 3))
    prototype = ThreeLevelRouter(build_multilevel(hfc))
    try:
        path = router.route(request)
    except NoFeasiblePathError as exc:
        with pytest.raises(NoFeasiblePathError) as caught:
            prototype.route(request)
        assert str(caught.value) == str(exc)
        return
    validate_path(path, request, hfc.overlay)
    assert path == prototype.route(request)


@settings(max_examples=20, deadline=None)
@given(synthetic_overlay())
def test_overhead_accounting_consistent(case):
    """Property: Fig-9 accounting formulas hold on any structure."""
    from repro.state import coordinates_node_states, service_node_states

    hfc, _ = case
    coords = coordinates_node_states(hfc)
    service = service_node_states(hfc)
    borders = set(hfc.all_border_nodes())
    for proxy in hfc.overlay.proxies:
        members = set(hfc.members(hfc.cluster_of(proxy)))
        assert coords[proxy] == len(members) + len(borders - members)
        assert service[proxy] == len(members) + hfc.cluster_count
        # state is never larger than the flat alternative
        assert coords[proxy] <= hfc.overlay.size + len(borders)
