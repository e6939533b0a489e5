"""The recursive hierarchy: exactness contracts at every depth.

Four contracts pin the level-generic abstraction to the code it replaces:

* depth 2 wraps the bi-level HFC untouched — routing matrices and query
  tables bit-identical to a fresh :func:`build_hfc` (hypothesis-driven
  across churned overlays);
* depth 3 is decision-for-decision the old three-level prototype —
  :class:`RecursiveRouter` routes path-identically to
  ``ThreeLevelRouter`` and the state accounting matches entry for entry;
* an incrementally churned level stack is bit-equal to a cold
  ``build_levels(..., assignments=...)`` rebuild under the same sticky
  assignment (hypothesis-driven, including the cluster-vanish cascade);
* snapshots round-trip the full stack and warm-started routers route
  identically.
"""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HFCFramework
from repro.hierarchy import HierarchyLevels, RecursiveRouter, build_levels
from repro.membership import DynamicOverlay
from repro.overlay.hfc import build_hfc
from repro.persistence import load_snapshot, save_snapshot
from repro.routing.batch import query_tables
from repro.state.delta import (
    DeltaAssembler,
    DeltaEmitter,
    announce_aggregates,
    assemble_aggregates,
)
from repro.state.overhead import coordinates_node_states, service_node_states
from repro.util.errors import NoFeasiblePathError, RoutingError, TopologyError
from repro.util.rng import ensure_rng
from tests.oracles.churn import assert_levels_equal, assert_matches_cold_levels
from tests.oracles.three_level import ThreeLevelRouter, build_multilevel


def _join_pool(framework, count, seed):
    """Pre-measured join candidates: (router, services, coords) triples."""
    probe = DynamicOverlay(
        framework, restructure_tolerance=None, track_quality=False
    )
    rng = ensure_rng(seed)
    catalog = list(framework.catalog.names)
    free = [
        s
        for s in framework.physical.topology.stub_nodes
        if not probe.is_member(s)
    ]
    rng.shuffle(free)
    pool = []
    for router in free[:count]:
        services = frozenset(
            rng.sample(catalog, rng.randint(2, min(6, len(catalog))))
        )
        pool.append((router, services, probe.locate(router)))
    return pool


def _outcome(router, request):
    try:
        return router.route(request)
    except NoFeasiblePathError as err:
        return ("err", str(err))


def _replay(dyn, pool, decisions):
    """Drive one decision sequence (joins/leaves/restructure) into *dyn*."""
    next_join = 0
    for step, choice in enumerate(decisions):
        join_ok = next_join < len(pool)
        if choice == 8:
            dyn.restructure()
        elif (choice < 4 and join_ok) or (dyn.size <= 3 and join_ok):
            router, services, coords = pool[next_join]
            next_join += 1
            dyn.join(router, services, coords=coords)
        elif dyn.size > 3:
            dyn.leave(dyn.proxies[(choice * 7 + step) % dyn.size])


@pytest.fixture(scope="module")
def pool(tiny_framework):
    return _join_pool(tiny_framework, count=24, seed=77)


@pytest.fixture(scope="module")
def hierarchy3(framework):
    return build_levels(framework.hfc, 3)


# -- depth 2: the bi-level identity ---------------------------------------------


class TestDepthTwo:
    def test_wraps_the_topology_untouched(self, framework):
        h = framework.build_hierarchy(levels=2)
        assert h.depth == 2 and not h.levels
        assert h.hfc is framework.hfc
        assert h.top_count == framework.hfc.cluster_count
        route, true = h.hfc.routing_matrices()
        fresh = build_hfc(
            framework.overlay, framework.clustering, framework.space
        )
        froute, ftrue = fresh.routing_matrices()
        assert np.array_equal(route, froute)
        assert np.array_equal(true, ftrue)
        router = framework.hierarchy_router(levels=2)
        assert type(router).__name__ == "HierarchicalRouter"

    def test_depth_two_leaves_an_attached_stack_alone(self, tmp_path):
        """Asking for depth 2 after depth 3 keeps the stack on the columnar
        state: a snapshot still carries it and depth 3 comes back as the same
        level objects, without re-clustering."""
        fw = HFCFramework.build(proxy_count=60, seed=3)
        three = fw.build_hierarchy(3)
        stack = list(fw.columnar.levels)
        assert len(stack) == 1
        assert fw.build_hierarchy(2).depth == 2
        router = fw.hierarchy_router(levels=2)
        assert type(router).__name__ == "HierarchicalRouter"
        assert [id(level) for level in fw.columnar.levels] == [id(level) for level in stack]
        path = str(tmp_path / "overlay.npz")
        save_snapshot(fw, path)
        assert_levels_equal(load_snapshot(path).columnar.levels, stack)
        again = fw.build_hierarchy(3)
        assert [id(level) for level in again.levels] == [id(level) for level in three.levels]

    @settings(max_examples=10, deadline=None)
    @given(decisions=st.lists(st.integers(0, 7), min_size=1, max_size=8))
    def test_hypothesis_churned_depth2_matches_build_hfc(
        self, tiny_framework, pool, decisions
    ):
        dyn = DynamicOverlay(
            tiny_framework, restructure_tolerance=None, track_quality=False
        )
        _replay(dyn, pool, decisions)
        h = build_levels(dyn.hfc, 2)
        fresh = build_hfc(dyn.overlay, dyn.clustering, dyn.space)
        route, true = h.hfc.routing_matrices()
        froute, ftrue = fresh.routing_matrices()
        assert np.array_equal(route, froute)
        assert np.array_equal(true, ftrue)
        tables, ftables = query_tables(h.hfc), query_tables(fresh)
        assert np.array_equal(tables.ext, ftables.ext)
        assert np.array_equal(tables.d_border, ftables.d_border)


# -- depth 3: the prototype identity --------------------------------------------


class TestDepthThreeIdentity:
    def test_routing_path_identical_to_three_level_router(
        self, framework, hierarchy3
    ):
        new = RecursiveRouter(hierarchy3)
        old = ThreeLevelRouter(build_multilevel(framework.hfc))
        for i in range(40):
            request = framework.random_request(seed=300 + i)
            assert _outcome(new, request) == _outcome(old, request)

    def test_state_accounting_matches_prototype(self, framework, hierarchy3):
        ml = build_multilevel(framework.hfc)
        assert (
            hierarchy3.coordinates_node_states()
            == ml.coordinates_node_states()
        )
        assert hierarchy3.service_node_states() == ml.service_node_states()

    def test_depth2_accounting_matches_overhead_module(self, framework):
        h = build_levels(framework.hfc, 2)
        assert h.coordinates_node_states() == coordinates_node_states(
            framework.hfc
        )
        assert h.service_node_states() == service_node_states(framework.hfc)

    def test_state_bytes_shrink_with_depth(self, framework, hierarchy3):
        h2 = build_levels(framework.hfc, 2)
        assert hierarchy3.mean_state_bytes() <= h2.mean_state_bytes()


# -- any depth: recursion invariants --------------------------------------------


class TestRecursion:
    def test_route_many_matches_scalar(self, framework):
        requests = [framework.random_request(seed=500 + i) for i in range(20)]
        for depth in (3, 4):
            router = RecursiveRouter(build_levels(framework.hfc, depth))
            result = router.route_many_detailed(requests)
            for request, path, error in zip(
                requests, result.paths, result.errors
            ):
                scalar = _outcome(router, request)
                if error is None:
                    assert path == scalar
                else:
                    assert path is None and ("err", str(error)) == scalar

    def test_expand_hop_spans_every_level(self, framework):
        h = build_levels(framework.hfc, 4)
        proxies = framework.overlay.proxies
        for u, v in [(proxies[0], proxies[-1]), (proxies[3], proxies[11])]:
            hops = h.expand_hop(u, v)
            assert hops[0] == u and hops[-1] == v
        assert h.expand_hop(proxies[2], proxies[2]) == [proxies[2]]

    def test_group_of_consistent_with_membership(self, framework):
        h = build_levels(framework.hfc, 3)
        for gid in range(h.top_count):
            for proxy in h.top_members(gid):
                assert h.group_of(proxy) == gid

    def test_aggregates_round_trip_and_union_upward(self, framework):
        h = build_levels(framework.hfc, 3)
        aggregates = h.aggregates()
        view = assemble_aggregates(
            DeltaAssembler(), announce_aggregates(DeltaEmitter(), aggregates)
        )
        assert view == aggregates
        for gid in range(h.top_count):
            assert aggregates[(2, gid)] == h.top_capability(gid)
            assert aggregates[(2, gid)] == frozenset().union(
                *(aggregates[(1, cid)] for cid in h.base_clusters_of(gid))
            )

    def test_invalid_shapes_rejected(self, framework):
        with pytest.raises(TopologyError):
            build_levels(framework.hfc, 1)
        with pytest.raises(TopologyError):
            RecursiveRouter(build_levels(framework.hfc, 2))
        h = build_levels(framework.hfc, 3)
        with pytest.raises(TopologyError):
            h.top_border(0, 0)

    def test_rebind_refuses_instead_of_unwrapping(self, framework):
        """rebind(base_hfc) used to leave base-cluster capabilities over a
        top-group hierarchy (``_sub_router`` then indexed by the wrong
        ids); the hierarchy must be rebuilt instead."""
        hierarchy = build_levels(framework.hfc, 3)
        router = RecursiveRouter(hierarchy)
        request = framework.random_request(seed=4)
        expected = router.route(request)
        with pytest.raises(RoutingError, match="hierarchy must be rebuilt"):
            router.rebind(framework.hfc)
        # the refused rebind left the router as it was
        assert set(router.cluster_capabilities) == set(range(hierarchy.top_count))
        assert router.route(request) == expected


# -- columnar integration --------------------------------------------------------


class TestColumnarIntegration:
    def test_build_hierarchy_attaches_levels(self, tiny_framework):
        h = tiny_framework.build_hierarchy(3)
        state = tiny_framework.columnar
        assert state.levels and state.levels[-1] is h.levels[-1]
        view = h.top_view()
        assert view._query_tables_cache is state.level_query_tables(0)

    def test_level_tables_match_duck_typed_walk(self, tiny_framework):
        h = tiny_framework.build_hierarchy(3)
        preset = tiny_framework.columnar.level_query_tables(0)
        cold = build_levels(tiny_framework.hfc, 3)
        walked = query_tables(cold.top_view())
        assert np.array_equal(preset.ext, walked.ext)
        assert np.array_equal(preset.d_border, walked.d_border)

    def test_attach_levels_drops_cached_tables(self, tiny_framework):
        h = tiny_framework.build_hierarchy(3)
        state = tiny_framework.columnar
        before = state.level_query_tables(0)
        state.attach_levels(h.levels)
        assert state.level_query_tables(0) is not before


# -- churn: sticky assignment, patched spine ------------------------------------


class TestChurnedHierarchy:
    @settings(max_examples=10, deadline=None)
    @given(decisions=st.lists(st.integers(0, 8), min_size=1, max_size=10))
    def test_hypothesis_patched_equals_cold_rebuild(
        self, tiny_framework, pool, decisions
    ):
        dyn = DynamicOverlay(
            tiny_framework, restructure_tolerance=None, track_quality=False
        )
        dyn.attach_hierarchy(3)
        _replay(dyn, pool, decisions)
        assert_matches_cold_levels(dyn)

    def test_cluster_vanish_cascade(self, tiny_framework):
        dyn = DynamicOverlay(
            tiny_framework, restructure_tolerance=None, track_quality=False
        )
        dyn.attach_hierarchy(3)
        # drain the smallest cluster entirely -> unit removal + id shifts
        smallest = min(dyn.clustering.clusters, key=len)
        for proxy in list(smallest):
            dyn.leave(proxy)
        assert_matches_cold_levels(dyn)
        dyn.hierarchy().validate()

    def test_columnar_capture_carries_levels(self, tiny_framework):
        dyn = DynamicOverlay(
            tiny_framework, restructure_tolerance=None, track_quality=False
        )
        dyn.attach_hierarchy(3)
        state = dyn.columnar()
        assert len(state.levels) == 1
        assert_levels_equal(state.levels, dyn.hierarchy().levels)


# -- persistence -----------------------------------------------------------------


class TestSnapshotRoundTrip:
    def test_level_stack_round_trips(self, tiny_framework):
        h = tiny_framework.build_hierarchy(4)
        path = tempfile.mktemp(suffix=".npz")
        try:
            save_snapshot(tiny_framework, path)
            snap = load_snapshot(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)
        assert_levels_equal(
            snap.columnar.levels, tiny_framework.columnar.levels
        )
        warm = snap.framework.build_hierarchy(4)
        assert warm.depth == 4 and warm.columnar is snap.columnar
        cold_router = RecursiveRouter(h)
        warm_router = RecursiveRouter(warm)
        for i in range(10):
            request = tiny_framework.random_request(seed=700 + i)
            assert _outcome(cold_router, request) == _outcome(
                warm_router, request
            )

    def test_dynamic_overlay_comes_back_with_its_levels(self, tiny_framework, pool):
        """A churned overlay's patched stack survives save -> load -> from_snapshot,
        and keeps patching like a cold build afterwards."""
        dyn = DynamicOverlay(tiny_framework, restructure_tolerance=None, track_quality=False)
        dyn.attach_hierarchy(3)
        _replay(dyn, pool, [1, 4, 7, 2])
        path = tempfile.mktemp(suffix=".npz")
        try:
            save_snapshot(dyn, path)
            twin = DynamicOverlay.from_snapshot(
                load_snapshot(path), restructure_tolerance=None, track_quality=False
            )
        finally:
            if os.path.exists(path):
                os.unlink(path)
        assert_levels_equal(twin.hierarchy().levels, dyn.hierarchy().levels)
        twin.leave(twin.proxies[0])
        assert_matches_cold_levels(twin)

    def test_snapshot_without_levels_still_loads(self, tiny_framework):
        fresh = HFCFramework.build(proxy_count=30, physical=None, seed=123)
        path = tempfile.mktemp(suffix=".npz")
        try:
            save_snapshot(fresh, path)
            snap = load_snapshot(path)
        finally:
            if os.path.exists(path):
                os.unlink(path)
        assert snap.columnar.levels == []
        h = snap.framework.build_hierarchy(2)
        assert isinstance(h, HierarchyLevels) and h.depth == 2
