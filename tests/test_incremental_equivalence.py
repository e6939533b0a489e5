"""Incremental churn patches must equal a from-scratch rebuild, always.

The incremental membership layer patches only the touched cluster's
membership and border pairs per event. These tests drive identical event
sequences through two twin overlays — the production ``DynamicOverlay`` and
``tests/oracles/churn.py``'s rebuild-the-world twin — and assert the resulting
topologies are *bit-identical*: same clusters, same labels, same border
pairs, same routing matrices. A third check compares the patched border
dict against a fresh :func:`~repro.overlay.hfc.build_hfc` run on the
current overlay, closing the loop with the construction pipeline.

Join coordinates are measured once (they depend only on the landmarks,
not on overlay state) and replayed into both twins, so the two runs see
the exact same floats and any divergence is a patching bug, not RNG.

An event re-reduces only the border pairs it can have moved, and that
choice leans on how the kernel breaks ties. ``TestLatticeTies`` therefore
replays churn on *integer lattice* coordinates, where equal distances and
duplicate points are the norm, and compares every event's borders (and
attached level stack) with the per-pair oracle.
"""

import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.mstcluster import Clustering
from repro.coords.space import CoordinateSpace
from repro.membership import DynamicOverlay
from repro.overlay.hfc import build_hfc
from repro.util.rng import ensure_rng
from tests.oracles.churn import RebuildingOverlay, assert_matches_cold_levels
from tests.oracles.construction import select_borders_closest_reference


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


def _twins(framework):
    make = lambda cls: cls(  # noqa: E731
        framework, restructure_tolerance=None, track_quality=False
    )
    return make(DynamicOverlay), make(RebuildingOverlay)


def assert_same_structure(inc, full):
    assert inc.clustering.labels == full.clustering.labels
    assert inc.clustering.clusters == full.clustering.clusters
    assert inc.hfc.borders == full.hfc.borders


def assert_matches_fresh_build(dyn):
    """The patched border dict equals a from-scratch construction."""
    fresh = build_hfc(dyn.overlay, dyn.clustering, dyn.space)
    assert dyn.hfc.borders == fresh.borders


@pytest.fixture(scope="module")
def pool(tiny_framework):
    return _join_pool(tiny_framework, count=24, seed=77)


class TestHypothesisEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(decisions=st.lists(st.integers(0, 8), min_size=1, max_size=12))
    def test_random_sequences_match_rebuild(
        self, tiny_framework, pool, decisions
    ):
        inc, full = _twins(tiny_framework)
        next_join = 0
        for step, choice in enumerate(decisions):
            join_ok = next_join < len(pool)
            if choice == 8:
                inc.restructure()
                full.restructure()
            elif (choice < 4 and join_ok) or (inc.size <= 3 and join_ok):
                router, services, coords = pool[next_join]
                next_join += 1
                inc.join(router, services, coords=coords)
                full.join(router, services, coords=coords)
            elif inc.size > 3:
                # both twins hold identical state, so the same index picks
                # the same victim in both
                victim = inc.proxies[(choice * 7 + step) % inc.size]
                full.leave(victim)
                inc.leave(victim)
            assert_same_structure(inc, full)
        assert_matches_fresh_build(inc)
        inc_route, inc_true = inc.hfc.routing_matrices()
        full_route, full_true = full.hfc.routing_matrices()
        assert np.array_equal(inc_route, full_route)
        assert np.array_equal(inc_true, full_true)


class TestScriptedEquivalence:
    def test_choreographed_sequence(self, framework):
        """A fixed sequence hitting every patch path: border leave, cluster
        drain (id compaction), joins, restructure, post-restructure churn."""
        pool = _join_pool(framework, count=8, seed=31)
        inc, full = _twins(framework)

        def both(op, *args, **kwargs):
            getattr(inc, op)(*args, **kwargs)
            getattr(full, op)(*args, **kwargs)
            assert_same_structure(inc, full)
            assert_matches_fresh_build(inc)
            assert inc.version == full.version

        # 1. a border proxy leaves -> its pairs re-select
        both("leave", inc.hfc.all_border_nodes()[0])
        # 2. joins grow the nearest clusters
        for router, services, coords in pool[:3]:
            both("join", router, services, coords=coords)
        # 3. drain the smallest cluster entirely -> id compaction path
        smallest = min(inc.clustering.clusters, key=len)
        for proxy in list(smallest):
            both("leave", proxy)
        # 4. structural rebuild -> epoch bump
        epoch_before = inc.version.epoch
        both("restructure")
        assert inc.version.epoch == epoch_before + 1
        # 5. churn continues against the re-clustered world
        for router, services, coords in pool[3:6]:
            both("join", router, services, coords=coords)
        both("leave", inc.proxies[5])

        inc_route, _ = inc.hfc.routing_matrices()
        full_route, _ = full.hfc.routing_matrices()
        assert np.array_equal(inc_route, full_route)


# -- lattice coordinates: ties and duplicates -----------------------------------

GRID = 12  # lattice sites per axis
CELL = 4  # a cluster is a CELL x CELL block of sites


@pytest.fixture(scope="module")
def lattice(framework):
    """``framework``'s proxies re-seated on an integer lattice.

    Nine grid-cell clusters (neighbours one lattice step apart, so their
    border pairs tie many ways) plus two hand-made ones: a *hub* of two
    proxies on one site off to the right — the lower id borders every other
    cluster, its duplicate none — and a *singleton* above. Returns the
    re-seated framework, the hub pair and the singleton.
    """
    rng = random.Random(23)
    proxies = sorted(framework.overlay.proxies)
    (hub, shadow, single), rest = proxies[:3], proxies[3:]
    sites = {hub: (GRID + 8, 6), shadow: (GRID + 8, 6), single: (6, GRID + 8)}
    cell_of = {hub: (9, 0), shadow: (9, 0), single: (9, 1)}
    for proxy in rest:
        x, y = rng.randrange(GRID), rng.randrange(GRID)
        sites[proxy] = (x, y)
        cell_of[proxy] = (x // CELL, y // CELL)
    ids = {cell: cid for cid, cell in enumerate(sorted(set(cell_of.values())))}
    labels = {p: ids[cell_of[p]] for p in proxies}
    clusters = [[p for p in proxies if labels[p] == c] for c in range(len(ids))]
    space = CoordinateSpace.from_stacked(
        proxies, np.array([sites[p] for p in proxies], dtype=float)
    )
    clustering = Clustering(clusters=clusters, labels=labels)
    seated = dataclasses.replace(
        framework,
        space=space,
        clustering=clustering,
        hfc=build_hfc(framework.overlay, clustering, space),
    )
    return seated, (hub, shadow), single


def _free_routers(framework):
    """Routers hosting no proxy, ascending: ids below and among the members'."""
    members = set(framework.overlay.proxies)
    nodes = range(framework.physical.topology.node_count)
    return [r for r in nodes if r not in members]


def _lattice_overlay(seated, levels):
    dyn = DynamicOverlay(seated, restructure_tolerance=None, track_quality=False)
    if levels:
        dyn.attach_hierarchy(levels)
    return dyn


def assert_matches_oracles(dyn):
    """Borders equal the per-pair oracle; the level stack a cold rebuild."""
    assert dyn.hfc.borders == select_borders_closest_reference(
        dyn.space, dyn.clustering
    )
    if dyn._hier_levels is not None:
        assert_matches_cold_levels(dyn)


@pytest.mark.parametrize("levels", [0, 3])
class TestLatticeTies:
    @settings(max_examples=30, deadline=None)
    @given(
        events=st.lists(
            st.tuples(
                st.booleans(),
                st.integers(0, GRID + 8),
                st.integers(0, GRID + 8),
                st.integers(0, 10_000),
            ),
            min_size=1,
            max_size=14,
        )
    )
    def test_every_event_matches_the_oracles(self, lattice, levels, events):
        seated, _hub, _single = lattice
        dyn = _lattice_overlay(seated, levels)
        free = _free_routers(seated)
        for join, x, y, pick in events:
            if join or dyn.size <= 3:
                # from either end: an id sorting before or among the members
                router = free.pop(0 if pick % 2 else -1)
                dyn.join(router, frozenset({"s0"}), coords=(x, y))
            else:
                dyn.leave(dyn.proxies[pick % dyn.size])
            assert_matches_oracles(dyn)

    def test_joiner_exactly_ties_the_current_pair(self, lattice, levels):
        """A duplicate of a border proxy ties every pair that proxy serves:
        all of them are re-reduced, and the lower id wins the tie."""
        seated, _hub, _single = lattice
        free = _free_routers(seated)
        probe = _lattice_overlay(seated, 0)
        border = next(
            p
            for p in probe.hfc.all_border_nodes()
            if min(free) < p < max(free) and probe.size > 3
        )
        served = {
            tuple(sorted(pair))
            for pair, proxy in probe.hfc.borders.items()
            if proxy == border
        }
        site = probe.space.coordinate(border)
        for router, takes_over in ((min(free), True), (max(free), False)):
            dyn = _lattice_overlay(seated, levels)
            seen = []
            dyn.notifier.subscribe(lambda version, **info: seen.append(info))
            dyn.join(router, frozenset({"s0"}), coords=site)
            assert served <= set(seen[-1]["reelected"])
            assert dyn.history[-1].pairs_reduced >= len(served)
            assert (router in dyn.hfc.all_border_nodes()) == takes_over
            assert (border in dyn.hfc.all_border_nodes()) != takes_over
            assert_matches_oracles(dyn)

    def test_leaver_is_border_toward_every_cluster(self, lattice, levels):
        seated, (hub, shadow), _single = lattice
        dyn = _lattice_overlay(seated, levels)
        home = dyn.clustering.cluster_of(hub)
        k = dyn.hfc.cluster_count
        assert all(dyn.hfc.border(home, j) == hub for j in range(k) if j != home)
        base = []
        dyn.notifier.subscribe(lambda version, **info: base.extend(info["reelected"]))
        dyn.leave(hub)
        assert len(base) == k - 1 and all(home in pair for pair in base)
        assert all(
            dyn.hfc.border(home, j) == shadow for j in range(k) if j != home
        )
        assert_matches_oracles(dyn)

    def test_leaver_borders_nothing(self, lattice, levels):
        seated, (_hub, shadow), _single = lattice
        dyn = _lattice_overlay(seated, levels)
        before = dict(dyn.hfc.borders)
        dyn.leave(shadow)
        assert dyn.history[-1].pairs_reduced == 0
        assert dyn.hfc.borders == before
        assert_matches_oracles(dyn)

    def test_last_member_leaves(self, lattice, levels):
        seated, _hub, single = lattice
        dyn = _lattice_overlay(seated, levels)
        k = dyn.hfc.cluster_count
        dyn.leave(single)
        assert dyn.hfc.cluster_count == k - 1
        assert_matches_oracles(dyn)
