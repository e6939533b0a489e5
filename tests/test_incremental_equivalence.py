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
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.membership import DynamicOverlay
from repro.overlay.hfc import build_hfc
from repro.util.rng import ensure_rng
from tests.oracles.churn import RebuildingOverlay


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
