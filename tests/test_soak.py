"""A stateful soak over the dynamic overlay with an attached L=3 hierarchy.

Hypothesis drives one :class:`~repro.membership.DynamicOverlay` (n≈40,
seven clusters, a three-level hierarchy attached) through random sequences
of joins, leaves, restructures, snapshot round trips and routed batches.
After every rule the whole-system invariants must hold:

* every cluster pair's border pair is the closest cross pair — the
  per-pair reference scan (:func:`select_borders_closest_reference`);
* the columnar capture equals the object view on labels, members and the
  border matrix;
* the patched level stack equals a cold :func:`build_levels` under the
  assignment it holds (:func:`assert_matches_cold_levels`);

and the routing rule holds every production path to :func:`validate_path`
and to the path :class:`ReferenceCspRouter` returns.

The framework is built once per module; every machine wraps it afresh.
"""

import random
import tempfile
from functools import lru_cache
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import HFCFramework
from repro.membership import DynamicOverlay
from repro.persistence import load_snapshot, save_snapshot
from repro.routing import HierarchicalRouter, validate_path
from repro.services import ServiceRequest, linear_graph
from repro.util.errors import NoFeasiblePathError
from tests.oracles.churn import assert_levels_equal, assert_matches_cold_levels
from tests.oracles.construction import select_borders_closest_reference
from tests.oracles.csp import ReferenceCspRouter

#: hierarchy depth the machine attaches and keeps patched
DEPTH = 3
#: requests per routed batch
BATCH = 5
#: leaves stop at this population
MIN_SIZE = 4

SEEDS = st.integers(0, 2**32 - 1)


@lru_cache(maxsize=None)
def soak_framework() -> HFCFramework:
    """n=40 at seed 5: seven clusters, so the upper levels hold real groups."""
    return HFCFramework.build(proxy_count=40, seed=5)


def overlay_with_hierarchy(framework) -> DynamicOverlay:
    dyn = DynamicOverlay(framework, restructure_tolerance=None, track_quality=False)
    dyn.attach_hierarchy(DEPTH)
    return dyn


def route_or_error(router, request):
    try:
        return router.route(request)
    except NoFeasiblePathError as err:
        return type(err)


class OverlaySoak(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dyn = overlay_with_hierarchy(soak_framework())
        self.router = HierarchicalRouter(self.dyn.hfc)

    # -- rules ----------------------------------------------------------------------

    @rule(seed=SEEDS)
    def join(self, seed):
        dyn = self.dyn
        rng = random.Random(seed)
        free = [r for r in dyn.framework.physical.topology.stub_nodes if r not in dyn]
        if not free:
            return
        names = list(dyn.framework.catalog.names)
        dyn.join(rng.choice(free), frozenset(rng.sample(names, rng.randint(1, 3))))

    @precondition(lambda self: self.dyn.size > MIN_SIZE)
    @rule(seed=SEEDS)
    def leave(self, seed):
        self.dyn.leave(random.Random(seed).choice(self.dyn.proxies))

    @rule()
    def restructure(self):
        self.dyn.restructure()

    @rule()
    def snapshot_round_trip(self):
        dyn = self.dyn
        with tempfile.TemporaryDirectory() as scratch:
            path = str(Path(scratch) / "overlay.npz")
            save_snapshot(dyn, path)
            twin = DynamicOverlay.from_snapshot(
                load_snapshot(path), restructure_tolerance=None, track_quality=False
            )
        assert twin.version == dyn.version
        assert twin.clustering.labels == dyn.clustering.labels
        assert twin.hfc.borders == dyn.hfc.borders
        assert twin.overlay.placement == dyn.overlay.placement
        assert_levels_equal(twin.hierarchy().levels, dyn.hierarchy().levels)
        self.dyn = twin

    @rule(seed=SEEDS)
    def rebind_and_route(self, seed):
        dyn = self.dyn
        hfc = dyn.hfc
        self.router.rebind(hfc)
        reference = ReferenceCspRouter(hfc)
        rng = random.Random(seed)
        services = sorted(set().union(*hfc.overlay.placement.values()))
        for _ in range(BATCH):
            src, dst = rng.sample(dyn.proxies, 2)
            chain = rng.sample(services, min(3, len(services)))
            request = ServiceRequest(src, linear_graph(chain), dst)
            got = route_or_error(self.router, request)
            assert got == route_or_error(reference, request)
            if got is not NoFeasiblePathError:
                validate_path(got, request, hfc.overlay)

    # -- invariants -----------------------------------------------------------------

    @invariant()
    def borders_are_closest_pairs(self):
        dyn = self.dyn
        assert dyn.hfc.borders == select_borders_closest_reference(dyn.space, dyn.clustering)

    @invariant()
    def columnar_equals_object_view(self):
        hfc = self.dyn.hfc
        state = self.dyn.columnar()
        labels = {int(p): int(c) for p, c in zip(state.proxies, state.labels)}
        assert labels == hfc.clustering.labels
        assert [state.members(c) for c in range(state.cluster_count)] == [
            hfc.members(c) for c in range(hfc.cluster_count)
        ]
        assert state.borders_dict() == hfc.borders

    @invariant()
    def levels_match_cold_build(self):
        assert_matches_cold_levels(self.dyn)


OverlaySoak.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)
TestOverlaySoak = OverlaySoak.TestCase
