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

* what the router rotation carried across its rebinds — capabilities, the
  map step's index, the per-cluster provider entries and the query tables
  (bit for bit) — equals a cold derivation on the view each is bound to;

and the routing rule rebinds the plain, cached, centroid and QoS routers and
holds every production path to :func:`validate_path`, to a router of the
same class built fresh on the same view and (plain and cached) to the path
:class:`ReferenceCspRouter` returns and to the flat optimum: its
coordinate length is never below the path the per-request dense solver
(``tests/oracles/servicedag.py``) finds on the same view (relays only add
length); a proxy that left raises its own :class:`NoFeasiblePathError` as an
endpoint. Every batch carries one branching request.

The framework is built once per module; every machine wraps it afresh.
"""

import random
import tempfile
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import HFCFramework
from repro.membership import DynamicOverlay
from repro.persistence import load_snapshot, save_snapshot
from repro.qos import BandwidthModel, QoSHierarchicalRouter, cluster_pair_bandwidth
from repro.routing import CoordinateProvider, HierarchicalRouter, materialise_assignment, validate_path
from repro.routing.aggregation import CentroidAggregationRouter
from repro.routing.cache import CachedHierarchicalRouter
from repro.services import ServiceRequest, branching_graph, linear_graph
from repro.util.errors import NoFeasiblePathError
from tests.oracles.churn import assert_levels_equal, assert_matches_cold_levels
from tests.oracles.construction import select_borders_closest_reference
from tests.oracles.csp import ReferenceCspRouter
from tests.oracles.rebind import assert_carried_state_is_cold, cold_capabilities
from tests.oracles.servicedag import provider_block, solve_vectorised
from tests.oracles.views import assert_views_are_cold

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


@lru_cache(maxsize=None)
def bandwidth():
    """The QoS router's model and a floor pruning the thinner third of the
    framework's cluster links."""
    framework = soak_framework()
    model = BandwidthModel(framework.physical, seed=5)
    links = sorted(cluster_pair_bandwidth(framework.hfc, model).values())
    return model, links[len(links) // 3]


#: the rotation: each router class the machine rebinds, built on a view
ROTATION = {
    "plain": HierarchicalRouter,
    "cached": lambda hfc: CachedHierarchicalRouter(hfc, cache_size=8),
    "centroid": CentroidAggregationRouter,
    "qos": lambda hfc: QoSHierarchicalRouter(hfc, *bandwidth()),
}
#: the classes whose paths are the paper's, so the scalar reference's
EXACT = ("plain", "cached")
#: relative slack of the flat-optimum bound: the two lengths sum different hops
FLAT_TOLERANCE = 1e-9


def overlay_with_hierarchy(framework) -> DynamicOverlay:
    dyn = DynamicOverlay(framework, restructure_tolerance=None, track_quality=False)
    dyn.attach_hierarchy(DEPTH)
    return dyn


def route_or_error(router, request):
    try:
        return router.route(request)
    except NoFeasiblePathError as err:
        return type(err)


def flat_optimum(overlay, request):
    """The flat optimum over coordinates, by the dense per-request solver."""
    sg = request.service_graph
    candidates = {slot: overlay.providers_of(sg.service_of(slot)) for slot in sg.slots()}
    block = provider_block(CoordinateProvider(overlay.space))
    try:
        solution = solve_vectorised(sg, candidates, request.source_proxy, request.destination_proxy, block)
    except NoFeasiblePathError as err:
        return type(err)
    return materialise_assignment(request, solution.assignment)


def outcomes(router, requests):
    """One batch through *router*: per request its path or error type."""
    result = router.route_many_detailed(requests)
    return [type(e) if e is not None else p for p, e in zip(result.paths, result.errors)]


class OverlaySoak(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.dyn = overlay_with_hierarchy(soak_framework())
        self.routers = {name: make(self.dyn.hfc) for name, make in ROTATION.items()}
        self.departed, self.notes = [], []
        self.dyn.notifier.subscribe(lambda version, **info: self.notes.append(info))

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
        self._leave(random.Random(seed).choice(self.dyn.proxies))

    @rule(seed=SEEDS)
    def churn_block(self, seed):
        """5-15 joins and leaves before one rebind, emptying a cluster (its
        ids above shift down, the notification names it) whenever one has
        at most two members, so the carried state spans many events."""
        dyn, rng = self.dyn, random.Random(seed)
        for _ in range(rng.randint(5, 15)):
            clusters = dyn.clustering.clusters
            small = [c for c, members in enumerate(clusters) if len(members) <= 2]
            if small and dyn.size - len(clusters[small[0]]) >= MIN_SIZE and len(clusters) > 2:
                for proxy in list(clusters[small[0]]):
                    self._leave(proxy)
                assert self.notes[-1]["dropped"] == small[0] and self.notes[-1]["reelected"] == []
            elif rng.random() < 0.5 or dyn.size <= MIN_SIZE:
                self.join(rng.randrange(2**32))
            else:
                self._leave(rng.choice(dyn.proxies))
        self._route_batch(rng)

    def _leave(self, proxy):
        self.dyn.leave(proxy)
        self.departed.append(proxy)

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
        twin.notifier.subscribe(lambda version, **info: self.notes.append(info))

    @rule(seed=SEEDS)
    def rebind_and_route(self, seed):
        self._route_batch(random.Random(seed))

    @rule(seed=SEEDS)
    def rewrite_placement(self, seed):
        """Rewrite one proxy's live placement as a crash with
        ``services_after`` does, routing from it after each write: another
        set, the same content as a new frozenset, then the ``clear()`` +
        ``update()`` restore of ``restores_placement``. A provider index kept
        past any of these writes answers with the old providers."""
        rng = random.Random(seed)
        placement = self.dyn.hfc.overlay.placement
        proxy = rng.choice(self.dyn.proxies)
        before = dict(placement)
        names = list(self.dyn.framework.catalog.names)
        moved = frozenset(rng.sample(names, rng.randint(1, 3)))
        changed = sorted(moved ^ before[proxy])
        for services in (moved, frozenset(list(moved))):
            placement[proxy] = services
            self._route_batch(rng, proxy, changed, rotation=("plain",))
        placement.clear()
        placement.update(before)
        self._route_batch(rng, proxy, changed)

    def _route_batch(self, rng, source=None, wanted=(), rotation=ROTATION):
        """Rebind the *rotation* and route a batch, holding every outcome to
        a router of its class built fresh on the view and to the reference
        router's; requests start at *source* when given and ask for one of
        the *wanted* services when given. A departed proxy, as a source,
        raises its own error."""
        dyn = self.dyn
        hfc = dyn.hfc
        services = sorted(set().union(*hfc.overlay.placement.values()))
        requests = []
        for _ in range(BATCH):
            src, dst = rng.sample(dyn.proxies, 2)
            if source is not None and source != dst:
                src = source
            chain = rng.sample(services, min(3, len(services)))
            if wanted:
                chain[rng.randrange(len(chain))] = rng.choice(wanted)
            requests.append(ServiceRequest(src, linear_graph(chain), dst))
        # one branching request: two alternative heads merging into a tail
        names = [rng.choice(services) for _ in range(4)]
        sg = branching_graph(chains=[names[:1], names[1:3]], tail=names[3:])
        src, dst = rng.sample(dyn.proxies, 2)
        requests.append(ServiceRequest(src, sg, dst))
        reference = ReferenceCspRouter(hfc, cluster_capabilities=cold_capabilities(hfc))
        want = [route_or_error(reference, request) for request in requests]
        flat = [flat_optimum(hfc.overlay, request) for request in requests]
        gone = [proxy for proxy in self.departed if proxy not in dyn]
        for name in rotation:
            router = self.routers[name]
            router.rebind(hfc)
            got = outcomes(router, requests)
            assert got == outcomes(ROTATION[name](hfc), requests), name
            assert name not in EXACT or got == want, name
            for path, request, best in zip(got, requests, flat):
                if path is not NoFeasiblePathError:
                    validate_path(path, request, hfc.overlay)
                    if name in EXACT:
                        floor = best.estimated_length(hfc.overlay)
                        assert path.estimated_length(hfc.overlay) >= floor * (1 - FLAT_TOLERANCE), name
            if gone:
                stranger = ServiceRequest(gone[-1], linear_graph(services[:1]), dyn.proxies[0])
                with pytest.raises(NoFeasiblePathError, match="is not an overlay member"):
                    router.route(stranger)

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

    @invariant()
    def carried_state_matches_a_cold_derivation(self):
        assert_views_are_cold(self.dyn)
        views = set()
        for router in self.routers.values():
            assert_carried_state_is_cold(router, view=id(router.hfc) not in views)
            views.add(id(router.hfc))


OverlaySoak.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)
TestOverlaySoak = OverlaySoak.TestCase
