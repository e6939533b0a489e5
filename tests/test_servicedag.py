"""Tests for the service-DAG kernel against its oracles.

The key property pinning the whole routing layer: on random inputs the one
ragged kernel (through :class:`FlatRouter`, its one-cluster case), the dense
per-request solver it replaced, the pure-Python reference specification and
exhaustive brute force (the last three in ``tests/oracles/servicedag.py``)
all return the same optimal cost — and on an integer lattice, where ties are
everywhere, the kernel picks the reference's assignment exactly.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import FlatRouter
from repro.routing.providers import DistanceProvider
from repro.services import ServiceGraph, ServiceRequest, linear_graph, branching_graph
from repro.util.errors import NoFeasiblePathError, RoutingError, TopologyError
from tests.oracles.servicedag import DagSolution, brute_force, solve_reference, solve_vectorised


def metric_from_points(points):
    """pair/block callbacks over a dict of instance -> 2-D point."""

    def pair(u, v):
        return math.dist(points[u], points[v])

    def block(us, vs):
        return np.array([[pair(u, v) for v in vs] for u in us])

    return pair, block


class _PairProvider(DistanceProvider):
    """Any instances, measured by a scalar *pair* callback."""

    def __init__(self, pair):
        self._pair = pair

    def pair(self, u, v):
        return self._pair(u, v)

    def pairs(self, us, vs):
        us, vs = np.broadcast_arrays(us, vs)
        return np.array(list(map(self._pair, us.ravel().tolist(), vs.ravel().tolist())), dtype=float).reshape(us.shape)


class _Overlay:
    """What a flat router reads of an overlay: the proxies in order and each one's
    placement (a slot's candidates offer its service, in candidate order); the
    endpoints are members."""

    def __init__(self, sg, candidates, members):
        offers = {}
        for slot in sg.slots():
            for proxy in candidates.get(slot, ()):
                offers.setdefault(proxy, set()).add(sg.service_of(slot))
        self.proxies = list(dict.fromkeys([*members, *offers]))
        self.placement = {proxy: frozenset(offers.get(proxy, ())) for proxy in self.proxies}
        self._members = set(members)

    def index_of(self, proxy):
        if proxy not in self._members:
            raise TopologyError(f"unknown proxy {proxy!r}")
        return 0


def solve_kernel(sg, candidates, source, destination, pair):
    """The kernel's answer, priced in path order as its labels sum."""
    overlay = _Overlay(sg, candidates, (source, destination))
    path = FlatRouter(overlay, _PairProvider(pair)).route(ServiceRequest(source, sg, destination))
    assignment = [(hop.slot, hop.proxy) for hop in path.service_hops()]
    stops = [source, *(inst for _, inst in assignment), destination]
    cost = 0.0
    for a, b in zip(stops, stops[1:]):
        cost += pair(a, b)
    return DagSolution(cost=cost, assignment=assignment)


SIMPLE_POINTS = {
    "src": (0.0, 0.0),
    "dst": (10.0, 0.0),
    "a1": (2.0, 0.0),
    "a2": (2.0, 5.0),
    "b1": (5.0, 0.0),
    "b2": (5.0, -4.0),
}


class TestLinearSolving:
    def test_picks_straight_line_instances(self):
        sg = linear_graph(["A", "B"])
        pair, block = metric_from_points(SIMPLE_POINTS)
        candidates = {0: ["a1", "a2"], 1: ["b1", "b2"]}
        ref = solve_reference(sg, candidates, "src", "dst", pair)
        vec = solve_vectorised(sg, candidates, "src", "dst", block)
        assert solve_kernel(sg, candidates, "src", "dst", pair).assignment == ref.assignment
        assert ref.assignment == [(0, "a1"), (1, "b1")]
        assert vec.assignment == ref.assignment
        assert ref.cost == pytest.approx(10.0)
        assert vec.cost == pytest.approx(ref.cost)

    def test_single_slot(self):
        sg = linear_graph(["A"])
        pair, block = metric_from_points(SIMPLE_POINTS)
        candidates = {0: ["a1", "a2"]}
        ref = solve_reference(sg, candidates, "src", "dst", pair)
        vec = solve_vectorised(sg, candidates, "src", "dst", block)
        assert solve_kernel(sg, candidates, "src", "dst", pair).assignment == ref.assignment
        assert ref.assignment == vec.assignment == [(0, "a1")]

    def test_same_proxy_repeated(self):
        """Two consecutive slots may map to the same instance at zero cost."""
        sg = linear_graph(["A", "B"])
        pair, block = metric_from_points(SIMPLE_POINTS)
        candidates = {0: ["a1"], 1: ["a1", "b2"]}
        ref = solve_reference(sg, candidates, "src", "dst", pair)
        vec = solve_vectorised(sg, candidates, "src", "dst", block)
        assert solve_kernel(sg, candidates, "src", "dst", pair).assignment == ref.assignment
        assert ref.assignment == vec.assignment == [(0, "a1"), (1, "a1")]

    def test_empty_candidates_infeasible(self):
        sg = linear_graph(["A", "B"])
        pair, block = metric_from_points(SIMPLE_POINTS)
        with pytest.raises(NoFeasiblePathError):
            solve_reference(sg, {0: ["a1"], 1: []}, "src", "dst", pair)
        with pytest.raises(NoFeasiblePathError):
            solve_vectorised(sg, {0: ["a1"], 1: []}, "src", "dst", block)
        with pytest.raises(NoFeasiblePathError):
            solve_kernel(sg, {0: ["a1"], 1: []}, "src", "dst", pair)

    def test_missing_slot_key_infeasible(self):
        sg = linear_graph(["A", "B"])
        pair, block = metric_from_points(SIMPLE_POINTS)
        with pytest.raises(NoFeasiblePathError):
            solve_reference(sg, {0: ["a1"]}, "src", "dst", pair)
        with pytest.raises(NoFeasiblePathError):
            solve_vectorised(sg, {0: ["a1"]}, "src", "dst", block)
        with pytest.raises(NoFeasiblePathError):
            solve_kernel(sg, {0: ["a1"]}, "src", "dst", pair)

    def test_unknown_slot_key_rejected(self):
        sg = linear_graph(["A"])
        pair, block = metric_from_points(SIMPLE_POINTS)
        with pytest.raises(RoutingError):
            solve_reference(sg, {0: ["a1"], 7: ["a2"]}, "src", "dst", pair)
        with pytest.raises(RoutingError):
            solve_vectorised(sg, {0: ["a1"], 7: ["a2"]}, "src", "dst", block)

    def test_infinite_weights_infeasible(self):
        sg = linear_graph(["A"])
        inf_pair = lambda u, v: float("inf")  # noqa: E731
        inf_block = lambda us, vs: np.full((len(us), len(vs)), np.inf)  # noqa: E731
        with pytest.raises(NoFeasiblePathError):
            solve_reference(sg, {0: ["a1"]}, "src", "dst", inf_pair)
        with pytest.raises(NoFeasiblePathError):
            solve_vectorised(sg, {0: ["a1"]}, "src", "dst", inf_block)
        with pytest.raises(NoFeasiblePathError):
            solve_kernel(sg, {0: ["a1"]}, "src", "dst", inf_pair)


class TestNonLinearSolving:
    def test_configuration_choice_by_distance(self):
        """The solver must pick the *configuration* that maps shortest."""
        sg = branching_graph(chains=[["A"], ["B"]], tail=["C"])
        points = {
            "src": (0.0, 0.0),
            "dst": (10.0, 0.0),
            "a": (100.0, 0.0),  # A instance far away
            "b": (3.0, 0.0),  # B instance on the way
            "c": (7.0, 0.0),
        }
        pair, block = metric_from_points(points)
        candidates = {0: ["a"], 1: ["b"], 2: ["c"]}
        ref = solve_reference(sg, candidates, "src", "dst", pair)
        vec = solve_vectorised(sg, candidates, "src", "dst", block)
        assert solve_kernel(sg, candidates, "src", "dst", pair).assignment == ref.assignment
        chosen = [slot for slot, _ in ref.assignment]
        assert sg.service_of(chosen[0]) == "B"
        assert vec.cost == pytest.approx(ref.cost) == pytest.approx(10.0)

    def test_partial_infeasibility_routes_around(self):
        """A dead branch must not kill a feasible alternative."""
        sg = branching_graph(chains=[["A"], ["B"]], tail=["C"])
        pair, block = metric_from_points(
            {"src": (0, 0), "dst": (10, 0), "b": (3, 0), "c": (7, 0)}
        )
        candidates = {0: [], 1: ["b"], 2: ["c"]}
        ref = solve_reference(sg, candidates, "src", "dst", pair)
        vec = solve_vectorised(sg, candidates, "src", "dst", block)
        assert solve_kernel(sg, candidates, "src", "dst", pair).assignment == ref.assignment
        assert [sg.service_of(s) for s, _ in ref.assignment] == ["B", "C"]
        assert vec.assignment == ref.assignment

    def test_skip_edge_used_when_shorter(self):
        sg = ServiceGraph(
            services={0: "A", 1: "B", 2: "C"},
            edges={(0, 1), (1, 2), (0, 2)},  # A->C skip allowed
        )
        points = {
            "src": (0.0, 0.0),
            "dst": (10.0, 0.0),
            "a": (2.0, 0.0),
            "b": (5.0, 40.0),  # B is a huge detour
            "c": (8.0, 0.0),
        }
        pair, block = metric_from_points(points)
        candidates = {0: ["a"], 1: ["b"], 2: ["c"]}
        ref = solve_reference(sg, candidates, "src", "dst", pair)
        vec = solve_vectorised(sg, candidates, "src", "dst", block)
        assert solve_kernel(sg, candidates, "src", "dst", pair).assignment == ref.assignment
        assert [sg.service_of(s) for s, _ in ref.assignment] == ["A", "C"]
        assert vec.assignment == ref.assignment


@st.composite
def random_dag_problem(draw):
    """Random SG + instances + metric points for equivalence testing."""
    n_slots = draw(st.integers(1, 5))
    edges = set()
    for a in range(n_slots):
        for b in range(a + 1, n_slots):
            if draw(st.booleans()):
                edges.add((a, b))
    sg = ServiceGraph(services={i: f"svc{i}" for i in range(n_slots)}, edges=edges)

    # an integer lattice: equal costs everywhere, the first occurrence decides
    lattice = st.integers(-3, 3).map(float)
    points = {"src": (0.0, 0.0), "dst": (3.0, 3.0)}
    candidates = {}
    for slot in range(n_slots):
        count = draw(st.integers(0, 4))
        insts = []
        for c in range(count):
            name = f"i{slot}_{c}"
            points[name] = (draw(lattice), draw(lattice))
            insts.append(name)
        candidates[slot] = insts
    return sg, candidates, points


@settings(max_examples=80, deadline=None)
@given(random_dag_problem())
def test_three_solvers_agree(problem):
    """Property: reference == vectorised == brute force (cost), and the
    kernel's assignment and its cost are the reference's exactly."""
    sg, candidates, points = problem
    pair, block = metric_from_points(points)

    def run(fn, *args):
        try:
            return fn(sg, candidates, "src", "dst", *args)
        except NoFeasiblePathError:
            return None

    ref = run(solve_reference, pair)
    vec = run(solve_vectorised, block)
    bf = run(brute_force, pair)
    kernel = run(solve_kernel, pair)
    if ref is None:
        assert vec is None and bf is None and kernel is None
    else:
        assert vec.cost == pytest.approx(ref.cost)
        assert bf.cost == pytest.approx(ref.cost)
        assert (kernel.assignment, kernel.cost) == (ref.assignment, ref.cost)


@settings(max_examples=40, deadline=None)
@given(random_dag_problem())
def test_assignment_cost_matches_reported_cost(problem):
    """Property: re-pricing the returned assignment reproduces the cost."""
    sg, candidates, points = problem
    pair, block = metric_from_points(points)
    try:
        solutions = [
            solve_reference(sg, candidates, "src", "dst", pair),
            solve_vectorised(sg, candidates, "src", "dst", block),
            solve_kernel(sg, candidates, "src", "dst", pair),
        ]
    except NoFeasiblePathError:
        return
    for solution in solutions:
        hops = ["src"] + [inst for _, inst in solution.assignment] + ["dst"]
        total = sum(pair(a, b) for a, b in zip(hops, hops[1:]))
        assert total == pytest.approx(solution.cost)
        # and the slot sequence is a feasible configuration
        assert sg.is_configuration([slot for slot, _ in solution.assignment])
