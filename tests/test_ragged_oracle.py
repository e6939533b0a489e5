"""The kernel's two ways against each other and against the layout and
relaxation the ragged way was cut down from.

``tests/oracles/ragged.py`` keeps ``ragged_chunks`` / ``_ragged`` /
``segment_argmin`` / ``relax`` as they stood before the kernel made fewer
numpy calls per chunk. Every :class:`~repro.routing.kernel.Ragged` field of
every chunk must be the oracle's bit for bit (value, dtype and shape), and
every row :func:`~repro.routing.kernel.relax` answers — its picks, their
positions and its bound — what the oracle's parents, sink lanes and totals
walk to. The calls are random chain and branching rows (1-60 rows, candidate
groups of width 0-13, dead branches that
:func:`~repro.routing.kernel.graph_row` drops), laid out at the default chunk
budget and with ``_CHUNK_TRIPLES`` patched down to 40, 5 and 1, so the chunk
seams and one-row chunks are covered too. The row-by-row way (``_ROW_TRIPLES``
patched to ``inf``) must answer what the ragged way (patched to 0) answers,
under a matrix of integer distances and under coordinates in two and three
dimensions.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coords.space import CoordinateSpace
from repro.routing import kernel
from repro.routing.kernel import ProxyCosts, Ragged, graph_row, ragged_chunks, relax
from repro.routing.providers import CoordinateProvider, MatrixProvider
from repro.services.graph import ServiceGraph
from repro.telemetry import Telemetry
from tests.oracles import ragged as oracle

BUDGETS = (1, 5, 40, kernel._CHUNK_TRIPLES)
RAGGED, ROWS = 0, float("inf")


@st.composite
def kernel_call(draw):
    """``(widths, rows, shapes)`` as the CSP stage and the flat router build
    them: a group may be empty (a service offered nowhere) but no row names
    one; a branching row is what :func:`graph_row` keeps of a random DAG."""
    widths = draw(st.lists(st.integers(0, 13), min_size=1, max_size=8))
    if not any(widths):
        widths[0] = 1
    offered = [g for g, w in enumerate(widths) if w]
    branching = draw(st.booleans())
    rows, shapes = [], []
    for _ in range(draw(st.integers(1, 60))):
        n = draw(st.integers(1, 7))
        if branching and n > 1 and draw(st.booleans()):
            edges = {
                (a, b)
                for b in range(1, n)
                for a in draw(st.sets(st.integers(0, b - 1), max_size=b))
            }
            sg = ServiceGraph(services={slot: f"s{slot}" for slot in range(n)}, edges=frozenset(edges))
            order = sg.topological_order()
            groups = [draw(st.integers(0, len(widths) - 1)) for _ in order]
            row = graph_row(sg, order, [widths[g] for g in groups])
            if row is None:  # every sink dead: the stage answers it alone
                continue
            kept, shape = row
            rows.append(groups if kept is None else [groups[i] for i in kept])
            shapes.append(shape)
        else:
            rows.append([draw(st.sampled_from(offered)) for _ in range(n)])
            shapes.append(None)
    if not rows:
        rows, shapes = [[offered[0]]], [None]
    return widths, rows, shapes if branching else None


def _same(got, want, where):
    """Bit for bit: arrays by dtype, shape and value; containers item by item."""
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), where
        assert (got.dtype, got.shape) == (want.dtype, want.shape), where
        assert np.array_equal(got, want), where
    elif isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want), where
        for at, (g, w) in enumerate(zip(got, want)):
            _same(g, w, f"{where}[{at}]")
    else:
        assert type(got) is type(want) and got == want, where


@settings(max_examples=60, deadline=None)
@given(kernel_call())
def test_every_ragged_field_is_the_oracles(call):
    widths, rows, shapes = call
    for budget in BUDGETS:
        with mock.patch.object(kernel, "_CHUNK_TRIPLES", budget):
            got = list(ragged_chunks(widths, rows, shapes))
            want = list(oracle.ragged_chunks(widths, rows, shapes))
        assert [chunk[:2] for chunk in got] == [chunk[:2] for chunk in want], budget
        for (r0, _, lay), (_, _, expected) in zip(got, want):
            for field in Ragged._fields:
                _same(getattr(lay, field), getattr(expected, field), f"budget {budget} rows {r0}: {field}")


def _matrix(widths, rows, seed):
    """A :class:`ProxyCosts` over integer distances (ties everywhere, some
    ``inf``), its candidates, sources and destinations drawn from *seed*."""
    rng = np.random.default_rng(seed)
    n = 12
    matrix = rng.integers(0, 4, (n, n)).astype(float)
    matrix[rng.random((n, n)) < 0.05] = np.inf
    provider = MatrixProvider({p: p for p in range(n)}, matrix)
    proxies = rng.integers(0, n, sum(widths)).tolist()
    ends = rng.integers(0, n, (2, len(rows))).tolist()
    return lambda: ProxyCosts(provider, proxies, *ends)


def _coordinates(dimension):
    """:func:`_matrix` in a coordinate space of *dimension*: float
    coordinates, a few points shared (ties) and every distance the provider's
    ``pairs``, whose einsum need not sum left to right."""

    def make(widths, rows, seed):
        rng = np.random.default_rng(seed)
        n = 12
        points = rng.normal(0.0, 50.0, (n, dimension))
        points[rng.integers(0, n, 3)] = points[0]
        provider = CoordinateProvider(CoordinateSpace({p: points[p].tolist() for p in range(n)}))
        proxies = rng.integers(0, n, sum(widths)).tolist()
        ends = rng.integers(0, n, (2, len(rows))).tolist()
        return lambda: ProxyCosts(provider, proxies, *ends)

    return make


def _walked(widths, rows, costs, shapes):
    """The oracle's yields as :func:`relax` answers: per row its picks, their
    positions (None for a chain) and its bound."""
    picked = []
    for r0, r1, lay, parent, final, totals in oracle.relax(widths, rows, costs, shapes):
        placed = [None] * (r1 - r0)
        if lay.position is not None:
            walked = lay.walk(parent, final, lay.position)
            placed = [None if shapes[r] is None else walked[r - r0] for r in range(r0, r1)]
        picked += zip(lay.walk(parent, final, lay.items), placed, totals)
    return picked


@settings(max_examples=60, deadline=None)
@given(kernel_call(), st.integers(0, 2**32 - 1))
def test_every_relax_yield_is_the_oracles(call, seed):
    widths, rows, shapes = call
    costs = _matrix(widths, rows, seed)
    for budget in BUDGETS:
        with mock.patch.multiple(kernel, _CHUNK_TRIPLES=budget, _ROW_TRIPLES=RAGGED):
            got = list(relax(widths, rows, costs(), shapes))
            want = _walked(widths, rows, costs(), shapes)
        _same(got, want, f"budget {budget}")


@pytest.mark.parametrize("make", [_matrix, _coordinates(2), _coordinates(3)], ids=["matrix", "k=2", "k=3"])
@settings(max_examples=60, deadline=None)
@given(call=kernel_call(), seed=st.integers(0, 2**32 - 1))
def test_row_by_row_answers_what_the_ragged_way_answers(make, call, seed):
    """Every pick, position and bound, bit for bit, infeasible rows included."""
    widths, rows, shapes = call
    costs = make(widths, rows, seed)
    answers = {}
    for way in (RAGGED, ROWS):
        telemetry = Telemetry()
        with mock.patch.object(kernel, "_ROW_TRIPLES", way), telemetry.tracer.span("call"):
            answers[way] = list(relax(widths, rows, costs(), shapes, telemetry.tracer))
        (span,) = telemetry.tracer.find_roots("call")
        assert span.attributes["row_chunks"] == (way == ROWS)
    _same(answers[ROWS], answers[RAGGED], "row by row")


@pytest.mark.parametrize("below", [1, 0, -1])
def test_the_way_switches_at_the_row_budget(below):
    """A call whose real triples, plus :data:`~repro.routing.kernel._ROW_WEIGHT`
    a row, come one under :data:`~repro.routing.kernel._ROW_TRIPLES` is
    relaxed row by row; one at it or a triple over, laid out ragged. Either
    way the rows answer alike."""
    triples = kernel._ROW_TRIPLES - 2 * kernel._ROW_WEIGHT - below
    # a chain of 2 x 2 candidates (80 triples), and one of 1 x 1 for the rest
    widths, rows = [2, 2, 1], [[0, 1] * 10 + [0], [2] * (triples - 80 + 1)]
    costs = _coordinates(2)(widths, rows, 7)
    telemetry = Telemetry()
    with telemetry.tracer.span("call"):
        got = list(relax(widths, rows, costs(), None, telemetry.tracer))
    (span,) = telemetry.tracer.find_roots("call")
    assert span.attributes["relaxed"] == triples
    assert span.attributes["row_chunks"] == (below > 0)
    with mock.patch.object(kernel, "_ROW_TRIPLES", RAGGED if below > 0 else ROWS):
        assert list(relax(widths, rows, costs(), None)) == got
