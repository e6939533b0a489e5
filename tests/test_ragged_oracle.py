"""The ragged kernel against the layout and relaxation it was cut down from.

``tests/oracles/ragged.py`` keeps ``ragged_chunks`` / ``_ragged`` /
``segment_argmin`` / ``relax`` as they stood before the kernel made fewer
numpy calls per chunk. Every :class:`~repro.routing.batch.Ragged` field of
every chunk, and every yield of :func:`~repro.routing.batch.relax`, must be
the oracle's bit for bit: value, dtype and shape. The calls are random chain
and branching rows (1-60 rows, candidate groups of width 0-13, dead branches
that :func:`~repro.routing.batch.graph_row` drops), laid out at the default
chunk budget and with ``_CHUNK_TRIPLES`` patched down to 40, 5 and 1, so the
chunk seams and one-row chunks are covered too.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing import batch as batch_module
from repro.routing.batch import ProxyCosts, Ragged, graph_row, ragged_chunks, relax
from repro.routing.providers import MatrixProvider
from repro.services.graph import ServiceGraph
from tests.oracles import ragged as oracle

BUDGETS = (1, 5, 40, batch_module._CHUNK_TRIPLES)


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
        with mock.patch.object(batch_module, "_CHUNK_TRIPLES", budget):
            got = list(ragged_chunks(widths, rows, shapes))
            want = list(oracle.ragged_chunks(widths, rows, shapes))
        assert [chunk[:2] for chunk in got] == [chunk[:2] for chunk in want], budget
        for (r0, _, lay), (_, _, expected) in zip(got, want):
            for field in Ragged._fields:
                _same(getattr(lay, field), getattr(expected, field), f"budget {budget} rows {r0}: {field}")


def _costs(widths, rows, seed):
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


@settings(max_examples=60, deadline=None)
@given(kernel_call(), st.integers(0, 2**32 - 1))
def test_every_relax_yield_is_the_oracles(call, seed):
    widths, rows, shapes = call
    costs = _costs(widths, rows, seed)
    for budget in BUDGETS:
        with mock.patch.object(batch_module, "_CHUNK_TRIPLES", budget):
            got = list(relax(widths, rows, costs(), shapes))
            want = list(oracle.relax(widths, rows, costs(), shapes))
        assert len(got) == len(want), budget
        for ours, theirs in zip(got, want):
            r0, r1, lay, parent, final, totals = ours
            assert (r0, r1) == theirs[:2], budget
            for field in Ragged._fields:
                _same(getattr(lay, field), getattr(theirs[2], field), f"budget {budget}: {field}")
            _same(parent, theirs[3], f"budget {budget}: parent")
            _same(final, theirs[4], f"budget {budget}: final")
            _same(totals, theirs[5], f"budget {budget}: totals")
