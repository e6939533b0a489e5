"""Nelder-Mead simplex minimization, from scratch.

The paper (Section 3.1) maps measured Internet distances into a geometric
space "through some function minimization method [23]" — Nelder & Mead's 1965
downhill simplex. This module implements the standard algorithm with the
usual coefficients (reflection 1, expansion 2, contraction 1/2, shrink 1/2)
and adaptive termination on both simplex spread and function-value spread.

It is validated against ``scipy.optimize.minimize(method="Nelder-Mead")`` in
the test suite but has no runtime dependency beyond numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

Objective = Callable[[np.ndarray], float]
"""Scalar objective: an ``(n,)`` point -> its value. The point is a buffer the
solver reuses — valid during the call; copy to keep."""


@dataclass
class MinimizeResult:
    """Outcome of a Nelder-Mead run.

    Attributes:
        x: best point found.
        fun: objective value at ``x``.
        iterations: simplex iterations performed.
        converged: True if tolerances were met before the iteration cap.
    """

    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


def nelder_mead(
    objective: Objective,
    x0: Sequence[float],
    *,
    initial_step: float = 1.0,
    xtol: float = 1e-6,
    ftol: float = 1e-9,
    max_iterations: int = 2000,
) -> MinimizeResult:
    """Minimize *objective* starting from *x0*.

    Args:
        objective: function of an ``(n,)`` numpy vector returning a float.
            The vector is a buffer this loop reuses: valid during the call;
            copy to keep.
        x0: starting point, length n >= 1.
        initial_step: size of the initial simplex's per-axis offsets.
        xtol: terminate when the simplex's max vertex distance to the best
            vertex drops below this.
        ftol: terminate when the spread of function values across the simplex
            drops below this.
        max_iterations: hard iteration cap.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or x0.size == 0:
        raise ValueError(f"x0 must be a non-empty 1-D vector, got shape {x0.shape}")
    n = x0.size

    # Initial simplex: x0 plus one offset vertex per axis.
    simplex = np.tile(x0, (n + 1, 1))
    for i in range(n):
        step = initial_step if x0[i] == 0 else initial_step * max(abs(x0[i]), 1.0) * 0.1
        simplex[i + 1, i] += step if step != 0 else initial_step
    # Sorted here and after a shrink, and kept sorted in between: a step
    # moves one vertex, so it costs one insertion, not a sort and two gathers.
    # The values are Python floats: no numpy scalar in a comparison.
    values = _sort_simplex(simplex, [float(objective(v)) for v in simplex])
    body, worst = simplex[:-1], simplex[-1]
    centroid, trial, second = np.empty(n), np.empty(n), np.empty(n)
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    column_sums, count = np.add.reduce, np.array(float(n))

    gamma, rho, sigma = 2.0, 0.5, 0.5  # reflection is 1: no multiply
    iterations = 0
    converged = False
    while iterations < max_iterations:
        # the f-spread first (two floats); the x-spread (three passes over
        # the simplex) only when it passed — the same conjunction
        if abs(values[-1] - values[0]) <= ftol and (
            np.maximum.reduce(np.absolute(simplex[1:] - simplex[0]), axis=None) <= xtol
        ):
            converged = True
            break

        # the whole ordered sum over the n best rows, not a running update:
        # the summation order is the result
        column_sums(body, 0, None, centroid)
        divide(centroid, count, centroid)
        subtract(centroid, worst, trial)
        add(centroid, trial, trial)
        vertex, value = trial, float(objective(trial))
        # `slot` is where a stable sort puts a new last element: after every
        # value <= it. A value that won a `<` is not NaN and neither is what
        # it beat, so each search runs over non-NaN values only and the NaNs
        # stay last, where np.argsort has them.
        if values[0] <= value < values[-2]:
            slot = bisect_right(values, value, 0, n - 1)
        elif value < values[0]:
            subtract(trial, centroid, second)
            multiply(second, gamma, second)
            add(centroid, second, second)
            expanded = float(objective(second))
            if expanded < value:
                vertex, value = second, expanded
            slot = 0  # below the best either way; NaNs may sit further down
        else:
            subtract(worst, centroid, second)
            multiply(second, rho, second)
            add(centroid, second, second)
            vertex, value = second, float(objective(second))
            slot = bisect_right(values, value, 0, n) if value < values[-1] else None
        if slot is None:
            best = simplex[0]
            for i in range(1, n + 1):
                simplex[i] = best + sigma * (simplex[i] - best)
                values[i] = float(objective(simplex[i]))
            values = _sort_simplex(simplex, values)
        else:
            simplex[slot + 1 :] = simplex[slot:-1]  # overlapping: numpy buffers it
            simplex[slot] = vertex
            del values[-1]
            values.insert(slot, value)
        iterations += 1

    return MinimizeResult(simplex[0].copy(), values[0], iterations, converged)


def _sort_simplex(simplex: np.ndarray, values: list) -> list:
    """Put the rows of *simplex* in stable value order (NaNs last, as
    ``np.argsort`` has them) in place; returns the values in that order."""
    order = np.argsort(values, kind="stable")
    simplex[:] = simplex[order]
    return [values[i] for i in order]


def minimize_with_restarts(
    objective: Objective,
    starts: Sequence[Sequence[float]],
    **kwargs,
) -> MinimizeResult:
    """Run :func:`nelder_mead` from each start and keep the best result.

    Simplex descent is local; the embedding objective is non-convex, so the
    library offers multi-start as the cheap robustness knob.
    """
    if len(starts) == 0:
        raise ValueError("starts must not be empty")
    best: Optional[MinimizeResult] = None
    for start in starts:
        result = nelder_mead(objective, start, **kwargs)
        if best is None or result.fun < best.fun:
            best = result
    assert best is not None
    return best


# -- batched descent ----------------------------------------------------------
#
# The GNP per-host step solves thousands of *independent* small minimizations
# (one k-variable problem per overlay proxy). Running them through the scalar
# loop above costs one Python-level simplex iteration per host per step; the
# batched variant below runs every host's iteration as one numpy operation
# over an (n+1, A, n) stack of the simplexes still descending.
#
# Each problem follows exactly the scalar control flow — same initial simplex,
# same stable sort, same reflect/expand/contract/shrink decisions, same
# per-problem convergence test — so for an objective whose batched evaluation
# applies the same elementwise arithmetic as its scalar form, the returned
# points are bit-identical to looping :func:`nelder_mead` per problem (the
# equivalence test suite asserts this).

BatchObjective = Callable[[np.ndarray, np.ndarray], np.ndarray]
"""Batched objective: ``(points (M, n), problem_index (M,)) -> values (M,)``.

``problem_index[r]`` names which of the B problems row ``r`` belongs to, so
per-problem data (e.g. each host's measured landmark delays) can be gathered
with one fancy index.
"""


@dataclass
class BatchMinimizeResult:
    """Outcome of a batched Nelder-Mead run over B independent problems.

    Attributes:
        x: best points, ``(B, n)``.
        fun: objective values at ``x``, ``(B,)``.
        iterations: simplex iterations performed per problem, ``(B,)``.
        converged: per-problem convergence flags, ``(B,)``.
    """

    x: np.ndarray
    fun: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray


def _as_per_problem(value, count: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(count, float(arr))
    if arr.shape != (count,):
        raise ValueError(f"per-problem parameter must be scalar or ({count},), got {arr.shape}")
    return arr.astype(float, copy=True)


def _sort_vertices(sim: np.ndarray, val: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vertex-major simplexes ``(n+1, A, n)`` and values ``(n+1, A)`` with
    each problem's vertices in stable value order (one flat gather each)."""
    count = val.shape[1]
    flat = np.argsort(val, axis=0, kind="stable")
    flat *= count
    flat += np.arange(count)
    return sim.reshape(-1, sim.shape[2]).take(flat, axis=0), val.ravel().take(flat)


def nelder_mead_batch(
    objective: BatchObjective,
    x0s: np.ndarray,
    *,
    initial_step=1.0,
    xtol=1e-6,
    ftol=1e-9,
    max_iterations: int = 2000,
) -> BatchMinimizeResult:
    """Minimize B independent n-variable problems simultaneously.

    Args:
        objective: batched objective (see :data:`BatchObjective`).
        x0s: starting points, ``(B, n)``.
        initial_step: scalar or ``(B,)`` per-problem initial simplex step.
        xtol: scalar or ``(B,)`` simplex-spread tolerance.
        ftol: scalar or ``(B,)`` value-spread tolerance.
        max_iterations: hard iteration cap (shared, as in the scalar loop).

    Only the problems still descending are held: a problem that converges
    is written to the result in that iteration and leaves the working set,
    so every step costs what the remaining problems cost.
    """
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] == 0:
        raise ValueError(f"x0s must be a non-empty (B, n) array, got shape {x0s.shape}")
    b, n = x0s.shape
    step0 = _as_per_problem(initial_step, b)
    xtol_act = _as_per_problem(xtol, b)
    ftol_act = _as_per_problem(ftol, b)

    # Initial simplexes, vertex-major — ``sim[v]`` is vertex v of every
    # problem, one contiguous (B, n) block — x0 plus one offset vertex per
    # axis (scalar rule).
    sim = np.repeat(x0s[None, :, :], n + 1, axis=0)
    per_axis = np.where(
        x0s == 0.0,
        step0[:, None],
        step0[:, None] * np.maximum(np.abs(x0s), 1.0) * 0.1,
    )
    per_axis = np.where(per_axis == 0.0, step0[:, None], per_axis)
    axis = np.arange(n)
    sim[axis + 1, :, axis] += per_axis.T
    # The working set: problem ids, simplexes, values and tolerances of the
    # problems still descending, re-compacted only when one of them finishes.
    act = np.arange(b)
    val = objective(sim.reshape((n + 1) * b, n), np.tile(act, n + 1)).reshape(
        n + 1, b
    )

    x = np.empty((b, n), dtype=float)
    fun = np.empty(b, dtype=float)
    iterations = np.zeros(b, dtype=np.int64)
    converged = np.zeros(b, dtype=bool)

    alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
    it = 0
    while it < max_iterations and act.size:
        sim, val = _sort_vertices(sim, val)

        # Converged = f-spread AND x-spread inside tolerance; the x-spread
        # (three passes over the simplexes) is taken only where the f-spread
        # (one subtraction) already passed.
        near = np.flatnonzero(np.absolute(val[-1] - val[0]) <= ftol_act)
        if near.size:
            x_spread = np.maximum.reduce(
                np.absolute(sim[1:, near] - sim[0, near]), axis=(0, 2)
            )
            done = near[x_spread <= xtol_act[near]]
            if done.size:
                finished = act[done]
                x[finished] = sim[0, done]
                fun[finished] = val[0, done]
                converged[finished] = True
                iterations[finished] = it
                keep = np.ones(act.size, dtype=bool)
                keep[done] = False
                act, xtol_act, ftol_act = act[keep], xtol_act[keep], ftol_act[keep]
                sim, val = sim.compress(keep, axis=1), val.compress(keep, axis=1)
                if act.size == 0:
                    break

        # the sequential vertex sum over n: what mean(axis=0) computes
        centroid = np.add.reduce(sim[:-1], axis=0)
        centroid /= n
        worst = sim[-1]
        reflected = centroid + alpha * (centroid - worst)
        # `reflected` / `f_reflected` become each problem's new worst vertex:
        # the expansion or the contraction replaces them where it wins
        # (written in place, so the values must not alias the objective's).
        f_reflected = np.array(objective(reflected, act), dtype=float)
        accept = (val[0] <= f_reflected) & (f_reflected < val[-2])
        expand = f_reflected < val[0]
        contract = ~(accept | expand)

        if expand.any():
            cols = np.flatnonzero(expand)
            base = centroid.take(cols, axis=0)
            expanded = base + gamma * (reflected.take(cols, axis=0) - base)
            f_expanded = objective(expanded, act[cols])
            better = f_expanded < f_reflected[cols]
            win = cols[better]
            reflected[win] = expanded[better]
            f_reflected[win] = f_expanded[better]

        shrink = None
        if contract.any():
            cols = np.flatnonzero(contract)
            base = centroid.take(cols, axis=0)
            contracted = base + rho * (worst.take(cols, axis=0) - base)
            f_contracted = objective(contracted, act[cols])
            ok = f_contracted < val[-1, cols]
            win = cols[ok]
            reflected[win] = contracted[ok]
            f_reflected[win] = f_contracted[ok]
            if not ok.all():
                shrink = cols[~ok]
                best = sim[0, shrink]
                shrunk = best + sigma * (sim[1:, shrink] - best)

        sim[-1] = reflected
        val[-1] = f_reflected
        if shrink is not None:
            sim[1:, shrink] = shrunk
            val[1:, shrink] = objective(
                shrunk.reshape(-1, n), np.tile(act[shrink], n)
            ).reshape(n, -1)
        it += 1

    # Problems cut off by the cap: best vertex of their last simplex.
    if act.size:
        sim, val = _sort_vertices(sim, val)
        x[act] = sim[0]
        fun[act] = val[0]
        iterations[act] = it
    return BatchMinimizeResult(x=x, fun=fun, iterations=iterations, converged=converged)


def minimize_with_restarts_batch(
    objective: BatchObjective,
    starts: np.ndarray,
    *,
    initial_step=1.0,
    xtol=1e-6,
    ftol=1e-9,
    max_iterations: int = 2000,
) -> BatchMinimizeResult:
    """Batched multi-start: ``starts`` is ``(B, S, n)``; keeps each problem's
    best run (earliest start wins ties, matching the scalar restart loop).

    Per-problem ``initial_step``/``xtol``/``ftol`` apply to every start of
    that problem.
    """
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 3 or starts.shape[1] == 0:
        raise ValueError(f"starts must be (B, S, n), got shape {starts.shape}")
    b, s, n = starts.shape

    def flat_objective(points: np.ndarray, idx: np.ndarray) -> np.ndarray:
        return objective(points, idx // s)

    expand = lambda v: np.repeat(_as_per_problem(v, b), s)  # noqa: E731
    result = nelder_mead_batch(
        flat_objective,
        starts.reshape(b * s, n),
        initial_step=expand(initial_step),
        xtol=expand(xtol),
        ftol=expand(ftol),
        max_iterations=max_iterations,
    )
    funs = result.fun.reshape(b, s)
    best = np.argmin(funs, axis=1)
    rows = np.arange(b) * s + best
    return BatchMinimizeResult(
        x=result.x[rows],
        fun=result.fun[rows],
        iterations=result.iterations[rows],
        converged=result.converged[rows],
    )
