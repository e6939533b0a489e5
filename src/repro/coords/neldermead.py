"""Nelder-Mead simplex minimization, from scratch.

The paper (Section 3.1) maps measured Internet distances into a geometric
space "through some function minimization method [23]" — Nelder & Mead's 1965
downhill simplex. This module implements the standard algorithm with the
usual coefficients (reflection 1, expansion 2, contraction 1/2, shrink 1/2)
and adaptive termination on both simplex spread and function-value spread.

The scalar loop runs in one of two vertex formats: at n = 2 (the paper's
plane, every join's locate) six local floats, otherwise (the landmark solve)
the rows of one numpy buffer — the same IEEE operations in the same order, so
the format never moves a float.

It is validated against ``scipy.optimize.minimize(method="Nelder-Mead")`` in
the test suite but has no runtime dependency beyond numpy.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

Objective = Callable[[Sequence[float]], float]
"""Scalar objective: a point of n floats -> its value. The point is a list of
two Python floats at n = 2 and a buffer the solver reuses otherwise; either
way it is valid during the call only — copy to keep."""


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
        objective: function of a point of n floats returning a float (see
            :data:`Objective`: valid during the call; copy to keep).
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
    if n == 2:
        return _plane(objective, simplex.tolist(), xtol, ftol, max_iterations)
    return _buffers(objective, simplex, xtol, ftol, max_iterations)


def _plane(objective: Objective, rows: list, xtol: float, ftol: float, max_iterations: int) -> MinimizeResult:
    """:func:`_buffers` at n = 2 on six local floats (best ``a``, second
    ``b``, worst ``w``) and their three values: each buffer operation written
    out per coordinate, each insertion the compare chain ``bisect_right``
    makes, so a tie goes behind the older vertex and a NaN stays last."""
    values = [float(objective(row)) for row in rows]
    order = np.argsort(values, kind="stable").tolist()
    (a0, a1, fa), (b0, b1, fb), (w0, w1, fw) = [(*rows[i], values[i]) for i in order]
    iterations = 0
    converged = False
    while iterations < max_iterations:
        if abs(fw - fa) <= ftol and (
            abs(b0 - a0) <= xtol and abs(b1 - a1) <= xtol
            and abs(w0 - a0) <= xtol and abs(w1 - a1) <= xtol
        ):
            converged = True
            break
        c0, c1 = (a0 + b0) / 2.0, (a1 + b1) / 2.0
        r0, r1 = c0 + (c0 - w0), c1 + (c1 - w1)
        fr = float(objective([r0, r1]))
        if fa <= fr < fb:  # behind the best, a tie included
            w0, w1, fw, b0, b1, fb = b0, b1, fb, r0, r1, fr
        elif fr < fa:  # the new best either way
            e0, e1 = c0 + 2.0 * (r0 - c0), c1 + 2.0 * (r1 - c1)
            fe = float(objective([e0, e1]))
            if fe < fr:
                r0, r1, fr = e0, e1, fe
            w0, w1, fw, b0, b1, fb, a0, a1, fa = b0, b1, fb, a0, a1, fa, r0, r1, fr
        else:
            k0, k1 = c0 + 0.5 * (w0 - c0), c1 + 0.5 * (w1 - c1)
            fk = float(objective([k0, k1]))
            if not fk < fw:  # the shrink, NaN worst included: re-sort NaN-last
                b0, b1 = a0 + 0.5 * (b0 - a0), a1 + 0.5 * (b1 - a1)
                fb = float(objective([b0, b1]))
                w0, w1 = a0 + 0.5 * (w0 - a0), a1 + 0.5 * (w1 - a1)
                fw = float(objective([w0, w1]))
                ranked = [(a0, a1, fa), (b0, b1, fb), (w0, w1, fw)]
                order = np.argsort([fa, fb, fw], kind="stable").tolist()
                (a0, a1, fa), (b0, b1, fb), (w0, w1, fw) = [ranked[i] for i in order]
            elif not fk < fb:  # bisect_right over (fa, fb): `< fb`, then `< fa`
                w0, w1, fw = k0, k1, fk
            elif not fk < fa:
                w0, w1, fw, b0, b1, fb = b0, b1, fb, k0, k1, fk
            else:
                w0, w1, fw, b0, b1, fb, a0, a1, fa = b0, b1, fb, a0, a1, fa, k0, k1, fk
        iterations += 1
    return MinimizeResult(np.array([a0, a1]), fa, iterations, converged)


def _buffers(
    objective: Objective, simplex: np.ndarray, xtol: float, ftol: float, max_iterations: int
) -> MinimizeResult:
    """The simplex as the rows of one ``(n + 1, n)`` buffer; every trial
    point is written into one of two preallocated buffers."""
    n = simplex.shape[1]
    body, worst = simplex[:-1], simplex[-1]
    centroid, trial, second = np.empty(n), np.empty(n), np.empty(n)
    add, subtract, multiply, divide = np.add, np.subtract, np.multiply, np.divide
    column_sums, count = np.add.reduce, np.array(float(n))

    def sort(values: list) -> list:
        order = np.argsort(values, kind="stable")
        simplex[:] = simplex[order]
        return [values[i] for i in order]

    def along(base, toward, coef: float) -> np.ndarray:
        subtract(toward, base, second)
        multiply(second, coef, second)
        return add(base, second, second)

    # Sorted here and after a shrink, and kept sorted in between: a step
    # moves one vertex, so it costs one insertion, not a sort and two gathers.
    # The values are Python floats: no numpy scalar in a comparison.
    values = sort([float(objective(v)) for v in simplex])

    gamma, rho, sigma = 2.0, 0.5, 0.5  # reflection is 1: no multiply
    iterations = 0
    converged = False
    while iterations < max_iterations:
        # the f-spread first (two floats); the x-spread only when it passed
        if (
            abs(values[-1] - values[0]) <= ftol
            and np.maximum.reduce(np.absolute(simplex[1:] - simplex[0]), axis=None) <= xtol
        ):
            converged = True
            break

        # the whole ordered sum over the n best rows, not a running update:
        # the summation order is the result
        column_sums(body, 0, None, centroid)
        divide(centroid, count, centroid)
        subtract(centroid, worst, trial)
        vertex = add(centroid, trial, trial)
        value = float(objective(vertex))
        # `slot` is where a stable sort puts a new last element: after every
        # value <= it. A value that won a `<` is not NaN and neither is what
        # it beat, so each search runs over non-NaN values only and the NaNs
        # stay last, where np.argsort has them.
        if values[0] <= value < values[-2]:
            slot = bisect_right(values, value, 0, n - 1)
        elif value < values[0]:
            expanded = along(centroid, vertex, gamma)
            f_expanded = float(objective(expanded))
            if f_expanded < value:
                vertex, value = expanded, f_expanded
            slot = 0  # below the best either way; NaNs may sit further down
        else:
            vertex = along(centroid, worst, rho)
            value = float(objective(vertex))
            slot = bisect_right(values, value, 0, n) if value < values[-1] else None
        if slot is None:
            best = simplex[0]
            for i in range(1, n + 1):
                simplex[i] = along(best, simplex[i], sigma)
                values[i] = float(objective(simplex[i]))
            values = sort(values)
        else:
            simplex[slot + 1 :] = simplex[slot:-1]  # overlapping: numpy copies the source first
            simplex[slot] = vertex
            del values[-1]
            values.insert(slot, value)
        iterations += 1

    return MinimizeResult(simplex[0].copy(), values[0], iterations, converged)


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

    gamma, rho, sigma = 2.0, 0.5, 0.5
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
        reflected = centroid + (centroid - worst)  # reflection 1: no multiply
        # `reflected` / `f_reflected` become each problem's new worst vertex:
        # the expansion or the contraction replaces them where it wins
        # (written in place, so the values must not alias the objective's).
        f_reflected = np.array(objective(reflected, act), dtype=float)
        accept = (val[0] <= f_reflected) & (f_reflected < val[-2])

        shrink = None
        # every other problem expands or contracts: disjoint rows, one call
        cols = np.flatnonzero(~accept)
        if cols.size:
            grow = f_reflected[cols] < val[0, cols]
            base = centroid.take(cols, axis=0)
            toward = np.where(grow[:, None], reflected.take(cols, axis=0), worst.take(cols, axis=0))
            trial = base + np.where(grow, gamma, rho)[:, None] * (toward - base)
            f_trial = objective(trial, act[cols])
            ok = f_trial < np.where(grow, f_reflected[cols], val[-1, cols])
            win = cols[ok]
            reflected[win] = trial[ok]
            f_reflected[win] = f_trial[ok]
            lost = ~(ok | grow)
            if lost.any():
                shrink = cols[lost]
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
    earliest run unless a later one is strictly lower — the scalar restart
    loop's rule, so a NaN run never replaces a finite one (``np.argmin``
    would prefer the NaN).

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
    funs, problems = result.fun.reshape(b, s), np.arange(b)
    best = np.zeros(b, dtype=np.int64)
    for start in range(1, s):
        best[funs[:, start] < funs[problems, best]] = start
    rows = problems * s + best
    return BatchMinimizeResult(
        x=result.x[rows],
        fun=result.fun[rows],
        iterations=result.iterations[rows],
        converged=result.converged[rows],
    )
