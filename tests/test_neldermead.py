"""Tests for the from-scratch Nelder-Mead minimizer (vs scipy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from repro.coords import minimize_with_restarts, nelder_mead


def sphere(x):
    return float(np.sum(np.asarray(x) ** 2))


def rosenbrock(x):
    return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1 - x[0]) ** 2)


class TestNelderMead:
    def test_minimizes_1d_quadratic(self):
        result = nelder_mead(lambda x: float((x[0] - 3.0) ** 2), [0.0])
        assert result.x[0] == pytest.approx(3.0, abs=1e-3)
        assert result.converged

    def test_minimizes_sphere_5d(self):
        result = nelder_mead(sphere, [5.0, -3.0, 2.0, 1.0, -4.0])
        assert result.fun < 1e-6

    def test_minimizes_rosenbrock(self):
        result = nelder_mead(rosenbrock, [-1.2, 1.0], max_iterations=5000)
        assert result.x == pytest.approx([1.0, 1.0], abs=1e-2)

    def test_iteration_cap_respected(self):
        result = nelder_mead(rosenbrock, [-1.2, 1.0], max_iterations=5)
        assert result.iterations <= 5
        assert not result.converged

    def test_rejects_empty_start(self):
        with pytest.raises(ValueError):
            nelder_mead(sphere, [])

    def test_rejects_2d_start(self):
        with pytest.raises(ValueError):
            nelder_mead(sphere, np.zeros((2, 2)))

    def test_start_at_optimum_stays(self):
        result = nelder_mead(sphere, [0.0, 0.0])
        assert result.fun < 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.floats(-5, 5), min_size=1, max_size=4),
        st.lists(st.floats(-3, 3), min_size=4, max_size=4),
    )
    def test_at_least_as_good_as_scipy_on_shifted_quadratics(self, start, target):
        """Property: on convex quadratics we do no worse than scipy.

        (Strict equality would be unfair the other way: scipy's default
        initial simplex degenerates on near-zero denormal starts where our
        floor-to-1.0 step sizing keeps working.)
        """
        target = np.array(target[: len(start)])
        start = np.array(start)

        def objective(x):
            return float(np.sum((x - target) ** 2))

        ours = nelder_mead(objective, start, max_iterations=4000)
        theirs = optimize.minimize(
            objective, start, method="Nelder-Mead",
            options={"maxiter": 4000, "xatol": 1e-8, "fatol": 1e-10},
        )
        assert ours.fun <= float(theirs.fun) + 1e-4


class TestRestarts:
    def test_picks_best_start(self):
        # A function with two basins: x^4 - x^2 has minima at +-1/sqrt(2)
        def w(x):
            return float(x[0] ** 4 - x[0] ** 2 + 0.1 * x[0])

        result = minimize_with_restarts(w, [[1.0], [-1.0]])
        # global minimum is on the negative side because of the +0.1x tilt
        assert result.x[0] < 0

    def test_empty_starts_rejected(self):
        with pytest.raises(ValueError):
            minimize_with_restarts(sphere, [])

    def test_single_start_equivalent(self):
        a = nelder_mead(sphere, [2.0, 2.0])
        b = minimize_with_restarts(sphere, [[2.0, 2.0]])
        assert a.fun == pytest.approx(b.fun)
