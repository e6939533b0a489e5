"""Tests for the util package (rng, errors)."""

import random

import pytest

from repro.util import (
    NoFeasiblePathError,
    ReproError,
    RoutingError,
    ensure_rng,
    spawn,
)
from repro.util.rng import uniform_draws


class TestEnsureRng:
    def test_int_seed_deterministic(self):
        assert ensure_rng(5).random() == ensure_rng(5).random()

    def test_rng_passthrough(self):
        rng = random.Random(1)
        assert ensure_rng(rng) is rng

    def test_none_gives_fresh(self):
        a, b = ensure_rng(None), ensure_rng(None)
        assert a is not b


class TestSpawn:
    def test_deterministic_per_label(self):
        a = spawn(ensure_rng(7), "topology").random()
        b = spawn(ensure_rng(7), "topology").random()
        assert a == b

    def test_labels_independent(self):
        parent = ensure_rng(7)
        a = spawn(parent, "one")
        b = spawn(parent, "two")
        assert a.random() != b.random()

    def test_child_isolated_from_parent_consumption(self):
        """Drawing from one child must not perturb a sibling's stream."""
        p1 = ensure_rng(7)
        spawn(p1, "a")  # first child claimed, as in the p2 replay below
        c2 = spawn(p1, "b")
        c2_values = [c2.random() for _ in range(3)]

        p2 = ensure_rng(7)
        d1 = spawn(p2, "a")
        for _ in range(100):
            d1.random()  # heavy use of the first child
        d2 = spawn(p2, "b")
        assert [d2.random() for _ in range(3)] == c2_values


class TestUniformDraws:
    @pytest.mark.parametrize("seed", [0, 1, 11, 2**40 + 7])
    @pytest.mark.parametrize("count", [0, 1, 2, 33, 1000])
    def test_equals_that_many_random_calls(self, seed, count):
        """Same values, same generator state afterwards, bit for bit."""
        bulk, one_by_one = random.Random(seed), random.Random(seed)
        bulk.gauss(0.0, 1.0)  # a cached second gaussian must not matter
        one_by_one.gauss(0.0, 1.0)
        assert uniform_draws(bulk, count).tolist() == [
            one_by_one.random() for _ in range(count)
        ]
        assert bulk.getstate() == one_by_one.getstate()


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(NoFeasiblePathError, RoutingError)
        assert issubclass(RoutingError, ReproError)

    def test_catchable_as_base(self):
        with pytest.raises(ReproError):
            raise NoFeasiblePathError("nope")
