"""Shared popularity sampling: uniform and Zipf-weighted draws.

Both the batch workload generator (``experiments/workload.py``) and the
open-loop traffic engine (``repro.traffic``) draw service names from the
same popularity models; this module is the single home for the weighting
code so the two layers cannot drift.

Determinism contract: :meth:`PopularitySampler.draw` consumes exactly one
``rng.choice`` call in uniform mode and exactly one ``rng.choices`` call
in zipf mode — the same draw sequence the original workload sampler made,
so seeds produce bit-identical request streams across the refactor.
"""

from __future__ import annotations

import random
from itertools import accumulate
from typing import Generic, List, Optional, Sequence, TypeVar

from repro.util.errors import ReproError

T = TypeVar("T")

#: popularity models understood by :class:`PopularitySampler`
POPULARITY_MODELS = ("uniform", "zipf")


def zipf_weights(count: int, exponent: float = 1.0) -> List[float]:
    """Zipf(rank) weights for *count* items: item i gets ``1/(i+1)**s``.

    The first item is the most popular; weights are unnormalised (the
    stdlib's ``random.choices`` normalises internally, and keeping the raw
    form preserves the historical draw sequence).
    """
    if count < 1:
        raise ReproError("zipf_weights needs at least one item")
    if exponent <= 0:
        raise ReproError("zipf exponent must be positive")
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


class PopularitySampler(Generic[T]):
    """Draws items by uniform or Zipf(rank) popularity.

    Items keep their given order; in zipf mode the first item is the most
    popular. The sampler itself is stateless — randomness comes from the
    ``rng`` passed to each :meth:`draw`, so one sampler can serve several
    independent streams.
    """

    def __init__(
        self,
        items: Sequence[T],
        *,
        popularity: str = "uniform",
        exponent: float = 1.0,
    ) -> None:
        if not items:
            raise ReproError("PopularitySampler needs a non-empty item list")
        if popularity not in POPULARITY_MODELS:
            raise ReproError(
                f"popularity must be one of {POPULARITY_MODELS}, got {popularity!r}"
            )
        self._items = list(items)
        self.popularity = popularity
        self.exponent = exponent
        self._weights: Optional[List[float]] = (
            None if popularity == "uniform" else zipf_weights(len(items), exponent)
        )
        # what ``rng.choices(weights=...)`` would re-accumulate on every draw
        self._cum_weights = list(accumulate(self._weights or ()))

    @property
    def items(self) -> List[T]:
        return list(self._items)

    @property
    def weights(self) -> Optional[List[float]]:
        """The raw Zipf weights (None in uniform mode)."""
        return None if self._weights is None else list(self._weights)

    def draw(self, rng: random.Random) -> T:
        """One item, drawn with the configured popularity from *rng*."""
        if self._weights is None:
            return rng.choice(self._items)
        return rng.choices(self._items, cum_weights=self._cum_weights, k=1)[0]
