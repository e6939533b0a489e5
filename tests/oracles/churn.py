"""The rebuild-the-world overlay: the reference the per-cluster patches of
:class:`~repro.membership.DynamicOverlay` are compared against.

This is the former ``DynamicOverlay(incremental=False)`` mode. After every
join or leave it re-adopts the labels, re-scans every border pair,
re-derives the hierarchy assignment and drops the lazy views, so its state
after each event is the rebuilt one whatever the patch did.
``tests/test_incremental_equivalence.py`` drives it and the production class
through identical event sequences and requires equal clusters, labels,
borders and routing matrices after every event.
"""

import numpy as np

from repro.hierarchy.levels import build_levels
from repro.membership import DynamicOverlay


class RebuildingOverlay(DynamicOverlay):
    """Rebuilds borders and hierarchy from scratch after every event."""

    def join(self, *args, **kwargs):
        proxy = super().join(*args, **kwargs)
        self._rebuild()
        return proxy

    def leave(self, proxy):
        super().leave(proxy)
        self._rebuild()

    def _rebuild(self) -> None:
        self._adopt_labels(dict(self._labels))
        self._refresh_borders()
        self._rebuild_hierarchy()
        self._invalidate_views()


def assert_levels_equal(got, want):
    """Two level stacks hold the same arrays, level by level."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.parent, b.parent)
        assert np.array_equal(a.ptr, b.ptr)
        assert np.array_equal(a.members, b.members)
        assert np.array_equal(a.border_matrix, b.border_matrix)
        assert np.array_equal(a.centroids, b.centroids)


def assert_matches_cold_levels(dyn):
    """*dyn*'s patched level stack equals a cold :func:`build_levels` under
    the assignment it currently holds (centroids and borders from scratch)."""
    patched = dyn.hierarchy()
    assignments = [
        [list(level.members_of(g)) for g in range(level.count)]
        for level in patched.levels
    ]
    cold = build_levels(dyn.hfc, patched.depth, assignments=assignments)
    assert_levels_equal(patched.levels, cold.levels)
