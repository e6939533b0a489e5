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
