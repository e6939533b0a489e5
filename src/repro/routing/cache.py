"""CSP caching for the hierarchical router.

A destination proxy pd repeatedly resolves requests whose *cluster-level*
answer is identical: the CSP depends only on the service graph's shape, the
source proxy's cluster, and pd itself — not on which exact proxy inside the
source cluster issued the data. Real deployments would memoise that step
(it is the only step touching global aggregate state), so this module
provides :class:`CachedHierarchicalRouter`: an LRU cache over CSPs.

Invalidation is version-driven: bind a capability feed
(``capability_feed=...``, e.g. a protocol's
:meth:`~repro.state.protocol.StateDistributionProtocol.capability_feed`
or the framework's :meth:`~repro.core.framework.HFCFramework.capability_feed`)
and the cache drops itself exactly when the feed's version moves — no
caller has to guess when to call :meth:`~CachedHierarchicalRouter.invalidate`
anymore (it remains available for feed-less manual wiring).

The intra-cluster conquer step is *not* cached: it depends on the concrete
endpoints and is already cheap and local.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, FrozenSet, Hashable, Mapping, Optional

from repro.routing.batch import service_graph_signature
from repro.routing.hierarchical import ClusterServicePath, HierarchicalRouter
from repro.services.catalog import ServiceName
from repro.util.errors import RoutingError

__all__ = [
    "CachedHierarchicalRouter",
    "CacheStats",
    "service_graph_signature",  # canonical home: repro.routing.batch
]


@dataclass
class CacheStats:
    """Hit/miss counters of a CSP cache."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    entries_dropped: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class CachedHierarchicalRouter(HierarchicalRouter):
    """A hierarchical router with an LRU cache over cluster-level paths."""

    def __init__(self, *args: Any, cache_size: int = 1024, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if cache_size < 1:
            raise RoutingError("cache_size must be >= 1")
        self._cache_size = cache_size
        self._cache: "OrderedDict[Hashable, ClusterServicePath]" = OrderedDict()
        self.stats = CacheStats()
        registry = self.telemetry.registry
        self._hit_counter = registry.counter("routing.cache.hits", cache="csp")
        self._miss_counter = registry.counter("routing.cache.misses", cache="csp")
        self._invalidation_counter = registry.counter(
            "routing.cache.invalidations", cache="csp"
        )
        self._dropped_counter = registry.counter(
            "routing.cache.entries_dropped", cache="csp"
        )

    def _csp_cache_get(self, key: Hashable) -> Optional[ClusterServicePath]:
        """LRU lookup; counts a hit or a miss either way.

        The CSP stage syncs with the capability feed *before* it consults
        this (a version bump runs ``_capabilities_changed`` -> ``invalidate``,
        so a stale CSP is never served) and asks once per CSP identity per
        call, whatever the size of the call.
        """
        cached = self._cache.get(key)
        if cached is not None:
            self._cache.move_to_end(key)
            self.stats.hits += 1
            self._hit_counter.inc()
            return cached
        self.stats.misses += 1
        self._miss_counter.inc()
        return None

    def _csp_cache_put(self, key: Hashable, csp: ClusterServicePath) -> None:
        self._cache[key] = csp
        if len(self._cache) > self._cache_size:
            self._cache.popitem(last=False)

    def invalidate(self) -> int:
        """Drop every cached CSP (call when SCT_C content changes).

        Returns the number of entries dropped. An invalidation of an
        already-empty cache is a no-op and is *not* counted — otherwise
        every first feed sync and every redundant call inflates the
        invalidation stats without any cached answer having been at risk.
        """
        dropped = len(self._cache)
        if dropped == 0:
            return 0
        self._cache.clear()
        self.stats.invalidations += 1
        self.stats.entries_dropped += dropped
        self._invalidation_counter.inc()
        self._dropped_counter.inc(dropped)
        return dropped

    def _capabilities_changed(self) -> None:
        # the feed version moved: every cached CSP may rest on stale SCT_C
        self.invalidate()

    def update_capabilities(
        self, cluster_capabilities: Mapping[int, FrozenSet[ServiceName]]
    ) -> None:
        """Replace SCT_C and invalidate the cache in one step."""
        self.cluster_capabilities = dict(cluster_capabilities)
        self.invalidate()
