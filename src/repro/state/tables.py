"""Service Capability Tables (paper Section 4).

Each proxy maintains two tables:

* **SCT_P** — per-proxy service capability of every member of its own
  cluster (full local state);
* **SCT_C** — aggregate service capability (set union) of every cluster in
  the system.

The tables record an update timestamp per entry so experiments can measure
staleness and convergence of the distribution protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Tuple

from repro.services.catalog import ServiceName
from repro.util.errors import StateError

ProxyId = Hashable
ClusterId = int


@dataclass
class _Entry:
    services: FrozenSet[ServiceName]
    updated_at: float


@dataclass
class ServiceCapabilityTable:
    """A keyed table of service-capability sets with update timestamps.

    ``revision`` increments on every content change — a cheap monotonic
    version consumers (the routing capability feeds) compare instead of
    diffing table snapshots — so it also counts them. A write that repeats
    the stored content only moves the entry's timestamp.
    """

    _entries: Dict[Hashable, _Entry] = field(default_factory=dict)
    revision: int = 0
    #: ``(revision, union of every entry)`` as of the last :meth:`union` call
    _union: Tuple[int, FrozenSet[ServiceName]] = field(
        default=(-1, frozenset()), init=False, repr=False, compare=False
    )

    def update(
        self, key: Hashable, services: FrozenSet[ServiceName], now: float = 0.0
    ) -> bool:
        """Record *services* for *key*; returns True if the content changed."""
        held = self._entries.get(key)
        if held is not None and (held.services is services or held.services == services):
            held.updated_at = now
            return False
        self._entries[key] = _Entry(services=frozenset(services), updated_at=now)
        self.revision += 1
        return True

    def remove(self, key: Hashable) -> None:
        """Drop *key*'s entry (no-op if absent)."""
        if self._entries.pop(key, None) is not None:
            self.revision += 1

    def expire(self, before: float, keep: Hashable) -> bool:
        """Drop every entry but *keep*'s last written before *before*; True if any was."""
        silent = [k for k, e in self._entries.items() if e.updated_at < before and k != keep]
        for key in silent:
            self.remove(key)
        return bool(silent)

    def union(self) -> FrozenSet[ServiceName]:
        """Every service some entry lists; recomputed only once ``revision`` has moved."""
        revision, union = self._union
        if revision != self.revision:
            union = frozenset().union(*(e.services for e in self._entries.values()))
            self._union = (self.revision, union)
        return union

    def services_of(self, key: Hashable) -> FrozenSet[ServiceName]:
        """The recorded capability set for *key*."""
        try:
            return self._entries[key].services
        except KeyError:
            raise StateError(f"no capability entry for {key!r}") from None

    def updated_at(self, key: Hashable) -> float:
        """When *key*'s entry was last written."""
        try:
            return self._entries[key].updated_at
        except KeyError:
            raise StateError(f"no capability entry for {key!r}") from None

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def as_dict(self) -> Dict[Hashable, FrozenSet[ServiceName]]:
        """Snapshot of the table content (keys -> capability sets)."""
        return {k: e.services for k, e in self._entries.items()}


@dataclass
class ProxyState:
    """Everything one proxy knows: its SCT_P, SCT_C, and topology info.

    ``cluster_id`` and the membership/border information correspond to what
    the elected proxy P distributes after clustering (paper Figure 4).
    """

    proxy: ProxyId
    cluster_id: ClusterId
    sct_p: ServiceCapabilityTable = field(default_factory=ServiceCapabilityTable)
    sct_c: ServiceCapabilityTable = field(default_factory=ServiceCapabilityTable)

    def local_capability(self) -> FrozenSet[ServiceName]:
        """This proxy's own service set, as recorded in its SCT_P."""
        return self.sct_p.services_of(self.proxy)

    def aggregate_own_cluster(self) -> FrozenSet[ServiceName]:
        """Union of all known member capabilities — the border proxies'
        aggregation step (Section 4, footnote 5)."""
        return self.sct_p.union()
