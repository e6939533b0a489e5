"""Overlay versioning and change propagation.

The incremental overlay core (membership patches, delta state
announcements, version-aware routing caches) needs one shared notion of
"has the world changed since I last looked?". This module provides it:

* :class:`OverlayVersion` — a monotonically increasing ``(epoch, step)``
  pair. ``step`` advances on every local mutation (a join, a leave, a
  capability change); ``epoch`` advances on structural rebuilds
  (``restructure()``), which — like a leave that empties a cluster
  (``dropped``) — invalidate anything derived from cluster ids. Versions
  are totally ordered and hashable, so consumers can cache the last
  version they acted on and compare.
* :class:`MembershipChanges` — the changes between two materialised views.
* :class:`ChangeNotifier` — a minimal synchronous publish/subscribe hub;
  the membership layer notifies on every event, the state/routing layers
  subscribe.
* :class:`CapabilityFeed` — the read side of a *versioned* cluster
  capability view (cluster id -> frozenset of service names). Routers
  poll ``feed.version`` and refresh from ``feed.capabilities()`` only
  when it moved, replacing the old "caller must remember to call
  ``invalidate()``" contract.
* :class:`MutableCapabilityFeed` — an in-memory feed whose owner calls
  :meth:`~MutableCapabilityFeed.publish` when the view changes.

Anything exposing ``.version`` (orderable, equatable) and
``.capabilities()`` satisfies the feed contract — the state protocol
publishes its own feed backed by live SCT_C tables without importing
this module's classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Set, Tuple

#: capability view type: cluster id -> services available in that cluster
ClusterCapabilities = Dict[int, FrozenSet[str]]


@dataclass(frozen=True, order=True)
class OverlayVersion:
    """A totally ordered ``(epoch, step)`` overlay version stamp.

    ``epoch`` counts structural rebuilds (restructures), ``step`` counts
    mutations within an epoch. Lexicographic ordering means any event —
    local or structural — produces a strictly larger version; a step can
    renumber clusters too (a leave that empties one).
    """

    epoch: int = 0
    step: int = 0

    def bump(self) -> "OverlayVersion":
        """The next version after a local mutation (join/leave/update)."""
        return OverlayVersion(self.epoch, self.step + 1)

    def bump_epoch(self) -> "OverlayVersion":
        """The next version after a structural rebuild (restructure)."""
        return OverlayVersion(self.epoch + 1, 0)

    def __str__(self) -> str:
        return f"{self.epoch}.{self.step}"


@dataclass
class MembershipChanges:
    """The changes between the view whose record's :attr:`token` is *base*
    and the view this record is attached to: joins and leaves in order as
    ``(kind, proxy, cluster)``, the base pairs ``(i, j)``, ``i < j``, they
    re-elected, and the clusters ``dropped`` (ids above one shift down)."""

    base: object = None
    token: object = field(default_factory=object)
    moves: List[Tuple[str, int, int]] = field(default_factory=list)
    reelected: Set[Tuple[int, int]] = field(default_factory=set)
    dropped: List[int] = field(default_factory=list)
    restructured: bool = False


class ChangeNotifier:
    """Synchronous fan-out of overlay change events.

    Subscribers are called in subscription order with
    ``callback(version, **info)``; exceptions propagate to the mutator
    (changes are applied before notification, so state stays coherent).
    """

    def __init__(self) -> None:
        self._subscribers: List[Callable[..., None]] = []

    def subscribe(self, callback: Callable[..., None]) -> Callable[..., None]:
        """Register *callback* for every later event; returns it."""
        self._subscribers.append(callback)
        return callback

    def notify(self, version: OverlayVersion, **info: object) -> None:
        """Deliver ``(version, **info)`` to every subscriber."""
        for callback in list(self._subscribers):
            callback(version, **info)

    def __len__(self) -> int:
        return len(self._subscribers)


class CapabilityFeed:
    """Read side of a versioned cluster-capability view.

    Consumers remember the last ``version`` they synchronised at and call
    :meth:`capabilities` again only when the feed's version differs.
    ``version`` may be any equatable value that changes whenever the view
    does (an :class:`OverlayVersion`, a table revision counter, ...).
    """

    @property
    def version(self) -> object:
        raise NotImplementedError

    def capabilities(self) -> Mapping[int, FrozenSet[str]]:
        """The current cluster id -> services view (callers must copy)."""
        raise NotImplementedError


class MutableCapabilityFeed(CapabilityFeed):
    """A capability feed updated explicitly through :meth:`publish`."""

    def __init__(
        self, capabilities: Optional[Mapping[int, FrozenSet[str]]] = None
    ) -> None:
        self._capabilities: ClusterCapabilities = {
            cid: frozenset(services)
            for cid, services in (capabilities or {}).items()
        }
        self._version = OverlayVersion()
        self.notifier = ChangeNotifier()

    @property
    def version(self) -> OverlayVersion:
        return self._version

    def capabilities(self) -> ClusterCapabilities:
        return self._capabilities

    def publish(
        self,
        capabilities: Mapping[int, FrozenSet[str]],
        *,
        restructured: bool = False,
    ) -> OverlayVersion:
        """Replace the view and advance the version.

        ``restructured=True`` advances the epoch instead of the step —
        use it when cluster ids themselves were reassigned, so consumers
        can distinguish "same clusters, new services" from "new world".
        """
        self._capabilities = {
            cid: frozenset(services) for cid, services in capabilities.items()
        }
        self._version = (
            self._version.bump_epoch() if restructured else self._version.bump()
        )
        self.notifier.notify(self._version)
        return self._version
