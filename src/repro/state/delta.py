"""Sequence-numbered delta announcements for the state plane.

The Section-4 protocol is soft state: senders periodically re-announce
capability sets whether or not they changed, which makes every period cost
O(|services|) per link at steady state. This module supplies the delta
encoding the protocol puts on the wire instead:

* :class:`Announcement` — one announcement on one stream. Either a *full*
  snapshot (the complete capability set) or a *delta* (services added and
  removed since the previous announcement on the same stream), tagged with
  a per-stream sequence number.
* :class:`DeltaEmitter` — the sender side. Tracks the last announced set
  per stream, emits deltas, and re-emits a full snapshot every
  ``refresh_every`` announcements — the K-period refresh that keeps the
  soft-state safety net: any receiver that missed a delta (loss, late
  join) resynchronises at the next full snapshot without any
  retransmission machinery.
* :class:`DeltaAssembler` — the receiver side. Reassembles each stream's
  current set; **stale** announcements (sequence not newer than the last
  applied) are ignored, and deltas that don't extend the exact previous
  sequence (a **gap**) are ignored until the next full snapshot re-anchors
  the stream.

Crash/restart is first-class: announcements carry an **incarnation**
number alongside the sequence, and :meth:`DeltaEmitter.restart` hands out
the emitter for the next incarnation after a state wipe. Receivers accept
a full snapshot from a newer incarnation even though its sequence number
restarted at 1 — without this, a restarted sender would be rejected as
stale forever by every peer that saw its pre-crash announcements (the
fault-injection suite regression-tests exactly this).

Wire-size accounting: an announcement costs ``1`` abstract unit of header
(sequence number + stream key) plus one unit per service name carried —
so an unchanged set costs 1 instead of |services|, and the simulator's
byte counters (``sim.bytes.delivered``) directly show the savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Optional, Tuple

from repro.services.catalog import ServiceName
from repro.util.errors import StateError

#: a stream identity: (flow, origin, ...) — opaque to this module
StreamId = Tuple[Hashable, ...]


@dataclass(frozen=True)
class Announcement:
    """One announcement on one delta stream.

    ``full`` is the complete set for full snapshots (``added``/``removed``
    are empty); delta announcements carry only the symmetric difference
    against the stream's previous announcement.

    ``incarnation`` identifies the sender's boot: a sender that crashed
    and restarted with wiped state announces under a strictly larger
    incarnation, so receivers that remember the pre-crash sequence numbers
    do not reject the restarted stream as stale forever. Sequence numbers
    only order announcements *within* one incarnation.
    """

    seq: int
    full: Optional[FrozenSet[ServiceName]] = None
    added: FrozenSet[ServiceName] = frozenset()
    removed: FrozenSet[ServiceName] = frozenset()
    incarnation: int = 0

    @property
    def is_full(self) -> bool:
        return self.full is not None

    @property
    def wire_size(self) -> int:
        """Abstract message size: 1 header unit + 1 per service carried."""
        if self.full is not None:
            return 1 + len(self.full)
        return 1 + len(self.added) + len(self.removed)


@dataclass
class DeltaEmitter:
    """Sender-side delta encoding with a K-announcement full refresh."""

    #: every K-th announcement per stream is a full snapshot (K=1 means
    #: always-full, i.e. the paper's re-flood-everything behaviour with a
    #: header unit — the baseline the byte savings are measured against). The
    #: default trades ~70% of the steady-state byte savings for a refresh
    #: frequent enough that 30%+ message loss still converges quickly.
    refresh_every: int = 4
    #: the sender's boot counter; bump via :meth:`restart` after a crash
    #: with state wipe so receivers accept the fresh streams
    incarnation: int = 0
    _last: Dict[StreamId, FrozenSet[ServiceName]] = field(default_factory=dict)
    _seq: Dict[StreamId, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.refresh_every < 1:
            raise StateError(
                f"refresh_every must be >= 1, got {self.refresh_every}"
            )

    def announce(
        self, stream: StreamId, services: FrozenSet[ServiceName]
    ) -> Announcement:
        """The next announcement for *stream* now holding *services*."""
        services = frozenset(services)
        seq = self._seq.get(stream, 0) + 1
        self._seq[stream] = seq
        previous = self._last.get(stream)
        self._last[stream] = services
        if previous is None or (seq - 1) % self.refresh_every == 0:
            return Announcement(
                seq=seq, full=services, incarnation=self.incarnation
            )
        return Announcement(
            seq=seq,
            added=services - previous,
            removed=previous - services,
            incarnation=self.incarnation,
        )

    def restart(self) -> "DeltaEmitter":
        """A fresh emitter for the next incarnation of the same sender.

        Models a crash/restart with state wipe: per-stream history and
        sequence numbers are gone, but the incarnation counter is strictly
        larger than before (a real node would derive it from stable
        storage or a boot timestamp). Every stream's first announcement
        after a restart is therefore a full snapshot under a newer
        incarnation, which receivers accept even though its sequence
        number (1) is far below the pre-crash one.
        """
        return DeltaEmitter(
            refresh_every=self.refresh_every, incarnation=self.incarnation + 1
        )


@dataclass
class DeltaAssembler:
    """Receiver-side stream reassembly with stale/gap rejection.

    Stream heads are ``(incarnation, seq)`` pairs: announcements from an
    older incarnation are stale, and within one incarnation the plain
    sequence rules apply. A *newer* incarnation re-anchors the stream at
    its first full snapshot — without this, a sender that crashed and
    restarted with wiped state (sequence numbers back at 1) would be
    rejected as stale by every receiver that saw its pre-crash
    announcements, freezing their view of that stream forever.
    """

    _heads: Dict[StreamId, Tuple[int, int]] = field(default_factory=dict)
    _sets: Dict[StreamId, FrozenSet[ServiceName]] = field(default_factory=dict)
    #: announcements ignored because their sequence was not newer
    stale: int = 0
    #: deltas ignored because an earlier announcement was missed
    gaps: int = 0
    #: announcements applied successfully
    applied: int = 0

    def current(self, stream: StreamId) -> Optional[FrozenSet[ServiceName]]:
        """The last reconstructed set for *stream* (None if never anchored).

        Lets a forwarder keep re-announcing its latest knowledge even when
        an incoming announcement was ignored — each hop's refresh cadence
        stays independent instead of gaps compounding across hops.
        """
        return self._sets.get(stream)

    def apply(
        self, stream: StreamId, announcement: Announcement
    ) -> Optional[FrozenSet[ServiceName]]:
        """Apply *announcement*; the stream's reconstructed set, or None.

        None means the announcement was ignored: stale (an older
        incarnation, or an old sequence within the current one) or a gap
        (a delta whose base this assembler never saw). A gapped stream
        stays ignored until the next full snapshot re-anchors it — the
        sequence pointer is deliberately not advanced past a gap.
        """
        last_inc, last_seq = self._heads.get(stream, (-1, 0))
        if announcement.incarnation < last_inc or (
            announcement.incarnation == last_inc and announcement.seq <= last_seq
        ):
            self.stale += 1
            return None
        if announcement.is_full:
            self._heads[stream] = (announcement.incarnation, announcement.seq)
            value = announcement.full
            assert value is not None
            self._sets[stream] = value
            self.applied += 1
            return value
        base = self._sets.get(stream)
        if (
            base is None
            or announcement.incarnation != last_inc
            or announcement.seq != last_seq + 1
        ):
            # a delta from a newer incarnation has no base here either —
            # wait for that incarnation's full snapshot to re-anchor
            self.gaps += 1
            return None
        self._heads[stream] = (last_inc, announcement.seq)
        self.applied += 1
        if not (announcement.added or announcement.removed):
            # the base object itself: "unchanged" downstream is an identity check
            return base
        value = (base - announcement.removed) | announcement.added
        self._sets[stream] = value
        return value


# -- per-level aggregate streams ----------------------------------------------
#
# A recursive hierarchy announces one capability stream per (level, group):
# level 1 streams carry cluster aggregates, level k >= 2 streams carry the
# aggregate-of-aggregates of that level's groups. The stream id is the
# only convention — emitters and assemblers are the plain classes above,
# so per-level streams inherit the full delta/refresh/incarnation
# semantics without any new protocol machinery.


def aggregate_stream(level: int, group: int) -> StreamId:
    """The stream id of one hierarchy level's group aggregate."""
    return ("agg", int(level), int(group))


def announce_aggregates(
    emitter: DeltaEmitter,
    aggregates: Dict[Tuple[int, int], FrozenSet[ServiceName]],
) -> Dict[StreamId, Announcement]:
    """Announce every ``(level, group) -> capability set`` on its stream.

    Streams are announced in sorted ``(level, group)`` order so repeated
    calls with the same emitter stay deterministic.
    """
    return {
        aggregate_stream(level, group): emitter.announce(
            aggregate_stream(level, group), services
        )
        for (level, group), services in sorted(aggregates.items())
    }


def assemble_aggregates(
    assembler: DeltaAssembler,
    announcements: Dict[StreamId, Announcement],
) -> Dict[Tuple[int, int], FrozenSet[ServiceName]]:
    """Apply per-level announcements; the reconstructed aggregate view.

    Ignored announcements (stale/gap) fall back to the assembler's last
    reconstructed set for that stream, mirroring how a forwarder keeps
    serving its latest knowledge; streams never anchored are absent.
    """
    out: Dict[Tuple[int, int], FrozenSet[ServiceName]] = {}
    for stream, announcement in announcements.items():
        value = assembler.apply(stream, announcement)
        if value is None:
            value = assembler.current(stream)
        if value is not None:
            out[(int(stream[1]), int(stream[2]))] = value  # type: ignore[arg-type]
    return out
