"""JSON-ready serialisers for the state plane (tables + delta streams).

``repro.persistence`` snapshots capture more than the overlay structure:
PR 5's crash/restart scenarios want a proxy to come back *warm* — its
learned SCT tables and reassembled delta streams intact — instead of
re-filling everything through periodic refreshes. These helpers turn the
state-plane objects (:class:`~repro.state.tables.ServiceCapabilityTable`,
:class:`~repro.state.delta.DeltaEmitter` /
:class:`~repro.state.delta.DeltaAssembler`) into JSON-ready dicts and
back, **exactly** — revisions, timestamps, sequence heads, and counters
round-trip unchanged, so a restored proxy's capability feeds resume at
the same revision they were saved at.

This module deliberately imports only ``state.tables`` / ``state.delta``:
``core.framework`` imports ``state.protocol`` and ``persistence`` imports
``core.framework``, so the serialisers must sit below the protocol to
stay cycle-free (the protocol's ``snapshot_proxy`` / ``restore_state``
build on them).

Keys are heterogeneous (proxy ids, cluster ids, tuple stream ids), so
they go through :func:`encode_key` / :func:`decode_key`, which wrap
tuples recursively — JSON has no tuple type and stream identities must
survive hashing-equal.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List

from repro.state.delta import DeltaAssembler, DeltaEmitter
from repro.state.tables import ProxyState, ServiceCapabilityTable
from repro.util.errors import StateError


def encode_key(key: Hashable) -> Any:
    """A JSON-ready encoding of a table/stream key (tuples wrapped)."""
    if isinstance(key, tuple):
        return {"tuple": [encode_key(k) for k in key]}
    if key is None or isinstance(key, (bool, int, float, str)):
        return key
    raise StateError(f"cannot serialise key of type {type(key).__name__}")


def decode_key(obj: Any) -> Hashable:
    """Invert :func:`encode_key`."""
    if isinstance(obj, dict):
        return tuple(decode_key(k) for k in obj["tuple"])
    return obj


# -- capability tables -----------------------------------------------------------


def capability_table_to_dict(table: ServiceCapabilityTable) -> Dict[str, Any]:
    """Serialise a table with its exact revision and per-entry timestamps."""
    return {
        "revision": table.revision,
        "entries": [
            [encode_key(key), sorted(entry.services), entry.updated_at]
            for key, entry in table._entries.items()
        ],
    }


def capability_table_from_dict(payload: Dict[str, Any]) -> ServiceCapabilityTable:
    """Invert :func:`capability_table_to_dict` (revision preserved, not
    recomputed — consumers compare revisions across the save boundary)."""
    table = ServiceCapabilityTable()
    for key, services, updated_at in payload["entries"]:
        table.update(decode_key(key), frozenset(services), now=float(updated_at))
    table.revision = int(payload["revision"])
    return table


def proxy_state_to_dict(state: ProxyState) -> Dict[str, Any]:
    """Serialise one proxy's full table state."""
    return {
        "proxy": encode_key(state.proxy),
        "cluster_id": state.cluster_id,
        "sct_p": capability_table_to_dict(state.sct_p),
        "sct_c": capability_table_to_dict(state.sct_c),
    }


def proxy_state_from_dict(payload: Dict[str, Any]) -> ProxyState:
    """Invert :func:`proxy_state_to_dict`."""
    return ProxyState(
        proxy=decode_key(payload["proxy"]),
        cluster_id=int(payload["cluster_id"]),
        sct_p=capability_table_from_dict(payload["sct_p"]),
        sct_c=capability_table_from_dict(payload["sct_c"]),
    )


# -- delta streams ---------------------------------------------------------------


def emitter_to_dict(emitter: DeltaEmitter) -> Dict[str, Any]:
    """Serialise a sender's per-stream history and sequence numbers."""
    return {
        "refresh_every": emitter.refresh_every,
        "incarnation": emitter.incarnation,
        "last": [
            [encode_key(stream), sorted(services)]
            for stream, services in emitter._last.items()
        ],
        "seq": [
            [encode_key(stream), seq] for stream, seq in emitter._seq.items()
        ],
    }


def emitter_from_dict(payload: Dict[str, Any]) -> DeltaEmitter:
    """Invert :func:`emitter_to_dict` — the emitter resumes mid-stream."""
    emitter = DeltaEmitter(
        refresh_every=int(payload["refresh_every"]),
        incarnation=int(payload["incarnation"]),
    )
    emitter._last = {
        decode_key(stream): frozenset(services)
        for stream, services in payload["last"]
    }
    emitter._seq = {
        decode_key(stream): int(seq) for stream, seq in payload["seq"]
    }
    return emitter


def assembler_to_dict(assembler: DeltaAssembler) -> Dict[str, Any]:
    """Serialise a receiver's stream heads, sets, and counters."""
    return {
        "heads": [
            [encode_key(stream), list(head)]
            for stream, head in assembler._heads.items()
        ],
        "sets": [
            [encode_key(stream), sorted(services)]
            for stream, services in assembler._sets.items()
        ],
        "stale": assembler.stale,
        "gaps": assembler.gaps,
        "applied": assembler.applied,
    }


def assembler_from_dict(payload: Dict[str, Any]) -> DeltaAssembler:
    """Invert :func:`assembler_to_dict`.

    A restored assembler keeps its pre-crash heads: peers that did *not*
    restart continue their incarnations and sequences, so anything the
    proxy missed while down shows up as a gap and re-anchors at the next
    full refresh — exactly the soft-state safety net, but starting from
    the saved sets instead of from nothing.
    """
    assembler = DeltaAssembler()
    assembler._heads = {
        decode_key(stream): (int(head[0]), int(head[1]))
        for stream, head in payload["heads"]
    }
    assembler._sets = {
        decode_key(stream): frozenset(services)
        for stream, services in payload["sets"]
    }
    assembler.stale = int(payload["stale"])
    assembler.gaps = int(payload["gaps"])
    assembler.applied = int(payload["applied"])
    return assembler


__all__: List[str] = [
    "assembler_from_dict",
    "assembler_to_dict",
    "capability_table_from_dict",
    "capability_table_to_dict",
    "decode_key",
    "emitter_from_dict",
    "emitter_to_dict",
    "encode_key",
    "proxy_state_from_dict",
    "proxy_state_to_dict",
]
