"""A rebind costs what the churn changed.

:meth:`~repro.routing.hierarchical.HierarchicalRouter.rebind` carries what a
feed-less router derived from its previous view — the per-cluster provider
entries (:func:`~repro.routing.batch.cluster_entry`), SCT_C, the map step's
index (:func:`~repro.routing.batch.offering_index`) and the query tables — to
the next one, patched from the ``membership_changes`` record
:class:`~repro.membership.DynamicOverlay` hands that view
(:func:`rebind_derived`): the entries by the moves
(:func:`_move_members`), the tables by the border pairs the moves re-elected
(:func:`patch_query_tables`). ``tests/test_rebind.py`` holds each to a cold
derivation on the same view, the tables bit for bit.
"""

from __future__ import annotations

from itertools import chain, compress, groupby, repeat
from operator import itemgetter
from typing import Any, Dict, FrozenSet, Set, Tuple

import numpy as np

from repro.routing.batch import (
    ClusterEntry, ClusterId, QueryTables, _reader, offering_index, placement_capabilities,
)


def patch_query_tables(tables: QueryTables, hfc: Any, changes: Any) -> QueryTables:
    """What :func:`~repro.routing.batch.build_query_tables` returns on *hfc*, bit for bit, from *tables* of
    the view before *changes*: on the ``k x k`` border-proxy matrix (-1 on the diagonal)
    only a pair or cluster whose border moved (re-elected, or back at new coordinates)
    and a ``d_entry`` pair beside a border new to its cluster are asked again. What
    depends on one cluster's borders alone — the destination rows
    (:attr:`QueryTables.to_destination`) of proxies that did not leave, the
    :attr:`~QueryTables.facing` and :attr:`~QueryTables.local_rows` rows *tables* built
    — is carried over as it is for the clusters none of whose borders moved."""
    distance, moves = hfc.space.distance, changes.moves
    held = tables.border_proxies
    proxies = held.copy()
    if changes.reelected:
        i, j = np.array(list(changes.reelected)).T.tolist()
        proxies[i, j] = list(map(hfc.borders.__getitem__, zip(i, j)))
        proxies[j, i] = list(map(hfc.borders.__getitem__, zip(j, i)))
    back = {p for kind, p, _ in moves if kind == "leave"} & {p for kind, p, _ in moves if kind == "join"}
    moved = proxies != held
    if back:
        moved |= np.isin(proxies, list(back))
    ext = tables.ext.copy()
    i, j = np.triu(moved | moved.T, 1).nonzero()
    ext[i, j] = ext[j, i] = list(map(distance, proxies[i, j].tolist(), proxies[j, i].tolist()))
    ptr = tables.border_ptr.tolist()
    lists = [tables.border_list[lo:hi] for lo, hi in zip(ptr, ptr[1:])]
    stale = moved.any(axis=1).nonzero()[0].tolist()
    for c in stale:
        lists[c] = [p for p in dict.fromkeys(proxies[c].tolist()) if p >= 0]
    border_list = list(chain.from_iterable(lists))
    ptr = np.cumsum([0] + list(map(len, lists)), dtype=np.int64)
    # codes by proxy id, new and old shifted by one; -1 reads the last slot
    code = np.full(max([*border_list, *tables.border_list, *back], default=0) + 2, -1)
    was = np.zeros_like(code)
    was[tables.border_list] = np.arange(1, len(tables.border_list) + 1)
    was[list(back)] = 0
    code[border_list] = np.arange(len(border_list))
    # every in-cluster pair (a border keeps its cluster) read at its old codes,
    # and asked again where one side is new to the cluster (old code 0)
    at = np.concatenate([[0], was.take(border_list)])
    size = np.diff(ptr)
    reps = size.repeat(size)
    a = np.arange(1, len(at)).repeat(reps)
    b = (ptr[:-1] + 1).repeat(size).repeat(reps)
    b += np.arange(len(a)) - (reps.cumsum() - reps).repeat(reps)
    d_entry = np.zeros((len(at), len(at)))
    d_entry[a, b] = tables.d_entry[at.take(a), at.take(b)]
    ask = (a < b) & (at.take(a) * at.take(b) == 0)
    for u, v in zip(a[ask].tolist(), b[ask].tolist()):
        d_entry[u, v] = d_entry[v, u] = distance(border_list[u - 1], border_list[v - 1])
    patched = QueryTables(tables.cluster_count, ext, code.take(proxies), border_list, d_entry[1:, 1:], ptr, d_entry)
    patched.border_proxies = proxies
    built = vars(tables)
    if "facing" in built:
        patched.facing = facing = list(built["facing"])
        for c, row in zip(stale, proxies[stale].tolist()):
            facing[c] = [p if p >= 0 else None for p in row]
    if "local_rows" in built:
        patched.local_rows = rows = list(built["local_rows"])
        for c in stale:
            rows[c] = patched._local_rows(c)
    # a destination's row holds while it stays put and its cluster keeps its borders
    held_rows = tables.to_destination
    if held_rows:
        count, labels = len(held_rows), hfc.clustering.labels
        away = np.isin(np.fromiter(map(labels.get, held_rows, repeat(-1)), np.int64, count), stale)
        away |= np.isin(np.fromiter(held_rows, np.int64, count), [p for kind, p, _ in moves if kind == "leave"])
        patched.to_destination.update(compress(held_rows.items(), (~away).tolist()))
    return patched


def _move_members(cached: Dict[ClusterId, ClusterEntry], placement: Any, moves: Any) -> None:
    """Apply *moves* in order to the entries the new view took over (a joiner appended
    to its services' providers, as overlay order puts it last; a leaver cut out of the
    members and of each of its services' providers by slicing); a new aggregate if
    their provider keys changed."""
    for cluster, moved in groupby(sorted(moves, key=itemgetter(2)), itemgetter(2)):
        entry = cached.get(cluster)
        if entry is None:
            continue
        members, placed, providers, aggregate = entry.members, list(entry.placed), entry.providers, entry.aggregate
        for kind, proxy, _ in moved:
            if kind == "join":
                members.append(proxy)
                placed.append(placement.get(proxy, frozenset()))
                for service in placed[-1]:
                    providers[service] = providers.get(service, ()) + (proxy,)
                continue
            at = members.index(proxy)
            del members[at]
            for service in placed.pop(at):
                held = providers[service]
                if len(held) == 1:
                    del providers[service]
                else:
                    at = held.index(proxy)
                    providers[service] = held[:at] + held[at + 1 :]
        if providers.keys() != aggregate:
            aggregate = frozenset(providers)
        cached[cluster] = ClusterEntry(members, tuple(placed), providers, aggregate, _reader(members))


def rebind_derived(
    old: Any, new: Any, capabilities: Dict[ClusterId, FrozenSet[str]], offering: Tuple[Any, Any]
) -> Tuple[Dict[ClusterId, FrozenSet[str]], Tuple[Any, Any], Dict[str, Any]]:
    """A feed-less router's SCT_C, map index ``(capabilities, index)`` and ``routing.rebind``
    event fields on view *new*: patched from *old*'s when *new*'s ``membership_changes``
    follow from *old* (or *new* is *old*), else derived afresh, and the mode says why."""
    changes, held = getattr(new, "membership_changes", None), getattr(old, "membership_changes", None)
    mode = "patched"
    if new is not old:
        related = changes is not None and held is not None and changes.base is held.token
        if changes is not None and changes.restructured:
            mode = "restructured"
        elif not related or changes.dropped:
            mode = "renumbered" if related else "first bind"
    event: Dict[str, Any] = dict(mode=mode, members_moved=0, pairs_patched=0)
    if mode == "patched" and new is not old:  # the new view takes over what the old one derived
        cached, tables = vars(old).pop("_providers_cache", None), vars(old).pop("_query_tables_cache", None)
        if cached is not None and "_providers_cache" not in vars(new):
            new._providers_cache = cached
            _move_members(cached, new.overlay.placement, changes.moves)
            event["members_moved"] = len(changes.moves)
        if tables is not None and "_query_tables_cache" not in vars(new):
            new._query_tables_cache = patch_query_tables(tables, new, changes)
            event["pairs_patched"] = len(changes.reelected)
    after = placement_capabilities(new)
    flips: Dict[ClusterId, Set[str]] = {}
    for c, now in after.items():
        was = capabilities.get(c)
        if now is not was:  # two differences, not ``^``, which copies the aggregate's whole table
            was = was or frozenset()
            flips[c] = (now - was) | (was - now)
    event.update(clusters_reaggregated=len(flips), services_flipped=sum(map(len, flips.values())))
    if mode != "patched" or offering[0] is not capabilities:
        return after, (None, {}), event
    return after, (after, offering_index(after, new.cluster_count, (offering[1], flips))), event
