"""The cold derivation a rebind's carried state is held to.

:func:`repro.routing.rebind.rebind_derived` patches the provider entries, SCT_C,
map index and query tables (their destination rows too) a router derived from
its previous view;
:func:`assert_carried_state_is_cold` derives each afresh on the current view —
SCT_C member by member, the map index by its own loop, the tables through the
one cold builder — and requires equality (the tables bit for bit).
``tests/test_rebind.py`` and the soak's carried-state invariant use it.
"""

from repro.routing.batch import build_query_tables, destination_row
from repro.services import aggregate_capability


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def cold_capabilities(hfc):
    """SCT_C from the aggregation rule itself, member by member."""
    return {
        cid: aggregate_capability(hfc.overlay.placement, hfc.members(cid))
        for cid in range(hfc.cluster_count)
    }


def assert_carried_state_is_cold(router, view=True):
    """Everything *router* holds — and, with *view*, finds cached on its
    view — equals a cold derivation on that view: SCT_C, the map index (when
    it is the index of that SCT_C), every provider entry and the query
    tables and every destination row and row cache they hold, bit for bit."""
    hfc = router.hfc
    placement = hfc.overlay.placement
    capabilities = cold_capabilities(hfc)
    assert router.cluster_capabilities == capabilities
    indexed, index = router._offering_index
    if indexed is router.cluster_capabilities:
        cold = {}
        for cid in range(hfc.cluster_count):
            for service in capabilities[cid]:
                cold.setdefault(service, []).append(cid)
        assert index == cold
    if not view:
        return
    for cid, entry in getattr(hfc, "_providers_cache", {}).items():
        members = sorted(hfc.members(cid), key=hfc.overlay.index_of)
        assert entry.members == members
        assert entry.placed == tuple(placement[p] for p in members)
        assert entry.aggregate == capabilities[cid]
        assert entry.providers == {
            service: tuple(p for p in members if service in placement[p])
            for service in capabilities[cid]
        }
    tables = getattr(hfc, "_query_tables_cache", None)
    if tables is not None:
        cold = build_query_tables(hfc.cluster_count, hfc.border, hfc.space.distance)
        assert tables.border_list == cold.border_list
        for name in ("ext", "border_row", "border_ptr", "d_entry"):
            assert same_bits(getattr(tables, name), getattr(cold, name)), name
        # the row caches a patch carried (or a route built) equal the cold ones
        built = vars(tables)
        if "border_proxies" in built:
            assert same_bits(tables.border_proxies, cold.border_proxies)
        for name in ("facing", "local_rows", "lists"):
            if name in built:
                assert built[name] == getattr(cold, name), name
        for pd, row in tables.to_destination.items():
            fresh = destination_row(cold, hfc.space.distance, pd, hfc.cluster_of(pd))
            assert row.tobytes() == fresh.tobytes(), pd
