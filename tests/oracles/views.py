"""The cold materialisation a :class:`~repro.membership.DynamicOverlay`'s views are held to.

The overlay derives each view from the last one it handed out plus the moves
since (:meth:`~repro.coords.space.CoordinateSpace.patched`,
:meth:`~repro.overlay.network.OverlayNetwork.over_space`). :func:`cold_views`
builds the four from the live state through the constructors, one Python step
per proxy, as a first materialisation did before views were patched;
:func:`assert_views_are_cold` requires the overlay's current views to equal
them field by field: the space's tuple table and stacked rows bit for bit, its
row map, the overlay's proxies, index and placement, the clustering and the
borders for equality, every mapping in the same order.
``tests/test_membership.py``, ``tests/test_rebind.py`` and the soak's
carried-state invariant use it.
"""

import numpy as np

from repro.cluster.mstcluster import Clustering
from repro.coords.space import CoordinateSpace
from repro.overlay.hfc import HFCTopology
from repro.overlay.network import OverlayNetwork


def cold_views(dyn):
    """``(space, overlay, clustering, hfc)`` built afresh from *dyn*'s live state."""
    proxies = list(dyn._labels)
    space = CoordinateSpace.from_stacked(
        proxies, dyn._coord_arr[[dyn._coord_row[p] for p in proxies]]
    )
    overlay = OverlayNetwork(
        physical=dyn.framework.physical,
        proxies=proxies,
        placement={p: dyn._placement[p] for p in proxies},
        space=space,
    )
    clustering = Clustering(
        clusters=[list(c) for c in dyn._clusters], labels=dict(dyn._labels)
    )
    hfc = HFCTopology(
        overlay=overlay, clustering=clustering, space=space, borders=dict(dyn._borders)
    )
    return space, overlay, clustering, hfc


def table_bits(space):
    """The space's tuple table as one float64 buffer, in node order."""
    return np.array(list(space._coords.values()), dtype=float).tobytes()


def same_mapping(a, b):
    """Equal, and in the same order."""
    return a == b and list(a) == list(b)


def assert_space_is_cold(got, want):
    assert list(got._coords) == list(want._coords)
    assert table_bits(got) == table_bits(want)
    assert got.stacked.dtype == want.stacked.dtype and got.stacked.shape == want.stacked.shape
    assert got.stacked.tobytes() == want.stacked.tobytes()
    assert same_mapping(got.row_map, want.row_map)
    assert got.dimension == want.dimension


def assert_views_are_cold(dyn):
    """*dyn*'s current views equal a cold materialisation of its live state."""
    space, overlay, clustering, hfc = cold_views(dyn)
    view = dyn.hfc
    assert view.space is dyn.space and view.overlay is dyn.overlay
    assert view.clustering is dyn.clustering and dyn.overlay.space is dyn.space
    assert_space_is_cold(dyn.space, space)
    got = dyn.overlay
    assert got.proxies == overlay.proxies
    assert same_mapping(got._index, overlay._index)
    assert same_mapping(got.placement, overlay.placement)
    assert got.physical is overlay.physical
    assert dyn.clustering.clusters == clustering.clusters
    assert same_mapping(dyn.clustering.labels, clustering.labels)
    assert same_mapping(view.borders, hfc.borders)


def freeze(view):
    """What an HFC view holds, copied deep enough to tell a later change."""
    return (
        list(view.space._coords.items()),
        view.space.stacked.tobytes(),
        list(view.space.row_map.items()),
        list(view.overlay.proxies),
        list(view.overlay._index.items()),
        list(view.overlay.placement.items()),
        [list(c) for c in view.clustering.clusters],
        list(view.clustering.labels.items()),
        list(view.borders.items()),
    )
