"""Overlay layer: proxy network, mesh baseline, HFC topology."""

from repro.overlay.hfc import HFCTopology, build_hfc, select_borders_closest
from repro.overlay.mesh import build_gabriel_mesh, build_mesh, mesh_statistics
from repro.overlay.network import OverlayNetwork, ProxyId

__all__ = [
    "HFCTopology",
    "OverlayNetwork",
    "ProxyId",
    "build_gabriel_mesh",
    "build_hfc",
    "build_mesh",
    "mesh_statistics",
    "select_borders_closest",
]
