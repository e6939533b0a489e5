"""From-scratch graph substrate: graphs, the shortest-path kernel, MSTs, components."""

from repro.graph.components import component_of, connected_components, is_connected
from repro.graph.graph import Graph
from repro.graph.mst import euclidean_mst

__all__ = [
    "Graph",
    "component_of",
    "connected_components",
    "euclidean_mst",
    "is_connected",
]
