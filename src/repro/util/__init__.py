"""Shared plumbing: RNG handling, sampling, exceptions."""

from repro.util.errors import (
    ClusteringError,
    EmbeddingError,
    GraphError,
    MembershipError,
    NoFeasiblePathError,
    ReproError,
    RoutingError,
    ServiceModelError,
    StateError,
    TopologyError,
    TrafficError,
)
from repro.util.rng import RngLike, ensure_rng, spawn
from repro.util.sampling import PopularitySampler, zipf_weights

__all__ = [
    "ClusteringError",
    "EmbeddingError",
    "GraphError",
    "MembershipError",
    "NoFeasiblePathError",
    "PopularitySampler",
    "ReproError",
    "RngLike",
    "RoutingError",
    "ServiceModelError",
    "StateError",
    "TopologyError",
    "TrafficError",
    "ensure_rng",
    "spawn",
    "zipf_weights",
]
