"""Exception hierarchy for the repro library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything originating here with a single ``except`` clause while still
being able to discriminate the failure domain.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class GraphError(ReproError):
    """A graph operation received an invalid graph or node."""


class TopologyError(ReproError):
    """A network-topology generator was asked for an impossible topology."""


class EmbeddingError(ReproError):
    """Coordinate embedding failed (bad landmarks, dimension, or data)."""


class ClusteringError(ReproError):
    """Clustering was given invalid input or produced an invalid partition."""


class ServiceModelError(ReproError):
    """A service graph or service request is malformed."""


class RoutingError(ReproError):
    """No feasible service path exists, or routing input is invalid."""


class NoFeasiblePathError(RoutingError):
    """The requested service graph cannot be satisfied by the overlay.

    Raised when no mapping of the requested services onto proxies connects the
    source proxy to the destination proxy.
    """


class StateError(ReproError):
    """State tables or the distribution protocol were used inconsistently."""


class FaultError(ReproError):
    """A fault plan or fault injector was configured inconsistently."""


class TrafficError(ReproError):
    """A traffic-engine configuration or run was invalid."""


class MembershipError(ReproError):
    """Dynamic membership operation was invalid (e.g. unknown proxy)."""


class TelemetryError(ReproError):
    """A telemetry primitive was declared or used inconsistently."""
