"""State tables, the distribution protocol, and overhead accounting."""

from repro.state.columnar import (
    ColumnarOverlayState,
    HierarchyLevel,
    attach_columnar,
)
from repro.state.delta import (
    Announcement,
    DeltaAssembler,
    DeltaEmitter,
    aggregate_stream,
    announce_aggregates,
    assemble_aggregates,
)
from repro.state.overhead import (
    coordinates_node_states,
    mean_coordinates_overhead,
    mean_service_overhead,
    service_node_states,
)
from repro.state.protocol import (
    ProtocolCapabilityFeed,
    ProtocolReport,
    StateDistributionProtocol,
)
from repro.state.tables import ProxyState, ServiceCapabilityTable

__all__ = [
    "Announcement",
    "ColumnarOverlayState",
    "HierarchyLevel",
    "aggregate_stream",
    "announce_aggregates",
    "assemble_aggregates",
    "attach_columnar",
    "DeltaAssembler",
    "DeltaEmitter",
    "ProtocolCapabilityFeed",
    "ProtocolReport",
    "ProxyState",
    "ServiceCapabilityTable",
    "StateDistributionProtocol",
    "coordinates_node_states",
    "mean_coordinates_overhead",
    "mean_service_overhead",
    "service_node_states",
]
