"""Service routing: paths, the service-DAG kernel, flat/mesh/hierarchical routers."""

from repro.routing.aggregation import CentroidAggregationRouter
from repro.routing.batch import BatchRouteResult, QueryTables, query_tables
from repro.routing.cache import CachedHierarchicalRouter
from repro.routing.signaling import SetupReport, SignalingSimulator
from repro.routing.flat import (
    FlatRouter,
    coordinate_router,
    materialise_assignment,
    oracle_router,
)
from repro.routing.hierarchical import (
    ChildRequest,
    ClusterServicePath,
    HierarchicalResult,
    HierarchicalRouter,
)
from repro.routing.meshrouting import MeshRouter, hfc_full_state_router
from repro.routing.path import (
    Hop,
    ServicePath,
    merge_consecutive_hops,
    validate_path,
)
from repro.routing.providers import (
    CoordinateProvider,
    DistanceProvider,
    MatrixProvider,
    TrueDelayProvider,
)

__all__ = [
    "BatchRouteResult",
    "CachedHierarchicalRouter",
    "CentroidAggregationRouter",
    "ChildRequest",
    "ClusterServicePath",
    "CoordinateProvider",
    "DistanceProvider",
    "FlatRouter",
    "HierarchicalResult",
    "HierarchicalRouter",
    "Hop",
    "MatrixProvider",
    "MeshRouter",
    "QueryTables",
    "ServicePath",
    "SetupReport",
    "SignalingSimulator",
    "TrueDelayProvider",
    "coordinate_router",
    "hfc_full_state_router",
    "materialise_assignment",
    "merge_consecutive_hops",
    "oracle_router",
    "query_tables",
    "validate_path",
]
