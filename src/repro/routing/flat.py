"""Single-level (flat) service routing — the [11] algorithm, generalised.

A :class:`FlatRouter` answers requests with global knowledge: it knows every
proxy's services and a distance between every proxy pair (through a
:class:`~repro.routing.providers.DistanceProvider`). Instantiations:

* **full-state coordinate routing** over the virtually fully-connected
  overlay (the paper's single-level comparison point for state overhead);
* **oracle routing** over true delays (a lower-bound reference);
* **mesh routing** and **HFC-without-aggregation routing** via a matrix
  provider plus a hop *expander* that inserts the relay proxies the matrix
  distances implicitly traverse (see :mod:`repro.routing.mesh`).
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.overlay.network import OverlayNetwork, ProxyId
from repro.routing.batch import BATCH_SIZE_BUCKETS, BatchRouteResult, ProxyCosts, graph_row, relax
from repro.routing.path import Hop, ServicePath, merge_consecutive_hops
from repro.routing.providers import (
    CoordinateProvider,
    DistanceProvider,
    TrueDelayProvider,
)
from repro.services.request import ServiceRequest
from repro.telemetry import get_telemetry
from repro.util.errors import NoFeasiblePathError, RoutingError, TopologyError

#: expands one overlay hop (u, v) into the relay proxy sequence [u, ..., v]
HopExpander = Callable[[ProxyId, ProxyId], Sequence[ProxyId]]
_NO_CONFIGURATION = "no feasible configuration maps onto instances"


def _stranger(overlay: OverlayNetwork, request: ServiceRequest) -> Optional[NoFeasiblePathError]:
    """The error of a request whose endpoint is not an overlay member."""
    for role, proxy in (("source", request.source_proxy), ("destination", request.destination_proxy)):
        try:
            overlay.index_of(proxy)
        except TopologyError:
            return NoFeasiblePathError(f"{role} proxy {proxy!r} is not an overlay member")
    return None


class FlatRouter:
    """Optimal service routing with a global view over a distance provider."""

    def __init__(
        self,
        overlay: OverlayNetwork,
        provider: DistanceProvider,
        *,
        expander: Optional[HopExpander] = None,
        name: str = "flat",
    ) -> None:
        """
        Args:
            overlay: the overlay network (placement + delays).
            provider: distance oracle routing optimises against.
            expander: optional relay expansion per chosen overlay hop; when
                None, hops are direct overlay links (fully-connected view).
            name: label used in reports.
        """
        self.overlay = overlay
        self.provider = provider
        self.expander = expander
        self.name = name

    def route(self, request: ServiceRequest) -> ServicePath:
        """Compute an optimal service path for *request*.

        Raises :class:`NoFeasiblePathError` when the request cannot be
        satisfied by the overlay.
        """
        result = self._solve([request])
        result.raise_first()
        return result.paths[0]  # type: ignore[return-value]

    def route_many(self, requests: Sequence[ServiceRequest]) -> List[ServicePath]:
        """Resolve a batch, sharing the provider index; raises on the first
        infeasible request (in request order), like per-request ``route``."""
        result = self.route_many_detailed(requests)
        result.raise_first()
        return [path for path in result.paths if path is not None]

    def route_many_detailed(
        self, requests: Sequence[ServiceRequest]
    ) -> BatchRouteResult:
        """Resolve a batch, capturing per-request outcomes."""
        result = self._solve(list(requests))
        registry = get_telemetry().registry
        registry.counter("routing.batch.batches", router=self.name).inc()
        registry.counter("routing.batch.requests", router=self.name).inc(
            len(result)
        )
        registry.histogram(
            "routing.batch.size", buckets=BATCH_SIZE_BUCKETS, router=self.name
        ).observe(len(result))
        return result

    def _solve(self, requests: List[ServiceRequest]) -> BatchRouteResult:
        """The one-cluster case of the service-DAG kernel: every request a
        row over its slots' providers (the overlay is scanned once per
        distinct service of the call), one :func:`~repro.routing.batch.relax`
        over :class:`~repro.routing.batch.ProxyCosts`. A request whose
        endpoint is not an overlay member, or whose graph no provider
        configuration maps onto, gets its error alone."""
        overlay = self.overlay
        code: Dict[str, int] = {}  # service -> its providers' group
        offering: List[List[ProxyId]] = []
        errors: List[Optional[NoFeasiblePathError]] = [None] * len(requests)
        rows: List[List[int]] = []
        shapes: List[Any] = []
        jobs: List[Tuple[int, List[Any]]] = []  # request index, its kept slots
        for at, request in enumerate(requests):
            errors[at] = _stranger(overlay, request)
            if errors[at] is not None:
                continue
            sg = request.service_graph
            order = sg.topological_order()
            groups: List[int] = []
            for slot in order:
                service = sg.services[slot]
                if service not in code:
                    code[service] = len(offering)
                    offering.append(overlay.providers_of(service))
                groups.append(code[service])
            row = graph_row(sg, order, [len(offering[g]) for g in groups])
            if row is None:
                errors[at] = NoFeasiblePathError(_NO_CONFIGURATION)
                continue
            kept, shape = row
            rows.append(groups if kept is None else [groups[i] for i in kept])
            shapes.append(shape)
            jobs.append((at, order if kept is None else [order[i] for i in kept]))
        proxies = [proxy for providers in offering for proxy in providers]
        costs = ProxyCosts(
            self.provider, proxies,
            [requests[at].source_proxy for at, _ in jobs], [requests[at].destination_proxy for at, _ in jobs],
        )
        paths: List[Optional[ServicePath]] = [None] * len(requests)
        for r0, r1, lay, parent, final, bounds in relax(list(map(len, offering)), rows, costs, shapes):
            placed: Iterable[Optional[List[int]]] = (
                repeat(None) if lay.position is None else lay.walk(parent, final, lay.position)
            )
            picked = zip(placed, lay.walk(parent, final, lay.items), bounds)
            for (at, slots), (positions, items, bound) in zip(jobs[r0:r1], picked):
                if bound < np.inf:
                    filled = slots if positions is None else [slots[p] for p in positions]
                    assignment = list(zip(filled, map(proxies.__getitem__, items)))
                    paths[at] = materialise_assignment(requests[at], assignment, self.expander)
                else:
                    errors[at] = NoFeasiblePathError(_NO_CONFIGURATION)
        return BatchRouteResult(paths=paths, errors=errors)


def materialise_assignment(
    request: ServiceRequest,
    assignment: Sequence[Tuple[int, ProxyId]],
    expander: Optional[HopExpander] = None,
) -> ServicePath:
    """Turn a slot→proxy assignment into a concrete path with relays."""
    sg = request.service_graph
    waypoints: List[Hop] = [Hop(proxy=request.source_proxy)]
    for slot, proxy in assignment:
        waypoints.append(Hop(proxy=proxy, service=sg.service_of(slot), slot=slot))
    waypoints.append(Hop(proxy=request.destination_proxy))

    hops: List[Hop] = [waypoints[0]]
    for prev, nxt in zip(waypoints, waypoints[1:]):
        if expander is not None and prev.proxy != nxt.proxy:
            relays = list(expander(prev.proxy, nxt.proxy))
            if not relays or relays[0] != prev.proxy or relays[-1] != nxt.proxy:
                raise RoutingError(
                    f"expander returned invalid relay chain for "
                    f"({prev.proxy!r}, {nxt.proxy!r}): {relays!r}"
                )
            for relay in relays[1:-1]:
                hops.append(Hop(proxy=relay))
        hops.append(nxt)
    return ServicePath(hops=tuple(merge_consecutive_hops(hops)))


def coordinate_router(overlay: OverlayNetwork, **kwargs: Any) -> FlatRouter:
    """Flat full-state router over coordinate estimates (paper's flat case)."""
    if overlay.space is None:
        raise RoutingError("overlay has no coordinate space attached")
    return FlatRouter(
        overlay, CoordinateProvider(overlay.space), name="flat-coords", **kwargs
    )


def oracle_router(overlay: OverlayNetwork, **kwargs: Any) -> FlatRouter:
    """Flat router over ground-truth delays — the unbeatable reference."""
    return FlatRouter(
        overlay, TrueDelayProvider(overlay), name="flat-oracle", **kwargs
    )
