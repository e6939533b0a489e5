"""Concrete service paths and their evaluation.

A concrete service path has the paper's form
``sp = <-/p0, s1/p1, ..., sn/pn, -/p(n+1)>``: a sequence of hops where each
hop maps a service onto a proxy, or maps *no* service (``-/p``) onto a proxy
acting as a pure message relay (mesh intermediaries, border proxies).

Evaluation is uniform across all routing strategies: the **true delay** of a
path is the sum of ground-truth physical delays between consecutive distinct
proxies — strategies route on whatever estimates they maintain, but are
always judged on ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.overlay.network import OverlayNetwork, ProxyId
from repro.services.catalog import ServiceName
from repro.services.request import ServiceRequest
from repro.util.errors import RoutingError


class Hop(NamedTuple):
    """One step of a concrete service path (plain data: a routed batch
    builds thousands).

    Attributes:
        proxy: the proxy visited.
        service: the service applied at this hop, or ``None`` for a relay
            (the paper's ``-/p`` notation).
        slot: the service-graph slot this hop fills, or ``None`` for relays.
    """

    proxy: ProxyId
    service: Optional[ServiceName] = None
    slot: Optional[int] = None

    def __repr__(self) -> str:
        label = self.service if self.service is not None else "-"
        return f"{label}/{self.proxy}"


@dataclass(frozen=True)
class ServicePath:
    """An ordered sequence of hops from source proxy to destination proxy."""

    hops: Tuple[Hop, ...]

    def __post_init__(self) -> None:
        if len(self.hops) < 1:
            raise RoutingError("a service path needs at least one hop")

    # -- structure ----------------------------------------------------------

    @property
    def source(self) -> ProxyId:
        """First proxy on the path."""
        return self.hops[0].proxy

    @property
    def destination(self) -> ProxyId:
        """Last proxy on the path."""
        return self.hops[-1].proxy

    def proxies(self) -> List[ProxyId]:
        """Proxies in hop order (consecutive duplicates collapsed)."""
        result: List[ProxyId] = []
        for hop in self.hops:
            if not result or result[-1] != hop.proxy:
                result.append(hop.proxy)
        return result

    def service_hops(self) -> List[Hop]:
        """Only the hops that apply a service, in order."""
        return [h for h in self.hops if h.service is not None]

    def relay_count(self) -> int:
        """Number of pure-relay hops (excluding the two endpoints)."""
        return sum(1 for h in self.hops[1:-1] if h.service is None)

    @property
    def overlay_hop_count(self) -> int:
        """Number of overlay links traversed."""
        return len(self.proxies()) - 1

    # -- evaluation -----------------------------------------------------------

    def true_delay(self, overlay: OverlayNetwork) -> float:
        """Ground-truth end-to-end delay of the path (Fig. 10's metric)."""
        proxies = self.proxies()
        return sum(overlay.true_delay(u, v) for u, v in zip(proxies, proxies[1:]))

    def estimated_length(self, overlay: OverlayNetwork) -> float:
        """Coordinate-space length of the path (what estimate-based routing saw)."""
        proxies = self.proxies()
        return sum(
            overlay.coordinate_distance(u, v) for u, v in zip(proxies, proxies[1:])
        )

    def __repr__(self) -> str:
        return "<" + ", ".join(repr(h) for h in self.hops) + ">"


def merge_consecutive_hops(hops: Sequence[Hop]) -> List[Hop]:
    """Drop relay hops that duplicate an adjacent hop on the same proxy."""
    result: List[Hop] = []
    for hop in hops:
        if result and result[-1].proxy == hop.proxy:
            if result[-1].service is None and hop.service is not None:
                result[-1] = hop  # the service hop subsumes the relay
            elif hop.service is None:
                continue  # relay after a service hop on the same proxy
            else:
                result.append(hop)  # two services on the same proxy: keep both
        else:
            result.append(hop)
    return result


def validate_path(
    path: ServicePath,
    request: ServiceRequest,
    overlay: OverlayNetwork,
) -> None:
    """Assert that *path* is a valid answer to *request*.

    Checks: endpoints match; every service hop's proxy actually hosts the
    service; and the sequence of filled slots is a feasible configuration of
    the request's service graph. Raises :class:`RoutingError` on violation.
    """
    if path.source != request.source_proxy:
        raise RoutingError(
            f"path starts at {path.source!r}, request at {request.source_proxy!r}"
        )
    if path.destination != request.destination_proxy:
        raise RoutingError(
            f"path ends at {path.destination!r}, "
            f"request at {request.destination_proxy!r}"
        )
    sg = request.service_graph
    slots: List[int] = []
    for hop in path.service_hops():
        if hop.slot is None:
            raise RoutingError(f"service hop {hop!r} carries no slot id")
        expected = sg.service_of(hop.slot)
        if hop.service != expected:
            raise RoutingError(
                f"hop {hop!r} fills slot {hop.slot} but that slot wants {expected!r}"
            )
        if hop.service not in overlay.services_of(hop.proxy):
            raise RoutingError(
                f"proxy {hop.proxy!r} does not host service {hop.service!r}"
            )
        slots.append(hop.slot)
    if not sg.is_configuration(slots):
        raise RoutingError(
            f"slot sequence {slots} is not a feasible configuration of the SG"
        )
