"""Node-state overhead accounting (paper Section 6.1, Figure 9).

Overhead is quantified in *node-states*: the number of entries a single
proxy keeps in a given state table, where an entry may describe a single
node or a whole cluster.

* **Flat topology** — every proxy keeps coordinates of all n proxies and
  service capability of all n proxies: n node-states for each table.
* **HFC topology** —

  - coordinates: members of the own cluster **plus** all border proxies in
    the system (borders inside the own cluster are already counted as
    members, so they are not double counted);
  - service capability: members of the own cluster (SCT_P) **plus** one
    aggregate entry per cluster in the system (SCT_C).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.overlay.hfc import HFCTopology
from repro.overlay.network import ProxyId


def flat_node_states(overlay_size: int) -> int:
    """Per-proxy node-states in a flat (single-level) topology."""
    return overlay_size


def coordinates_node_states(hfc: HFCTopology) -> Dict[ProxyId, int]:
    """Per-proxy coordinates-related node-states in the HFC topology."""
    all_borders = set(hfc.all_border_nodes())
    result: Dict[ProxyId, int] = {}
    for cid in range(hfc.cluster_count):
        members = hfc.members(cid)
        member_set = set(members)
        outside_borders = len(all_borders - member_set)
        for proxy in members:
            result[proxy] = len(members) + outside_borders
    return result


def service_node_states(hfc: HFCTopology) -> Dict[ProxyId, int]:
    """Per-proxy service-capability node-states in the HFC topology."""
    result: Dict[ProxyId, int] = {}
    for cid in range(hfc.cluster_count):
        members = hfc.members(cid)
        for proxy in members:
            result[proxy] = len(members) + hfc.cluster_count
    return result


def message_overhead(report) -> Dict[str, object]:
    """Wire-cost accounting of one protocol run.

    Complements the Fig-9 *stored* node-state accounting with the *moved*
    state: delivered sizes per message kind, dropped bytes (messages put
    on the wire but lost to the loss model), and the mean delivered
    message size — the number the delta encoding shrinks.
    """
    mean_size = (
        report.total_size / report.total_messages if report.total_messages else 0.0
    )
    return {
        "bytes_by_kind": dict(report.bytes_by_kind),
        "total_messages": report.total_messages,
        "total_size": report.total_size,
        "dropped_bytes": report.dropped_bytes,
        "mean_message_size": mean_size,
    }


def mean_coordinates_overhead(hfc: HFCTopology) -> float:
    """Mean per-proxy coordinates node-states (one Fig. 9(a) point)."""
    return float(np.mean(list(coordinates_node_states(hfc).values())))


def mean_service_overhead(hfc: HFCTopology) -> float:
    """Mean per-proxy service-capability node-states (one Fig. 9(b) point)."""
    return float(np.mean(list(service_node_states(hfc).values())))
