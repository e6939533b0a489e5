"""Experiment E6: routing under stale aggregate state.

The paper's protocol (Section 4) is periodic soft-state, so SCT_C lags
reality whenever services change. This experiment quantifies the cost of
that lag: after the protocol converges, a burst of placement changes is
injected (services uninstalled and installed elsewhere), and the same
workload is routed

* **immediately** — against the now-stale SCT_C an observer proxy holds;
* **after re-convergence** — against fresh tables.

Stale-state routing can fail two ways, both measured: a request can become
*infeasible* (the stale table advertises a service a cluster no longer
has — the intra-cluster conquer step then fails cleanly), or it can be
*silently suboptimal* (a better, newly installed provider is not yet
advertised).

Both passes use ONE :class:`~repro.routing.cache.CachedHierarchicalRouter`
bound to the protocol's capability feed — the router notices the table
revision moved between the passes and drops its CSP cache by itself, which
is exactly the versioned-consumption contract production routers follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.core.framework import HFCFramework
from repro.experiments.workload import resolve_requests
from repro.routing.cache import CachedHierarchicalRouter
from repro.services.request import ServiceRequest
from repro.state.protocol import StateDistributionProtocol
from repro.util.rng import RngLike, ensure_rng, spawn


@dataclass
class StalenessRow:
    """Routing outcomes for one table freshness level."""

    state: str
    routed: int
    infeasible: int
    mean_delay: float


def run_staleness_experiment(
    *,
    proxy_count: int = 60,
    change_count: int = 10,
    request_count: int = 80,
    seed: RngLike = None,
) -> List[StalenessRow]:
    """Measure routing quality against stale vs re-converged SCT_C.

    *change_count* placement changes move one random installed service from
    one proxy to another (so the system-wide capability set is preserved and
    every request stays satisfiable *somewhere*).
    """
    rng = ensure_rng(seed)
    framework = HFCFramework.build(
        proxy_count=proxy_count, seed=spawn(rng, "framework")
    )
    protocol = StateDistributionProtocol(framework.hfc, seed=spawn(rng, "protocol"))
    first = protocol.run(max_time=30000.0)
    assert first.converged_at is not None, "baseline protocol did not converge"

    requests: List[ServiceRequest] = [
        framework.random_request(seed=spawn(rng, f"req{i}").getrandbits(48))
        for i in range(request_count)
    ]

    # Inject placement changes: move a service between random proxies.
    change_rng = spawn(rng, "changes")
    placement = framework.overlay.placement
    for _ in range(change_count):
        donor = change_rng.choice(framework.overlay.proxies)
        if not placement[donor]:
            continue
        service = change_rng.choice(sorted(placement[donor]))
        receiver = change_rng.choice(
            [p for p in framework.overlay.proxies if p != donor]
        )
        protocol.update_local_services(donor, placement[donor] - {service})
        protocol.update_local_services(
            receiver, placement[receiver] | {service}
        )

    # One version-aware router for both passes: it reads SCT_C through the
    # protocol's feed and self-invalidates when the table revision moves.
    router = CachedHierarchicalRouter(
        framework.hfc, capability_feed=protocol.capability_feed()
    )

    rows: List[StalenessRow] = []
    rows.append(_route_all("stale tables", framework, requests, router))

    second = protocol.run(max_time=protocol.sim.now + 60000.0)
    assert second.converged_at is not None, "protocol did not re-converge"
    rows.append(_route_all("re-converged", framework, requests, router))
    return rows


def _route_all(
    label: str,
    framework: HFCFramework,
    requests: List[ServiceRequest],
    router: CachedHierarchicalRouter,
) -> StalenessRow:
    # batched resolution: stale-table infeasibility surfaces as per-request
    # errors in the result instead of exceptions interrupting the loop
    result = resolve_requests(router, requests)
    delays: List[float] = [
        path.true_delay(framework.overlay)
        for path in result.paths
        if path is not None
    ]
    return StalenessRow(
        state=label,
        routed=len(delays),
        infeasible=result.infeasible_count,
        mean_delay=float(np.mean(delays)) if delays else float("nan"),
    )
