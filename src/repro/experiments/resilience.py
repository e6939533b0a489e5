"""Resilience experiment: streaming sessions under proxy failures.

Combines the data plane, the membership machinery, and hierarchical
routing: sessions stream over computed paths while mid-path proxies fail
silently; delivery is measured with and without watchdog-triggered
re-routing. This quantifies the operational value of the paper's
restructuring story (Section 7) beyond clustering quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.framework import HFCFramework
from repro.dataplane.recovery import make_rerouter
from repro.dataplane.session import StreamingSession
from repro.experiments.stats import Summary, summarize
from repro.routing.hierarchical import HierarchicalRouter
from repro.util.errors import RoutingError
from repro.util.rng import RngLike, ensure_rng, spawn


@dataclass
class ResilienceRow:
    """Delivery statistics for one recovery policy."""

    policy: str
    sessions: int
    delivery_rate: Summary
    recovery_latency: Optional[Summary]


def run_resilience_experiment(
    *,
    proxy_count: int = 60,
    sessions: int = 10,
    packets_per_session: int = 80,
    packet_interval: float = 10.0,
    fail_at: float = 50.0,
    seed: RngLike = None,
) -> List[ResilienceRow]:
    """Stream *sessions* flows, fail one mid-path service proxy per flow,
    and compare delivery with and without re-routing recovery.

    Returns one row per policy ("no recovery", "reroute"), each with the
    mean delivery rate (delivered / sent, 95% CI) and — for the recovering
    policy — the recovery latency (failure to first packet on the new path).
    """
    rng = ensure_rng(seed)
    framework = HFCFramework.build(
        proxy_count=proxy_count, seed=spawn(rng, "framework")
    )
    router = HierarchicalRouter(framework.hfc)
    request_rng = spawn(rng, "requests")

    cases = []
    while len(cases) < sessions:
        request = framework.random_request(seed=request_rng.randint(0, 10**9))
        path = router.route(request)
        victims = [
            h.proxy
            for h in path.service_hops()
            if h.proxy not in (request.source_proxy, request.destination_proxy)
        ]
        if not victims:
            continue
        cases.append((request, path, victims[0]))

    rows: List[ResilienceRow] = []
    for policy in ("no recovery", "reroute"):
        rates: List[float] = []
        recoveries: List[float] = []
        for request, path, victim in cases:
            session = StreamingSession(
                framework.overlay,
                path,
                packet_count=packets_per_session,
                packet_interval=packet_interval,
            )
            rerouter = (
                make_rerouter(framework, request) if policy == "reroute" else None
            )
            try:
                report = session.run(
                    failures={victim: fail_at}, rerouter=rerouter
                )
            except RoutingError:
                rates.append(0.0)
                continue
            rates.append(report.delivered / packets_per_session)
            if report.recovered_at is not None:
                recoveries.append(report.recovered_at - fail_at)
        rows.append(
            ResilienceRow(
                policy=policy,
                sessions=len(cases),
                delivery_rate=summarize(rates),
                recovery_latency=summarize(recoveries) if recoveries else None,
            )
        )
    return rows
