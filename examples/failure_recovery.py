"""Failure recovery: sustained traffic survives a proxy crash.

Runs open-loop session traffic over an 80-proxy overlay, crashes the
busiest mid-path service proxy for good part-way through, and compares the
traffic engine's two recovery policies. With no recovery every flow the
crash reaches is lost. With ``repair`` set, a flow still incomplete that
long past its nominal delay is re-resolved once — after the victim has
left the membership view (its cluster shrinks, borders re-select) and the
router has been rebound to it, so the new path routes around the victim.

Run:  python examples/failure_recovery.py [seed]
"""

import sys
from collections import Counter
from dataclasses import replace

from repro.core import HFCFramework
from repro.routing import HierarchicalRouter
from repro.traffic import Poisson, SessionConfig, TrafficConfig
from repro.traffic.scenarios import run_traffic_under_crash

FAIL_AT = 500.0


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 43
    framework = HFCFramework.build(proxy_count=80, seed=seed)
    print(framework.describe())
    print()

    router = HierarchicalRouter(framework.hfc)
    crossings: Counter = Counter()
    for attempt in range(100):
        request = framework.random_request(seed=seed + attempt)
        ends = (request.source_proxy, request.destination_proxy)
        crossings.update(
            h.proxy for h in router.route(request).service_hops() if h.proxy not in ends
        )
    victim, count = crossings.most_common(1)[0]
    print(f"proxy {victim} serves mid-path on {count} of 100 routed requests;")
    print(f"it crashes for good at t={FAIL_AT:.0f} ms")
    print()

    config = TrafficConfig(
        arrival=Poisson(rate=0.06),
        duration=2_000.0,
        warmup=0.0,
        drain=1_500.0,
        session=SessionConfig(mean_lifetime=1_000.0, mean_gap=200.0),
    )
    for policy, repair in (("no recovery", None), ("reroute", 150.0)):
        engine = run_traffic_under_crash(
            framework, victim, fail_at=FAIL_AT, config=replace(config, repair=repair), seed=seed
        )
        report = engine.report
        repaired = [r for r in engine.collector.records if r.repaired_at is not None]
        done = sorted(r.completed_at for r in repaired if r.completed_at is not None)
        print(f"{policy} (repair={repair}):")
        print(f"  requests delivered : {report.requests_completed} of {report.requests_offered}")
        print(f"  lost / infeasible  : {report.requests_lost} / {report.requests_infeasible}")
        print(f"  flows repaired     : {len(repaired)} ({len(done)} completed on a new path)")
        if done:
            print(f"  first repaired flow completed {done[0] - FAIL_AT:.1f} ms after the crash")
        print()


if __name__ == "__main__":
    main()
