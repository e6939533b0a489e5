"""Sustained-load-under-faults scenarios.

Composes three layers on one simulator: the state protocol, a
:class:`~repro.faults.injector.FaultInjector` executing a seeded fault
plan, and the open-loop :class:`~repro.traffic.engine.TrafficEngine`.
Traffic data messages travel through the same delivery interceptor as
protocol messages (the injector is installed with
``resolve=traffic_proxy`` so relay addresses map to proxies), which means
a crash or partition kills in-flight requests as counted drops — and the
*delivery continuity* number reports how much of the offered load still
completed while the faults were acting.

The convergence auditor runs unchanged on top: the scenario passes only
if the control plane reconverges within its K-period budget while the
data plane is under load.

:func:`run_traffic_under_crash` is the repair study (E4): one proxy
crashes for good under load, and the engine's ``repair`` slack decides
whether the flows it kills are re-resolved around it once the membership
layer has let it leave.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.faults.auditor import (
    FaultScenarioResult,
    _audited_protocol,
    restores_placement,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import CrashRestart, FaultPlan
from repro.membership.churn import DynamicOverlay
from repro.netsim.eventsim import Simulator
from repro.overlay.network import ProxyId
from repro.routing.hierarchical import HierarchicalRouter
from repro.traffic.engine import TrafficConfig, TrafficEngine, traffic_proxy
from repro.traffic.measure import SteadyStateReport
from repro.util.rng import RngLike

if TYPE_CHECKING:
    from repro.core.framework import HFCFramework


@dataclass(frozen=True)
class TrafficFaultResult:
    """Joint outcome: auditor verdicts plus traffic continuity."""

    scenario: FaultScenarioResult
    report: SteadyStateReport
    #: completed fraction of requests issued during the fault window
    fault_continuity: float
    #: completed fraction of requests issued before the first fault
    calm_continuity: float

    @property
    def passed(self) -> bool:
        return self.scenario.passed

    def to_dict(self) -> Dict[str, Any]:
        return {
            "passed": self.passed,
            "fault_continuity": self.fault_continuity,
            "calm_continuity": self.calm_continuity,
            "reconverged_at": self.scenario.reconverged_at,
            "deadline": self.scenario.deadline,
            "checks": [c.to_dict() for c in self.scenario.checks],
            "traffic": self.report.to_dict(),
        }


@restores_placement
def run_traffic_under_faults(
    framework: "HFCFramework",
    plan: FaultPlan,
    *,
    config: Optional[TrafficConfig] = None,
    traffic_seed: RngLike = 0,
    k_periods: int = 3,
    refresh_every: int = 4,
    aggregate_period: float = 1000.0,
    protocol_seed: RngLike = None,
    probes: int = 6,
    check_interval: float = 250.0,
    sim: Optional[Any] = None,
) -> TrafficFaultResult:
    """Run sustained traffic while *plan* executes, under the auditor.

    Starts from the same protocol, restart hooks (wipe and warm restore),
    injector and auditor as :func:`repro.faults.run_fault_scenario`, with a
    traffic engine attached to the same simulator. The traffic duration is
    stretched to cover the auditor's settle window so load spans the whole
    fault-and-recovery timeline.

    *sim* accepts a pre-built simulator — e.g. a sharded one from
    :meth:`HFCFramework.simulator` — so the whole scenario (protocol,
    injector, traffic) runs on it; results are shard-count-invariant.
    """
    auditor = _audited_protocol(
        framework, plan, k_periods=k_periods, protocol_seed=protocol_seed, resolve=traffic_proxy,
        refresh_every=refresh_every, aggregate_period=aggregate_period, sim=sim,
    )
    protocol = auditor.protocol

    config = config or TrafficConfig()
    # the audit runs to deadline + 2 refresh periods; keep arrivals flowing
    # through all of it (plus one period of slack for the final settle)
    needed = auditor.deadline + 3 * protocol.refresh_period
    if config.duration < needed:
        config = replace(config, duration=needed)

    engine = TrafficEngine(framework, config, sim=protocol.sim, seed=traffic_seed)
    engine.start()
    scenario = auditor.audit(framework, probes=probes, check_interval=check_interval)
    report = engine.finish()

    first_fault = plan.first_fault_start
    fault_continuity = engine.collector.continuity(first_fault, auditor.horizon)
    calm_continuity = engine.collector.continuity(engine.collector.warmup, first_fault)
    return TrafficFaultResult(
        scenario=scenario,
        report=report,
        fault_continuity=fault_continuity,
        calm_continuity=calm_continuity,
    )


def run_traffic_under_crash(
    framework: "HFCFramework",
    victim: ProxyId,
    *,
    fail_at: float,
    config: Optional[TrafficConfig] = None,
    seed: RngLike = 0,
    sim: Optional[Simulator] = None,
) -> TrafficEngine:
    """Run sustained traffic while *victim* crashes for good at *fail_at*.

    The crash is a permanent :class:`~repro.faults.plan.CrashRestart` run by
    a :class:`~repro.faults.injector.FaultInjector` with
    ``resolve=traffic_proxy``, so every flow it kills is a counted drop. The
    recovery policy is the config's ``repair``: None is "no recovery"; set,
    it is "reroute" — at ``fail_at + repair`` the victim leaves a
    :class:`~repro.membership.churn.DynamicOverlay` and the engine's router
    is rebound to it, so a flow past its deadline re-resolves around the
    victim (and a request with the victim as an endpoint is infeasible).

    Returns the finished engine: its report, per-request records, trace and
    simulator. *sim* accepts a pre-built (e.g. sharded) simulator.
    """
    config = config or TrafficConfig()
    sim = sim if sim is not None else Simulator()
    plan = FaultPlan(seed=0, specs=(CrashRestart(victim, fail_at),))
    FaultInjector(plan).install(sim, resolve=traffic_proxy)
    dyn = DynamicOverlay(framework, restructure_tolerance=None, track_quality=False)
    router = HierarchicalRouter(dyn.hfc)
    if config.repair is not None:

        def leave() -> None:
            dyn.leave(victim)
            router.rebind(dyn.hfc)

        # scheduled before the engine starts: at a tie it runs before a flush
        sim.schedule(fail_at + config.repair, leave)
    engine = TrafficEngine(framework, config, sim=sim, router=router, seed=seed)
    engine.run()
    return engine
