"""Convergence auditing: did the system actually recover from the faults?

The :class:`ConvergenceAuditor` is the judgemental half of the fault
layer. Given a protocol run under a :class:`~repro.faults.injector.FaultInjector`,
it snapshots ground-truth capabilities, waits for the plan's last fault
window to close, and then asserts the paper's soft-state recovery story
as explicit, individually-reported invariants (:class:`AuditCheck`):

* ``reconverged`` — every live proxy's SCT_P and SCT_C match ground
  truth within K refresh periods of the last fault clearing;
* ``tables_match`` — the final tables equal ground truth exactly (the
  reconvergence check, re-asserted at the end of the settle window);
* ``delta_reanchor`` — the assemblers' gap counters stop growing once
  converged: streams re-anchored on a full snapshot instead of leaking
  permanent gaps;
* ``border_forward_repair`` — border proxies keep forwarding remote
  aggregates after the faults (the ``aggregate_forward`` flow resumes);
* ``router_fresh`` — a cached router bound to the protocol's capability
  feed serves the same answers as a fresh ground-truth router and is
  synced to the feed's current version: no CSP older than the feed
  survives recovery.

:func:`run_fault_scenario` is the one-call harness used by tests, the
resilience bench, and the CI fault matrix: build protocol + injector +
auditor, run, return a :class:`FaultScenarioResult` that can be dumped
as a JSONL audit trail.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple, TypeVar

from repro.faults.injector import AddressResolver, FaultInjector
from repro.faults.plan import FaultPlan
from repro.overlay.network import ProxyId
from repro.state.protocol import StateDistributionProtocol
from repro.util.errors import FaultError
from repro.util.rng import RngLike


@dataclass(frozen=True)
class AuditCheck:
    """One named invariant the auditor asserted, with its outcome."""

    name: str
    passed: bool
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {"check": self.name, "passed": self.passed, "detail": self.detail}


@dataclass
class FaultScenarioResult:
    """Everything a fault scenario produced, JSONL-able for audit trails."""

    plan: FaultPlan
    checks: Tuple[AuditCheck, ...]
    horizon: float
    deadline: float
    reconverged_at: Optional[float]
    counters: Dict[str, int] = field(default_factory=dict)
    trace: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def recovery_time(self) -> Optional[float]:
        """Simulated time from fault horizon to reconvergence."""
        if self.reconverged_at is None:
            return None
        return max(0.0, self.reconverged_at - self.horizon)

    def failures(self) -> List[AuditCheck]:
        return [check for check in self.checks if not check.passed]

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        when = (
            f"reconverged_at={self.reconverged_at:.0f}"
            if self.reconverged_at is not None
            else "never reconverged"
        )
        return (
            f"[{verdict}] seed={self.plan.seed} {when} "
            f"(deadline={self.deadline:.0f}) "
            f"checks={sum(c.passed for c in self.checks)}/{len(self.checks)}"
        )

    def dump_jsonl(self, path: str) -> int:
        """Write the fault trace followed by the audit verdicts as JSONL."""
        with open(path, "w", encoding="utf-8") as fh:
            for entry in self.trace:
                fh.write(json.dumps(entry, sort_keys=True, default=repr) + "\n")
            for check in self.checks:
                fh.write(json.dumps(check.to_dict(), sort_keys=True) + "\n")
        return len(self.trace) + len(self.checks)


class ConvergenceAuditor:
    """Drives a faulted protocol run and asserts post-fault recovery.

    ``k_periods`` is the reconvergence budget in protocol refresh periods
    (the K of the acceptance criterion): the system must be back at
    ground truth by ``plan.last_fault_end + k_periods * refresh_period``.
    """

    def __init__(
        self,
        protocol: StateDistributionProtocol,
        injector: FaultInjector,
        *,
        k_periods: int = 3,
    ) -> None:
        if injector.sim is not protocol.sim:
            raise FaultError("injector is not installed on the protocol's simulator")
        if k_periods < 1:
            raise FaultError(f"k_periods must be >= 1, got {k_periods}")
        self.protocol = protocol
        self.injector = injector
        self.plan = injector.plan
        self.k_periods = k_periods

    # -- geometry -----------------------------------------------------------------

    @property
    def horizon(self) -> float:
        """When the last fault stops acting."""
        return self.plan.last_fault_end

    @property
    def deadline(self) -> float:
        """Latest acceptable reconvergence instant."""
        return self.horizon + self.k_periods * self.protocol.refresh_period

    # -- convergence over live proxies ---------------------------------------------

    def _skip(self) -> FrozenSet[ProxyId]:
        """Proxies exempt from table checks: down forever, never recovering."""
        return self.plan.permanently_down(self.protocol.sim.now)

    def converged_live(self) -> bool:
        """Like protocol.converged(), ignoring permanently-down proxies."""
        protocol = self.protocol
        skip = self._skip()
        truth_c = protocol.ground_truth_sct_c()
        for proxy, state in protocol.states.items():
            if proxy in skip:
                continue
            if state.sct_p.as_dict() != protocol.ground_truth_sct_p(proxy):
                return False
            if state.sct_c.as_dict() != truth_c:
                return False
        return True

    def await_reconvergence(self, *, check_interval: float = 250.0) -> Optional[float]:
        """Run the simulation until live convergence or the deadline.

        Returns the (interval-granular) reconvergence instant, or None if
        the deadline passed without the tables matching ground truth.
        """
        sim = self.protocol.sim
        sim.run_until(self.horizon)
        while True:
            if self.converged_live():
                return sim.now
            if sim.now >= self.deadline:
                return None
            sim.run_until(min(sim.now + check_interval, self.deadline))

    # -- the audit ------------------------------------------------------------------

    def audit(
        self,
        framework: Any = None,
        *,
        probes: int = 6,
        probe_seed: Optional[int] = None,
        check_interval: float = 250.0,
    ) -> FaultScenarioResult:
        """Run to the deadline and assert every recovery invariant.

        Pass the owning :class:`~repro.core.framework.HFCFramework` to
        enable the ``router_fresh`` check (it needs request generation);
        without it that check is reported as skipped-but-passed.
        """
        protocol = self.protocol
        sim = protocol.sim
        checks: List[AuditCheck] = []

        reconverged_at = self.await_reconvergence(check_interval=check_interval)
        checks.append(
            AuditCheck(
                "reconverged",
                reconverged_at is not None,
                f"at t={reconverged_at:.0f} (deadline {self.deadline:.0f})"
                if reconverged_at is not None
                else f"still diverged at deadline t={self.deadline:.0f}",
            )
        )

        # one refresh period of grace: streams whose tail deltas were lost
        # keep gap-rejecting until their next full snapshot re-anchors them,
        # which by construction takes at most one refresh period. After the
        # grace window the gap counters must be flat (no permanent gaps)
        # and borders must still be forwarding remote aggregates.
        sim.run_until(sim.now + protocol.refresh_period)
        gaps_before = protocol.delta_stats()["gaps"]
        forwards_before = sim.telemetry.registry.values_by_label(
            "sim.messages.delivered", "kind"
        ).get("aggregate_forward", 0)
        sim.run_until(sim.now + protocol.refresh_period)
        gaps_after = protocol.delta_stats()["gaps"]
        forwards_after = sim.telemetry.registry.values_by_label(
            "sim.messages.delivered", "kind"
        ).get("aggregate_forward", 0)

        checks.append(
            AuditCheck(
                "delta_reanchor",
                gaps_after == gaps_before,
                f"gaps {gaps_before} -> {gaps_after} over one settle period",
            )
        )

        if protocol.hfc.cluster_count > 1:
            checks.append(
                AuditCheck(
                    "border_forward_repair",
                    forwards_after > forwards_before,
                    f"aggregate_forward {forwards_before} -> {forwards_after}",
                )
            )
        else:
            checks.append(
                AuditCheck(
                    "border_forward_repair", True, "single cluster: no borders"
                )
            )

        checks.append(
            AuditCheck(
                "tables_match",
                self.converged_live(),
                "live SCT_P/SCT_C equal ground truth after settling"
                if self.converged_live()
                else "tables diverged from ground truth after settling",
            )
        )

        checks.append(self._router_fresh(framework, probes, probe_seed))

        counters: Dict[str, int] = {}
        registry = sim.telemetry.registry
        for name in ("faults.dropped", "faults.delayed"):
            for cause, value in registry.values_by_label(name, "cause").items():
                counters[f"{name}.{cause}"] = value
        counters["faults.duplicated"] = registry.total("faults.duplicated")
        counters["faults.restarts"] = registry.total("faults.restarts")
        counters["protocol.restarts"] = registry.total("protocol.restarts")
        counters["protocol.restarts.warm"] = registry.total("protocol.restarts.warm")
        # the assembler tallies only: runs are compared across commits by these keys
        stats = protocol.delta_stats()
        counters.update({f"delta.{k}": stats[k] for k in ("applied", "stale", "gaps")})

        return FaultScenarioResult(
            plan=self.plan,
            checks=tuple(checks),
            horizon=self.horizon,
            deadline=self.deadline,
            reconverged_at=reconverged_at,
            counters=counters,
            trace=list(self.injector.trace),
        )

    def _router_fresh(
        self, framework: Any, probes: int, probe_seed: Optional[int]
    ) -> AuditCheck:
        """The cached router never serves a CSP older than the feed version."""
        if framework is None:
            return AuditCheck("router_fresh", True, "skipped: no framework given")
        if not self.converged_live():
            return AuditCheck(
                "router_fresh", False, "cannot probe: tables never reconverged"
            )
        feed = self.protocol.capability_feed()
        cached = framework.cached_hierarchical_router(capability_feed=feed)
        fresh = framework.hierarchical_router()
        base = probe_seed if probe_seed is not None else self.plan.seed * 10007
        for i in range(probes):
            request = framework.random_request(seed=base + i)
            got = cached.route(request).proxies()
            want = fresh.route(request).proxies()
            if got != want:
                return AuditCheck(
                    "router_fresh",
                    False,
                    f"probe {i}: cached router path {got} != ground truth {want}",
                )
            if cached._feed_version != feed.version:
                return AuditCheck(
                    "router_fresh",
                    False,
                    f"probe {i}: router synced to feed version "
                    f"{cached._feed_version!r}, feed is at {feed.version!r}",
                )
        return AuditCheck(
            "router_fresh", True, f"{probes} probes match ground-truth routing"
        )


_Run = TypeVar("_Run", bound=Callable[..., Any])


def restores_placement(run: _Run) -> _Run:
    """Give ``run(framework, ...)`` the shared placement back as it found it.

    A restart with ``services_after`` moves ground truth — the overlay's
    placement, which routing reads live — for the run it belongs to, not
    for every later run on the same framework.
    """

    @functools.wraps(run)
    def wrapper(framework: Any, *args: Any, **kwargs: Any) -> Any:
        placement = framework.hfc.overlay.placement
        before = dict(placement)
        try:
            return run(framework, *args, **kwargs)
        finally:
            placement.clear()
            placement.update(before)

    return wrapper  # type: ignore[return-value]


def _audited_protocol(
    framework: Any,
    plan: FaultPlan,
    *,
    k_periods: int,
    protocol_seed: RngLike,
    resolve: Optional[AddressResolver] = None,
    **protocol_args: Any,
) -> ConvergenceAuditor:
    """The protocol, its restart wiring, the installed injector and the
    auditor for *plan*: what every fault-scenario runner starts from.

    The injector's restart hook is wired to
    :meth:`~repro.state.protocol.StateDistributionProtocol.wipe_state`, so
    a :class:`~repro.faults.plan.CrashRestart` with ``wipe_state=True``
    reboots the proxy with empty soft state (and, if ``services_after`` is
    set, a changed service placement) — the scenario that flushes out
    stale-stream bugs. Specs with ``warm_restart=True`` instead get their
    state plane captured at the crash instant (the crash hook) and
    restored on restart via
    :meth:`~repro.state.protocol.StateDistributionProtocol.restore_state`
    — the snapshot-backed recovery path, where learned tables survive and
    only the emitter incarnation advances. *resolve* maps auxiliary
    addresses to proxies (see :meth:`FaultInjector.install`); the other
    keywords go to the protocol.
    """
    protocol = StateDistributionProtocol(
        framework.hfc,
        seed=protocol_seed if protocol_seed is not None else plan.seed,
        **protocol_args,
    )

    snapshots: Dict[Any, Dict[str, Any]] = {}

    def on_crash(spec: Any) -> None:
        if spec.warm_restart:
            snapshots[spec.proxy] = protocol.snapshot_proxy(spec.proxy)

    def on_restart(spec: Any) -> None:
        if spec.warm_restart and spec.proxy in snapshots:
            protocol.restore_state(
                spec.proxy, snapshots.pop(spec.proxy), services=spec.services_after
            )
        elif spec.wipe_state:
            protocol.wipe_state(spec.proxy, services=spec.services_after)
        elif spec.services_after is not None:
            protocol.update_local_services(spec.proxy, spec.services_after)

    injector = FaultInjector(plan).install(
        protocol.sim, on_restart=on_restart, on_crash=on_crash, resolve=resolve
    )
    return ConvergenceAuditor(protocol, injector, k_periods=k_periods)


@restores_placement
def run_fault_scenario(
    framework: Any,
    plan: FaultPlan,
    *,
    k_periods: int = 3,
    refresh_every: int = 4,
    aggregate_period: float = 1000.0,
    protocol_seed: RngLike = None,
    probes: int = 6,
    check_interval: float = 250.0,
    sim: Any = None,
) -> FaultScenarioResult:
    """Build protocol + injector + auditor for *plan* and run the audit.

    Crashes restart through the protocol's wipe or warm-restore path, as
    each spec asks (see :func:`_audited_protocol`).
    """
    auditor = _audited_protocol(
        framework, plan, k_periods=k_periods, protocol_seed=protocol_seed,
        refresh_every=refresh_every, aggregate_period=aggregate_period, sim=sim,
    )
    return auditor.audit(framework, probes=probes, check_interval=check_interval)
