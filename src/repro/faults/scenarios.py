"""Canonical seeded fault plans: the CI fault matrix.

Each factory returns a :class:`~repro.faults.plan.FaultPlan` whose
geometry is derived deterministically from the given HFC (so the same
seed over the same build is the same plan, bit for bit). They are the
plans the test suite, the ``fault_matrix`` study
(``benchmarks/numbers.py``) and the CI fault-matrix smoke job all share:

* :func:`loss_burst_plan` — overlay-wide 30% loss burst;
* :func:`partition_heal_plan` — split the clusters in two halves, heal;
* :func:`crash_restart_plan` — crash a border proxy, wipe its state, and
  restart it with a *changed* service set (the stale-stream flusher);
* :func:`reorder_duplicate_plan` — reordering plus duplication, which the
  delta assembler's stale/gap logic must absorb without corruption.

:func:`standard_fault_matrix` bundles them, named, for matrix-style runs.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from repro.faults.plan import (
    CrashRestart,
    Duplicate,
    FaultPlan,
    LinkLoss,
    Partition,
    Reorder,
)
from repro.overlay.network import ProxyId
from repro.util.errors import FaultError
from repro.util.rng import ensure_rng


def loss_burst_plan(
    hfc: object,
    *,
    seed: int = 17,
    start: float = 1500.0,
    duration: float = 4000.0,
    loss_rate: float = 0.30,
) -> FaultPlan:
    """An overlay-wide Bernoulli loss burst (default 30% for 4 periods)."""
    return FaultPlan(
        seed=seed,
        specs=(LinkLoss(start=start, end=start + duration, loss_rate=loss_rate),),
    )


def partition_heal_plan(
    hfc,
    *,
    seed: int = 23,
    start: float = 1500.0,
    duration: float = 4000.0,
) -> FaultPlan:
    """Split the overlay's clusters into two halves, then heal.

    The cut follows cluster boundaries (lower-id clusters vs the rest),
    which severs exactly the border-to-border aggregate-forward traffic —
    the flow whose repair the auditor checks.
    """
    if hfc.cluster_count < 2:
        raise FaultError("partition_heal_plan needs at least two clusters")
    half = hfc.cluster_count // 2
    low: List[ProxyId] = []
    high: List[ProxyId] = []
    for cid in range(hfc.cluster_count):
        (low if cid < half else high).extend(hfc.members(cid))
    partition = Partition(
        start=start,
        end=start + duration,
        groups=(frozenset(low), frozenset(high)),
    )
    return FaultPlan(seed=seed, specs=(partition,))


def crash_restart_plan(
    hfc,
    *,
    seed: int = 31,
    crash_at: float = 1500.0,
    downtime: float = 2500.0,
) -> FaultPlan:
    """Crash a border proxy, wipe its state, restart with changed services.

    The victim is the first border proxy of cluster 0 (deterministic for
    a given build). It comes back with a rotated service set — one service
    dropped, so ground truth itself moves — which makes any receiver that
    is still frozen on the victim's pre-crash stream *observably* stale:
    exactly the scenario that exposed the emitter-restart sequence bug.
    """
    victim = _border_victim(hfc)
    services = sorted(hfc.overlay.placement[victim])
    rng = ensure_rng(seed)
    after: FrozenSet[str] = (
        frozenset(services[:-1]) if len(services) > 1
        else frozenset(rng.sample(sorted(_all_services(hfc) - set(services)), 1))
    )
    spec = CrashRestart(
        proxy=victim,
        crash_at=crash_at,
        restart_at=crash_at + downtime,
        wipe_state=True,
        services_after=after,
    )
    return FaultPlan(seed=seed, specs=(spec,))


def reorder_duplicate_plan(
    hfc: object,
    *,
    seed: int = 41,
    start: float = 1500.0,
    duration: float = 4000.0,
    reorder_probability: float = 0.35,
    duplicate_probability: float = 0.25,
) -> FaultPlan:
    """Heavy reordering plus duplication across the whole overlay."""
    end = start + duration
    return FaultPlan(
        seed=seed,
        specs=(
            Reorder(
                start=start,
                end=end,
                probability=reorder_probability,
                max_extra_delay=900.0,
            ),
            Duplicate(
                start=start,
                end=end,
                probability=duplicate_probability,
                max_offset=300.0,
            ),
        ),
    )


def super_border_crash_plan(
    hfc,
    *,
    seed: int = 43,
    crash_at: float = 1500.0,
    downtime: float = 2500.0,
    depth: int = 3,
) -> FaultPlan:
    """Crash a *super-border* proxy of a depth-``depth`` hierarchy.

    The victim is the first top-level border proxy of a recursive
    hierarchy built over *hfc* (deterministic for a given build) — the
    proxy whose state matters at every level: it serves its cluster, its
    cluster's borders, and the top-level crossing. Like
    :func:`crash_restart_plan` it restarts with a rotated service set, so
    per-level aggregate reconvergence is observable, not vacuous.

    Deliberately *not* part of :func:`standard_fault_matrix`: the
    ``fault_matrix`` study iterates that matrix, and its recorded numbers
    predate this plan. The fault-matrix script wires it in explicitly.
    """
    from repro.hierarchy.levels import build_levels

    hierarchy = build_levels(hfc, depth)
    top_borders = hierarchy.all_top_borders()
    victim = top_borders[0] if top_borders else _border_victim(hfc)
    services = sorted(hfc.overlay.placement[victim])
    rng = ensure_rng(seed)
    after: FrozenSet[str] = (
        frozenset(services[:-1]) if len(services) > 1
        else frozenset(rng.sample(sorted(_all_services(hfc) - set(services)), 1))
    )
    spec = CrashRestart(
        proxy=victim,
        crash_at=crash_at,
        restart_at=crash_at + downtime,
        wipe_state=True,
        services_after=after,
    )
    return FaultPlan(seed=seed, specs=(spec,))


def standard_fault_matrix(hfc, *, seed: int = 7) -> Dict[str, FaultPlan]:
    """The named seeded plans every resilience run exercises."""
    return {
        "loss_burst": loss_burst_plan(hfc, seed=seed + 10),
        "partition_heal": partition_heal_plan(hfc, seed=seed + 20),
        "crash_restart": crash_restart_plan(hfc, seed=seed + 30),
        "reorder_duplicate": reorder_duplicate_plan(hfc, seed=seed + 40),
    }


# -- helpers -----------------------------------------------------------------------


def _border_victim(hfc) -> ProxyId:
    """The deterministic crash victim: cluster 0's first border proxy."""
    borders = hfc.border_nodes(0)
    if borders:
        return borders[0]
    return sorted(hfc.members(0), key=repr)[0]


def _all_services(hfc) -> set:
    names: set = set()
    for services in hfc.overlay.placement.values():
        names |= set(services)
    return names
