"""Experiment: service-path efficiency (paper Fig. 10).

Per overlay size, up to 5 physical topologies × 1000 client requests, three
strategies per request:

* ``mesh`` — the single-level regular-mesh baseline;
* ``hfc_agg`` — the paper's hierarchical framework (HFC with topology
  abstraction and state aggregation);
* ``hfc_full`` — HFC topology without any abstraction/aggregation (full
  state everywhere); the gap to ``hfc_agg`` is the price of aggregation.

Optionally ``flat`` (fully-connected coordinate routing) and ``oracle``
(true-delay routing) give reference bounds. Every path is scored by its
ground-truth delay, regardless of what estimates the strategy routed on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.config import FrameworkConfig
from repro.experiments.environments import (
    Environment,
    EnvironmentSpec,
    build_environment,
    scaled_table1,
)
from repro.experiments.workload import (
    WorkloadConfig,
    generate_requests,
    resolve_requests,
)
from repro.util.errors import ReproError
from repro.util.rng import RngLike, ensure_rng, spawn

DEFAULT_STRATEGIES = ("mesh", "hfc_agg", "hfc_full")


@dataclass
class EfficiencyPoint:
    """One x-position of Fig. 10: mean true path delay per strategy."""

    proxies: int
    mean_delay: Dict[str, float]
    std_delay: Dict[str, float]
    requests: int
    failures: Dict[str, int] = field(default_factory=dict)


@dataclass
class EfficiencyResult:
    """The full Fig. 10 series."""

    points: List[EfficiencyPoint]
    strategies: Sequence[str]


def _routers_for(environment: Environment, strategies: Sequence[str], seed) -> Dict[str, object]:
    framework = environment.framework
    routers: Dict[str, object] = {}
    for name in strategies:
        if name == "mesh":
            routers[name] = framework.mesh_router(seed=seed)
        elif name == "hfc_agg":
            # CSP memoisation changes nothing semantically (capabilities are
            # fixed for the run) but reflects the production configuration
            # and feeds the cache hit/miss telemetry.
            routers[name] = framework.cached_hierarchical_router()
        elif name == "hfc_full":
            routers[name] = framework.full_state_router()
        elif name == "flat":
            routers[name] = framework.flat_router()
        elif name == "oracle":
            routers[name] = framework.oracle_router()
        else:
            raise ReproError(f"unknown strategy {name!r}")
    return routers


def run_path_efficiency(
    specs: Optional[Sequence[EnvironmentSpec]] = None,
    *,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    topologies_per_size: int = 5,
    requests_per_topology: int = 1000,
    workload: Optional[WorkloadConfig] = None,
    config: Optional[FrameworkConfig] = None,
    seed: RngLike = None,
) -> EfficiencyResult:
    """Regenerate Fig. 10 (average service-path length per strategy).

    Args:
        specs: environment rows (default: Table 1 at the active
            ``REPRO_SCALE``).
        strategies: which bars to produce.
        topologies_per_size: physical topologies per size (paper: up to 5).
        requests_per_topology: client requests per run (paper: 1000).
        workload: request-mix override (defaults to the spec's 4-10 lengths).
        config: framework tunables.
        seed: master seed.
    """
    specs = list(specs) if specs is not None else scaled_table1()
    rng = ensure_rng(seed)
    points: List[EfficiencyPoint] = []
    for spec in specs:
        delays: Dict[str, List[float]] = {name: [] for name in strategies}
        failures: Dict[str, int] = {name: 0 for name in strategies}
        for t in range(topologies_per_size):
            env = build_environment(
                spec, config=config, seed=spawn(rng, f"env-{spec.proxies}-{t}")
            )
            wl = workload or WorkloadConfig(
                request_count=requests_per_topology,
                min_length=spec.min_request_length,
                max_length=spec.max_request_length,
            )
            requests = generate_requests(
                env, wl, seed=spawn(rng, f"wl-{spec.proxies}-{t}")
            )
            routers = _routers_for(
                env, strategies, seed=spawn(rng, f"mesh-{spec.proxies}-{t}")
            )
            # one batched pass per strategy: shared per-batch precompute
            # (tables, provider index, CSP memo) replaces the per-request
            # rebuild; mesh falls back to the scalar loop transparently
            for name, router in routers.items():
                result = resolve_requests(router, requests)
                failures[name] += result.infeasible_count
                delays[name].extend(
                    path.true_delay(env.framework.overlay)
                    for path in result.paths
                    if path is not None
                )
        points.append(
            EfficiencyPoint(
                proxies=spec.proxies,
                mean_delay={
                    name: float(np.mean(values)) if values else float("nan")
                    for name, values in delays.items()
                },
                std_delay={
                    name: float(np.std(values)) if values else float("nan")
                    for name, values in delays.items()
                },
                requests=topologies_per_size * requests_per_topology,
                failures=failures,
            )
        )
    return EfficiencyResult(points=points, strategies=list(strategies))
