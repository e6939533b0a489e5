"""Experiment E7: per-request stretch distributions.

Fig 10 reports means; means hide tails. This experiment computes the
per-request **stretch** of every strategy — the ratio of a strategy's true
path delay to the true-delay optimum for the same request — and reports
the distribution (median / p90 / p99 / max). Tail stretch is what a user
actually experiences when the estimates mislead routing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.experiments.environments import (
    EnvironmentSpec,
    build_environment,
    scaled_table1,
)
from repro.experiments.path_efficiency import _routers_for
from repro.experiments.workload import (
    WorkloadConfig,
    generate_requests,
    resolve_requests,
)
from repro.util.errors import ReproError
from repro.util.rng import RngLike, ensure_rng, spawn


@dataclass
class StretchRow:
    """Stretch distribution of one strategy."""

    strategy: str
    median: float
    p90: float
    p99: float
    worst: float
    requests: int


def run_stretch_analysis(
    *,
    strategies: Sequence[str] = ("mesh", "hfc_agg", "hfc_full"),
    spec: Optional[EnvironmentSpec] = None,
    request_count: int = 200,
    seed: RngLike = None,
) -> List[StretchRow]:
    """Per-request stretch vs the true-delay oracle, per strategy."""
    if "oracle" in strategies:
        raise ReproError("the oracle is the baseline; do not list it as a strategy")
    rng = ensure_rng(seed)
    spec = spec or scaled_table1()[0]
    env = build_environment(spec, seed=spawn(rng, "env"))
    framework = env.framework
    requests = generate_requests(
        env, WorkloadConfig(request_count=request_count), seed=spawn(rng, "wl")
    )
    routers = _routers_for(env, list(strategies), seed=spawn(rng, "mesh"))
    oracle = framework.oracle_router()

    # one batched pass per router: the oracle baseline and every strategy
    # share their per-batch precomputation instead of re-deriving it per
    # request (resolve_requests falls back to a scalar loop for routers
    # without route_many support, e.g. the mesh baseline)
    oracle_result = resolve_requests(oracle, requests)
    oracle_result.raise_first()
    bases = [path.true_delay(framework.overlay) for path in oracle_result.paths]

    stretches: Dict[str, List[float]] = {name: [] for name in strategies}
    for name, router in routers.items():
        result = resolve_requests(router, requests)
        for base, path in zip(bases, result.paths):
            if base <= 0 or path is None:
                continue
            stretches[name].append(path.true_delay(framework.overlay) / base)

    rows: List[StretchRow] = []
    for name in strategies:
        values = np.array(stretches[name])
        rows.append(
            StretchRow(
                strategy=name,
                median=float(np.median(values)),
                p90=float(np.percentile(values, 90)),
                p99=float(np.percentile(values, 99)),
                worst=float(values.max()),
                requests=int(values.size),
            )
        )
    return rows
