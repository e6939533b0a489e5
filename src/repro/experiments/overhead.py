"""Experiment: state-information maintenance overhead (Fig. 9(a) and 9(b)).

For each overlay size the paper builds 10 different physical topologies,
constructs the HFC hierarchy on each, and reports the mean per-proxy
node-state counts for flat vs hierarchical organisation — once for
coordinates-related state (9(a)) and once for service-capability state
(9(b)). Flat curves are exactly ``n``; hierarchical curves are
``|own cluster| + #borders`` and ``|own cluster| + #clusters``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.core.config import FrameworkConfig
from repro.experiments.environments import (
    EnvironmentSpec,
    build_environment,
    scaled_table1,
)
from repro.state.overhead import (
    mean_coordinates_overhead,
    mean_service_overhead,
)
from repro.util.rng import RngLike, ensure_rng, spawn


@dataclass
class OverheadPoint:
    """One x-position of Fig. 9: overlay size vs the two curves."""

    proxies: int
    flat: float
    hierarchical: float
    hierarchical_std: float
    topologies: int


@dataclass
class OverheadResult:
    """Both Fig. 9 panels."""

    coordinates: List[OverheadPoint]
    service: List[OverheadPoint]


def run_overhead_experiment(
    specs: Optional[Sequence[EnvironmentSpec]] = None,
    *,
    topologies_per_size: int = 10,
    config: Optional[FrameworkConfig] = None,
    seed: RngLike = None,
) -> OverheadResult:
    """Regenerate Fig. 9: overhead vs overlay size, flat vs hierarchical.

    Args:
        specs: environment rows (default: Table 1 at the active
            ``REPRO_SCALE``).
        topologies_per_size: physical topologies averaged per size (paper: 10).
        config: framework tunables.
        seed: master seed.
    """
    specs = list(specs) if specs is not None else scaled_table1()
    rng = ensure_rng(seed)
    coordinates: List[OverheadPoint] = []
    service: List[OverheadPoint] = []
    for spec in specs:
        coord_values = []
        service_values = []
        for t in range(topologies_per_size):
            env = build_environment(
                spec, config=config, seed=spawn(rng, f"{spec.proxies}-{t}")
            )
            coord_values.append(mean_coordinates_overhead(env.framework.hfc))
            service_values.append(mean_service_overhead(env.framework.hfc))
        coordinates.append(
            OverheadPoint(
                proxies=spec.proxies,
                flat=float(spec.proxies),
                hierarchical=float(np.mean(coord_values)),
                hierarchical_std=float(np.std(coord_values)),
                topologies=topologies_per_size,
            )
        )
        service.append(
            OverheadPoint(
                proxies=spec.proxies,
                flat=float(spec.proxies),
                hierarchical=float(np.mean(service_values)),
                hierarchical_std=float(np.std(service_values)),
                topologies=topologies_per_size,
            )
        )
    return OverheadResult(coordinates=coordinates, service=service)
