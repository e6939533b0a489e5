"""Request-building oracles: the per-slot service draw and the validated
chain constructor that :func:`repro.experiments.workload.random_service_graph`
and :func:`repro.services.graph.linear_graph` replaced."""

import random
from typing import Sequence

from repro.services.catalog import ServiceName
from repro.services.graph import ServiceGraph, branching_graph
from repro.util.sampling import PopularitySampler


def linear_graph_reference(service_names: Sequence[ServiceName]) -> ServiceGraph:
    """A chain through the validating constructor: edge checks, Kahn's sort."""
    services = {i: name for i, name in enumerate(service_names)}
    edges = {(i, i + 1) for i in range(len(service_names) - 1)}
    return ServiceGraph(services=services, edges=frozenset(edges))


def random_service_graph_reference(
    sampler: PopularitySampler, rng: random.Random, length: int, *, nonlinear: bool = False
) -> ServiceGraph:
    """One ``sampler.draw`` per slot, in slot order."""
    draw = lambda: sampler.draw(rng)  # noqa: E731
    if not nonlinear or length < 3:
        return linear_graph_reference([draw() for _ in range(length)])
    head_budget = max(2, length // 2)
    first = max(1, head_budget // 2)
    second = max(1, head_budget - first)
    tail = max(1, length - first - second)
    return branching_graph(
        chains=[[draw() for _ in range(first)], [draw() for _ in range(second)]],
        tail=[draw() for _ in range(tail)],
    )
