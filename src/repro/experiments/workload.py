"""Workload generation: client service requests over an environment.

The paper's workload (Section 6.2): clients issue service requests with
4-10 services each; a request names a source proxy (where the content
originates), a service graph, and the destination proxy feeding the client.
The paper evaluates linear SGs; non-linear SGs are supported behind
``nonlinear_fraction`` for the extension benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.environments import Environment
from repro.routing.batch import BatchRouteResult
from repro.routing.path import ServicePath
from repro.services.catalog import ServiceCatalog
from repro.services.graph import ServiceGraph, branching_graph, linear_graph
from repro.services.request import ServiceRequest
from repro.util.errors import NoFeasiblePathError, ReproError
from repro.util.rng import RngLike, ensure_rng
from repro.util.sampling import POPULARITY_MODELS, PopularitySampler


@dataclass(frozen=True)
class WorkloadConfig:
    """Request-mix parameters."""

    request_count: int = 1000
    min_length: int = 4
    max_length: int = 10
    #: fraction of requests carrying a non-linear (branching) SG
    nonlinear_fraction: float = 0.0
    #: service-popularity skew: "uniform" (the paper's implicit choice) or
    #: "zipf" (realistic skewed demand; exponent via zipf_exponent)
    popularity: str = "uniform"
    zipf_exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.request_count < 1:
            raise ReproError("request_count must be >= 1")
        if not 1 <= self.min_length <= self.max_length:
            raise ReproError("invalid request length bounds")
        if not 0.0 <= self.nonlinear_fraction <= 1.0:
            raise ReproError("nonlinear_fraction must be in [0, 1]")
        if self.popularity not in POPULARITY_MODELS:
            raise ReproError("popularity must be 'uniform' or 'zipf'")
        if self.zipf_exponent <= 0:
            raise ReproError("zipf_exponent must be positive")


class ServiceSampler(PopularitySampler):
    """Draws service names according to the configured popularity model.

    For ``zipf``, service i (in catalog order) has weight ``1 / (i+1)^s``:
    a few services dominate the workload, as real deployments see. This is
    the catalog-flavoured face of :class:`repro.util.sampling.PopularitySampler`
    (the traffic engine uses the shared class directly); the draw sequence
    is unchanged, so seeded workloads stay bit-identical.
    """

    def __init__(self, catalog: ServiceCatalog, config: WorkloadConfig) -> None:
        super().__init__(
            list(catalog.names),
            popularity=config.popularity,
            exponent=config.zipf_exponent,
        )


def random_service_graph(
    catalog: ServiceCatalog,
    length: int,
    *,
    nonlinear: bool = False,
    sampler: Optional[ServiceSampler] = None,
    seed: RngLike = None,
) -> ServiceGraph:
    """A random SG with *length* slots drawn from *catalog*.

    Linear SGs are plain chains. Non-linear SGs follow Figure 2(b)'s shape:
    two alternative head chains merging into a shared tail, giving the router
    several feasible configurations to choose among. *sampler* overrides the
    uniform service draw (e.g. Zipf popularity).
    """
    rng = ensure_rng(seed)
    if sampler is None:
        sampler = ServiceSampler(catalog, WorkloadConfig(request_count=1))
    if not nonlinear or length < 3:
        return linear_graph(sampler.draws(rng, length))
    head_budget = max(2, length // 2)
    first = max(1, head_budget // 2)
    second = max(1, head_budget - first)
    tail = max(1, length - first - second)
    names = sampler.draws(rng, first + second + tail)
    return branching_graph(
        chains=[names[:first], names[first : first + second]],
        tail=names[first + second :],
    )


def generate_requests(
    environment: Environment,
    config: Optional[WorkloadConfig] = None,
    *,
    seed: RngLike = None,
) -> List[ServiceRequest]:
    """Generate the paper's client workload for *environment*.

    Each request picks a uniform random source proxy (the content origin) and
    the access proxy of a uniform random client as destination; request
    lengths are uniform in the spec's range.
    """
    config = config or WorkloadConfig()
    rng = ensure_rng(seed)
    framework = environment.framework
    proxies = framework.overlay.proxies
    destinations = environment.client_proxies or proxies
    sampler = ServiceSampler(framework.catalog, config)
    requests: List[ServiceRequest] = []
    for _ in range(config.request_count):
        source = rng.choice(proxies)
        destination = rng.choice(destinations)
        if destination == source:
            # a request must traverse the overlay; re-draw the source
            candidates = [p for p in proxies if p != destination]
            source = rng.choice(candidates)
        length = rng.randint(config.min_length, config.max_length)
        nonlinear = rng.random() < config.nonlinear_fraction
        sg = random_service_graph(
            framework.catalog, length, nonlinear=nonlinear,
            sampler=sampler, seed=rng,
        )
        requests.append(ServiceRequest(source, sg, destination))
    return requests


def resolve_requests(router, requests: Sequence[ServiceRequest]) -> BatchRouteResult:
    """Route a whole workload through *router*, batched when it can be.

    Routers exposing ``route_many_detailed`` (the hierarchical family, flat
    routers) resolve the batch with shared per-batch precomputation; any
    other router falls back to a per-request loop. Either way the result
    aligns index-for-index with *requests*: exactly one of ``paths[i]`` /
    ``errors[i]`` is set, and an infeasible request carries the same error
    the scalar ``route`` call would have raised.
    """
    route_many_detailed = getattr(router, "route_many_detailed", None)
    if route_many_detailed is not None:
        return route_many_detailed(requests)
    paths: List[Optional[ServicePath]] = []
    errors: List[Optional[NoFeasiblePathError]] = []
    for request in requests:
        try:
            paths.append(router.route(request))
            errors.append(None)
        except NoFeasiblePathError as exc:
            paths.append(None)
            errors.append(exc)
    return BatchRouteResult(paths=paths, errors=errors)
