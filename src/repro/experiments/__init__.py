"""Experiment harnesses regenerating the paper's tables and figures."""

from repro.experiments.environments import (
    TABLE1,
    EnvironmentSpec,
    build_environment,
    scale_factor,
    scaled_table1,
)
from repro.experiments.overhead import OverheadResult, run_overhead_experiment
from repro.experiments.path_efficiency import run_path_efficiency
from repro.experiments.report import ascii_table
from repro.experiments.workload import (
    WorkloadConfig,
    generate_requests,
    random_service_graph,
    resolve_requests,
)

__all__ = [
    "EnvironmentSpec",
    "OverheadResult",
    "TABLE1",
    "WorkloadConfig",
    "ascii_table",
    "build_environment",
    "generate_requests",
    "random_service_graph",
    "resolve_requests",
    "run_overhead_experiment",
    "run_path_efficiency",
    "scale_factor",
    "scaled_table1",
]
