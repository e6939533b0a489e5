"""Network coordinates: Nelder-Mead, landmark embedding, coordinate spaces."""

from repro.coords.embedding import (
    EmbeddingReport,
    build_coordinate_space,
    choose_landmarks,
    classical_mds,
    embed_landmarks,
    embedding_accuracy,
    locate_host,
    locate_hosts,
)
from repro.coords.neldermead import (
    BatchMinimizeResult,
    MinimizeResult,
    minimize_with_restarts,
    minimize_with_restarts_batch,
    nelder_mead,
    nelder_mead_batch,
)
from repro.coords.space import CoordinateSpace

__all__ = [
    "BatchMinimizeResult",
    "CoordinateSpace",
    "EmbeddingReport",
    "MinimizeResult",
    "build_coordinate_space",
    "choose_landmarks",
    "classical_mds",
    "embed_landmarks",
    "embedding_accuracy",
    "locate_host",
    "locate_hosts",
    "minimize_with_restarts",
    "minimize_with_restarts_batch",
    "nelder_mead",
    "nelder_mead_batch",
]
