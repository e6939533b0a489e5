"""Multi-level hierarchy extension: recursive HFC hierarchies and routing.

:mod:`repro.hierarchy.levels` is the level-generic core (any depth).
"""

from repro.hierarchy.levels import (
    HierarchyLevels,
    RecursiveRouter,
    build_levels,
    levels_from_columnar,
)

__all__ = [
    "HierarchyLevels",
    "RecursiveRouter",
    "build_levels",
    "levels_from_columnar",
]
