"""State-plane oracles: the capability-table union recomputed from every
entry, which the counted multiset of ``ServiceCapabilityTable`` replaced."""

from typing import FrozenSet

from repro.state.tables import ServiceCapabilityTable


def union_reference(table: ServiceCapabilityTable) -> FrozenSet[str]:
    """Every service some entry of *table* lists, from scratch."""
    return frozenset().union(*table.as_dict().values())
