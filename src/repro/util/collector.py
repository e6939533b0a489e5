"""The one collector rule the event engine, the shard driver and the router share."""

from __future__ import annotations

import gc
from typing import Any


class _collector_paused:
    """Run the body with the cyclic collector off, then put it back as found.

    For a body whose own allocations are acyclic and freed by reference count
    (an engine run's heap entries, messages and outbox entries; a routed
    batch's labels, hops and results): a collection in the middle of it can
    only re-walk what is alive. Cyclic garbage the body makes waits for it to
    end. A class, not a generator, because a single route pays for it.
    """

    __slots__ = ("_enabled",)

    def __enter__(self) -> None:
        self._enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc: Any) -> None:
        if self._enabled:
            gc.enable()
