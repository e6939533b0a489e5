"""Boundary tracing for the end-to-end benchmark, installed from outside.

The benchmark may not edit the program, so every layer is timed by
wrapping the *public* entry point that leads into it and removing the
wrapper afterwards. Two kinds of boundary exist:

* **span** boundaries (builds, batches, run loops, audits: at most a few
  thousand hits a run) record ``(id, parent, name, start, end, round)``
  and feed the per-name accumulators;
* **event** boundaries (scheduled actions, message receives, the delivery
  interceptor, per-request routing steps) keep only the accumulators,
  because a record per simulated event would cost more than the event.

Both maintain one stack, so a boundary's *self* time is its duration
minus the part covered by the boundaries it called into, whatever their
kind. The program's own ``construct.*`` / ``route.batch.*`` spans are
deliberately not read: a later change may move them, and a benchmark
that follows the code it measures cannot compare two commits.
"""

from __future__ import annotations

import json
import weakref
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: spans recorded per run before span boundaries degrade to accumulate-only
SPAN_CAP = 10_000

Span = Tuple[int, Optional[int], str, float, float, str]

_MISSING = object()


class Totals:
    """A frozen copy of the accumulators of one phase: name -> (hits, busy, self)."""

    def __init__(self, values: Dict[str, Tuple[float, float, float]]) -> None:
        self.values = values

    def hits(self, name: str) -> int:
        return int(self.values.get(name, (0, 0.0, 0.0))[0])

    def busy(self, *names: str) -> float:
        """Inclusive seconds spent under the named boundaries."""
        return float(sum(self.values.get(n, (0, 0.0, 0.0))[1] for n in names))

    def self_s(self, *names: str) -> float:
        """Self seconds of the named boundaries."""
        return float(sum(self.values.get(n, (0, 0.0, 0.0))[2] for n in names))

    def __add__(self, other: "Totals") -> "Totals":
        merged = dict(self.values)
        for name, (hits, busy, self_s) in other.values.items():
            mine = merged.get(name, (0, 0.0, 0.0))
            merged[name] = (mine[0] + hits, mine[1] + busy, mine[2] + self_s)
        return Totals(merged)


class Tracer:
    """Accumulators, a span log and the shared boundary stack."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        #: name -> [hits, inclusive seconds, self seconds]
        self.acc: Dict[str, List[float]] = {}
        self.spans: List[Span] = []
        #: round label stamped on spans (set by :meth:`run_root`)
        self.round = ""
        # one frame per open boundary: [child seconds, span id or None]
        self._stack: List[List[Any]] = []
        self._next_id = 0
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- accounting --------------------------------------------------------------

    def slot(self, name: str) -> List[float]:
        """The accumulator list for *name* (created on first use)."""
        slot = self.acc.get(name)
        if slot is None:
            slot = self.acc[name] = [0, 0.0, 0.0]
        return slot

    def drain(self) -> Totals:
        """The accumulators so far, zeroed in place for the next phase.

        Wrappers hold their slot lists, so the lists are cleared, never
        replaced.
        """
        totals = Totals({name: (s[0], s[1], s[2]) for name, s in self.acc.items()})
        for slot in self.acc.values():
            slot[0], slot[1], slot[2] = 0, 0.0, 0.0
        return totals

    # -- wrappers ----------------------------------------------------------------

    def event(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """*fn* timed as an accumulate-only boundary called *name*."""
        slot = self.slot(name)
        stack = self._stack
        clock = self.clock

        def timed(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return timed

    def span(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """*fn* timed as a span-recording boundary called *name*."""
        slot = self.slot(name)
        stack = self._stack
        clock = self.clock
        spans = self.spans

        def timed(*args: Any, **kwargs: Any) -> Any:
            parent = None
            for open_frame in reversed(stack):
                if open_frame[1] is not None:
                    parent = open_frame[1]
                    break
            span_id = self._next_id
            self._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                stack.pop()
                slot[0] += 1
                slot[1] += duration
                slot[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((span_id, parent, name, start, end, self.round))

        return timed

    def run_root(self, label: str, fn: Callable[[], Any]) -> Any:
        """Run *fn* as a root span: ``round:3`` is recorded as ``root.round``."""
        previous, self.round = self.round, label
        try:
            return self.span(fn, "root." + label.split(":")[0])()
        finally:
            self.round = previous

    # -- patching ----------------------------------------------------------------

    def patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.attr`` by ``make(original)``, remembering the original.

        The raw ``__dict__`` entry is saved (not the bound lookup), so
        restoring puts back the very same function, ``classmethod`` or
        ``property`` object.
        """
        raw = vars(owner).get(attr, _MISSING)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, make(getattr(owner, attr)))

    def unpatch_all(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------------

    def write_jsonl(self, path: str, phases: Dict[str, Totals]) -> int:
        """Write the span log, then one line per (phase, boundary); returns lines."""
        lines = 0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, label in self.spans:
                record = {
                    "span": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                    "round": label,
                }
                handle.write(json.dumps(record) + "\n")
                lines += 1
            for phase, totals in phases.items():
                for name in sorted(totals.values):
                    hits, busy, self_s = totals.values[name]
                    if hits:
                        record = {
                            "phase": phase,
                            "boundary": name,
                            "hits": hits,
                            "busy_s": busy,
                            "self_s": self_s,
                        }
                        handle.write(json.dumps(record) + "\n")
                        lines += 1
        return lines


def span_self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus its direct child spans' durations.

    Event boundaries leave no span, so their time stays in the enclosing
    span here; the accumulators' self times subtract them as well.
    """
    self_s = {span[0]: span[4] - span[3] for span in spans}
    for _span_id, parent, _name, start, end, _label in spans:
        if parent in self_s:
            self_s[parent] -= end - start
    return self_s


# -- the boundary set ---------------------------------------------------------------


def layer_of(module: Optional[str]) -> str:
    """``repro.state.protocol`` -> ``state.protocol`` (``other`` when unknown)."""
    if module and module.startswith("repro."):
        return module[len("repro."):]
    return "other"


def install(tracer: Tracer) -> None:
    """Wrap every public boundary the benchmark attributes time to.

    Imports happen here so that importing this module pulls in nothing of
    the program; :meth:`Tracer.unpatch_all` removes everything again.
    """
    import repro.core.framework as framework
    import repro.hierarchy.levels as levels
    import repro.netsim.shard as shard
    import repro.persistence as persistence
    import repro.routing.hierarchical as hierarchical
    from repro.faults.auditor import ConvergenceAuditor
    from repro.faults.injector import FaultInjector
    from repro.membership.churn import DynamicOverlay
    from repro.netsim.eventsim import Process, Simulator
    from repro.netsim.physical import PhysicalNetwork
    from repro.routing.flat import FlatRouter
    from repro.routing.hierarchical import HierarchicalRouter
    from repro.state.columnar import ColumnarOverlayState

    def spanned(name: str) -> Callable[[Any], Any]:
        return lambda original: tracer.span(original, name)

    def evented(name: str) -> Callable[[Any], Any]:
        return lambda original: tracer.event(original, name)

    # construction: the callees of HFCFramework.build, as named in its module
    for attr, name in (
        ("transit_stub", "netsim.topology.transit_stub"),
        ("PhysicalNetwork", "netsim.topology.physical"),
        ("build_coordinate_space", "coords.embedding"),
        ("install_services", "services.placement"),
        ("cluster_nodes", "cluster.mstcluster"),
        ("build_hfc", "overlay.hfc"),
    ):
        tracer.patch(framework, attr, spanned(name))
    tracer.patch(
        ColumnarOverlayState,
        "from_parts",
        lambda bound: staticmethod(tracer.span(bound, "state.columnar")),
    )
    tracer.patch(levels, "build_levels", spanned("hierarchy.levels.build"))
    tracer.patch(persistence, "save_snapshot", spanned("persistence.save"))
    tracer.patch(persistence, "load_snapshot", spanned("persistence.load"))

    # routing
    tracer.patch(hierarchical, "query_tables", spanned("routing.batch.tables"))
    tracer.patch(hierarchical, "solve_specs", spanned("routing.batch.conquer"))
    tracer.patch(HierarchicalRouter, "route_many_detailed", spanned("routing.hierarchical.batch"))
    tracer.patch(HierarchicalRouter, "route", evented("routing.hierarchical.single"))
    tracer.patch(HierarchicalRouter, "dissect", evented("routing.hierarchical.dissect"))
    tracer.patch(HierarchicalRouter, "compose", evented("routing.hierarchical.compose"))
    tracer.patch(FlatRouter, "route_many", spanned("routing.flat"))

    # event engine: run loops are spans, everything they dispatch is per-event
    tracer.patch(shard, "run_sharded", spanned("netsim.shard.run"))
    tracer.patch(Simulator, "run_until", spanned("netsim.eventsim.run"))
    tracer.patch(shard.ShardedSimulator, "run_until", spanned("netsim.eventsim.run"))

    action_names: Dict[Optional[str], str] = {}

    def timed_action(action: Callable[[], None]) -> Callable[[], None]:
        module = getattr(action, "__module__", None)
        name = action_names.get(module)
        if name is None:
            name = action_names[module] = layer_of(module) + ".action"
        return tracer.event(action, name)

    def make_schedule(original: Any) -> Any:
        def schedule(self: Any, delay: float, action: Callable[[], None]) -> None:
            original(self, delay, timed_action(action))

        return schedule

    def make_schedule_every(original: Any) -> Any:
        def schedule_every(
            self: Any, period: float, action: Callable[[], None], **kwargs: Any
        ) -> None:
            original(self, period, timed_action(action), **kwargs)

        return schedule_every

    tracer.patch(Simulator, "schedule", make_schedule)
    tracer.patch(Simulator, "schedule_every", make_schedule_every)

    patched_receivers = set()

    def make_register(original: Any) -> Any:
        def register(self: Any, process: Any) -> None:
            for klass in type(process).__mro__:
                if "receive" in vars(klass):
                    if klass is not Process and klass not in patched_receivers:
                        patched_receivers.add(klass)
                        tracer.patch(
                            klass, "receive", evented(layer_of(klass.__module__) + ".receive")
                        )
                    break
            original(self, process)

        return register

    tracer.patch(Simulator, "register", make_register)

    def make_install(original: Any) -> Any:
        def install_injector(self: Any, sim: Any, **kwargs: Any) -> Any:
            result = original(self, sim, **kwargs)
            sim.interceptor = tracer.event(sim.interceptor, "faults.injector.intercept")
            return result

        return install_injector

    tracer.patch(FaultInjector, "install", make_install)

    # a row is one single-source Dijkstra: the first call per (network, source)
    rows = tracer.slot("netsim.physical.rows")
    seen_rows: "weakref.WeakKeyDictionary[Any, set]" = weakref.WeakKeyDictionary()

    def make_delays_from(original: Any) -> Any:
        timed = tracer.event(original, "netsim.physical.delays_from")

        def delays_from(self: Any, source: int) -> Any:
            sources = seen_rows.setdefault(self, set())
            if source not in sources:
                sources.add(source)
                rows[0] += 1
            return timed(self, source)

        return delays_from

    tracer.patch(PhysicalNetwork, "delays_from", make_delays_from)
    tracer.patch(ConvergenceAuditor, "converged_live", spanned("faults.auditor.check"))

    # membership
    tracer.patch(DynamicOverlay, "join", evented("membership.churn.join"))
    tracer.patch(DynamicOverlay, "leave", evented("membership.churn.leave"))
    tracer.patch(DynamicOverlay, "restructure", spanned("membership.churn.restructure"))
    tracer.patch(
        DynamicOverlay,
        "hfc",
        lambda prop: property(tracer.span(prop.fget, "membership.churn.view")),
    )
