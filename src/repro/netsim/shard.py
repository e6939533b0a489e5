"""Cluster-keyed shard plans and multi-process runs for the event engine.

With every event on one heap, wall-clock — not the overlay — is the scale
ceiling at 100k+ proxies, so :class:`~repro.netsim.eventsim.Simulator`
takes a :class:`ShardPlan` and keeps one event heap per shard. The plan
exploits the containment locality the paper's clustering is built
around: most protocol and traffic messages stay inside a cluster, so
partitioning proxies by *contiguous cluster-id ranges* keeps the
overwhelming majority of deliveries shard-local. This module holds what
the engine needs from outside itself:

* the partition (:func:`partition_contiguous`) and the **lookahead** —
  the minimum physical delay between two proxies on different shards,
  which bounds the engine's conservative windows
  (:func:`lookahead_from_matrix`, :func:`coordinate_lookahead`);
* :class:`ShardPlan`, which carries both plus the zero-copy columnar view
  of every shard;
* :func:`run_sharded`, which runs a shard-confined :class:`ShardProgram`
  on every shard, in this process or with one worker process per shard.
  A worker runs the same engine and the same window loop; only its
  barrier step goes through a pipe to the parent, which merges every
  shard's batch and checks the conservation ledger at the end.
"""

from __future__ import annotations

import math
import multiprocessing
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.netsim.eventsim import (
    DRIVER, Address, OutboxEntry, Simulator, _collector_paused, _ledger,
)
from repro.telemetry import Telemetry
from repro.util.errors import StateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (state imports netsim)
    from repro.state.columnar import ColumnarOverlayState, ColumnarShard

#: longest the parent waits for one message of a live worker; a whole
#: 100k-proxy run (setup + every window) takes about a fifth of this
WORKER_STALL_SECONDS = 600.0


# -- partitioning ---------------------------------------------------------------


def partition_contiguous(sizes: Sequence[int], shards: int) -> List[int]:
    """Greedy contiguous split of *sizes* into *shards* balanced parts.

    Returns cluster boundaries ``[0, b1, ..., C]``. Contiguity is what
    makes the columnar slices zero-copy (cluster-major member rows), so
    the split never reorders clusters: it walks them in id order and cuts
    when a part reaches its share of the remaining weight, always leaving
    at least one cluster per remaining shard.
    """
    count = len(sizes)
    if shards < 1:
        raise StateError(f"need at least one shard, got {shards}")
    if shards > count:
        raise StateError(f"cannot split {count} clusters into {shards} shards")
    bounds = [0]
    remaining = int(sum(sizes))
    cursor = 0
    for part in range(shards, 1, -1):
        target = remaining / part
        acc = 0
        limit = count - (part - 1)  # leave one cluster per later shard
        cut = cursor + 1
        for i in range(cursor, limit):
            acc += int(sizes[i])
            cut = i + 1
            if acc >= target:
                break
        bounds.append(cut)
        remaining -= acc
        cursor = cut
    bounds.append(count)
    return bounds


def lookahead_from_matrix(delays: np.ndarray, row_shard: np.ndarray) -> float:
    """Exact lookahead: the minimum delay between rows on different shards."""
    cross = row_shard[:, None] != row_shard[None, :]
    if not bool(cross.any()):
        return math.inf
    return float(delays[cross].min())


def coordinate_lookahead(state: ColumnarOverlayState, bounds: Sequence[int]) -> float:
    """Coordinate lower bound on the cross-shard delay.

    For synthetic overlays whose delivery delay *is* the coordinate
    distance, the distance between two clusters is at least the distance
    of their centroids minus both radii; the minimum over cross-shard
    cluster pairs bounds every cross-shard delay from below. Raises if
    the bound is not positive (overlapping clusters) — pass an explicit
    lookahead in that case.
    """
    c = state.cluster_count
    centroids = np.zeros((c, state.dimension), dtype=float)
    radius = np.zeros(c, dtype=float)
    for cid in range(c):
        block = state.coords[
            state.cluster_members[
                int(state.cluster_ptr[cid]) : int(state.cluster_ptr[cid + 1])
            ]
        ]
        centroids[cid] = block.mean(axis=0)
        radius[cid] = float(np.linalg.norm(block - centroids[cid], axis=1).max())
    gaps = (
        np.linalg.norm(centroids[:, None, :] - centroids[None, :, :], axis=2)
        - radius[:, None]
        - radius[None, :]
    )
    cluster_shard = np.repeat(np.arange(len(bounds) - 1), np.diff(bounds))
    bound = lookahead_from_matrix(gaps, cluster_shard)
    if bound <= 0.0:
        raise StateError(
            "coordinate lookahead bound is not positive (clusters overlap); "
            "pass an explicit lookahead"
        )
    return bound


@dataclass(frozen=True)
class ShardPlan:
    """A cluster-keyed partition of the overlay plus its lookahead."""

    shards: int
    bounds: Tuple[int, ...]
    lookahead: float
    proxy_shard: Dict[Address, int] = field(repr=False)
    views: Tuple[ColumnarShard, ...] = field(default=(), repr=False)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise StateError(f"need at least one shard, got {self.shards}")
        if self.shards > 1 and not (0.0 < self.lookahead < math.inf):
            raise StateError(
                f"lookahead must be positive and finite for {self.shards} shards, "
                f"got {self.lookahead}"
            )

    def shard_of(self, address: Address) -> int:
        """The shard owning *address* (``DRIVER`` when unpartitioned).

        Tuple addresses (e.g. the traffic engine's ``("traffic", proxy)``
        relays) are resolved through their first partitioned element.
        """
        shard = self.proxy_shard.get(address)
        if shard is not None:
            return shard
        if isinstance(address, tuple):
            for part in address:
                shard = self.proxy_shard.get(part)
                if shard is not None:
                    return shard
        return DRIVER

    def shard_sizes(self) -> List[int]:
        """Proxies per shard, in shard order."""
        sizes = [0] * self.shards
        for shard in self.proxy_shard.values():
            sizes[shard] += 1
        return sizes

    @classmethod
    def from_state(
        cls,
        state: ColumnarOverlayState,
        shards: int,
        *,
        lookahead: Optional[float] = None,
        delay_matrix: Optional[np.ndarray] = None,
    ) -> "ShardPlan":
        """Partition *state* into *shards* contiguous cluster ranges.

        The lookahead comes from, in order of preference: the explicit
        *lookahead* argument, the exact minimum over *delay_matrix*
        (indexed like ``state`` rows), or the coordinate lower bound.
        """
        sizes = np.diff(state.cluster_ptr)
        bounds = partition_contiguous([int(s) for s in sizes], shards)
        views = tuple(state.shard_views(bounds))
        proxy_shard: Dict[Address, int] = {}
        for view in views:
            for proxy in view.proxy_ids():
                proxy_shard[proxy] = view.shard
        if shards == 1:
            la = math.inf
        elif lookahead is not None:
            la = float(lookahead)
        elif delay_matrix is not None:
            row_shard = np.zeros(state.size, dtype=np.int64)
            for view in views:
                row_shard[view.member_rows] = view.shard
            la = lookahead_from_matrix(delay_matrix, row_shard)
        else:
            la = coordinate_lookahead(state, bounds)
        return cls(
            shards=shards,
            bounds=tuple(bounds),
            lookahead=la,
            proxy_shard=proxy_shard,
            views=views,
        )

    @classmethod
    def from_framework(
        cls,
        framework: Any,
        shards: int,
        *,
        lookahead: Optional[float] = None,
    ) -> "ShardPlan":
        """Partition a built framework, with the exact physical lookahead.

        The ground-truth delay matrix prices the minimum cross-shard
        delay exactly, so the conservative windows are as wide as the
        physical topology allows.
        """
        state = framework.columnar
        if lookahead is not None:
            return cls.from_state(state, shards, lookahead=lookahead)
        overlay = framework.overlay
        matrix = overlay.true_delay_matrix()
        # reindex the overlay-ordered matrix into columnar row order
        order = np.array(
            [overlay.index_of(int(p)) for p in state.proxies], dtype=np.int64
        )
        return cls.from_state(
            state, shards, delay_matrix=matrix[np.ix_(order, order)]
        )


class ShardedSimulator(Simulator):
    """:class:`Simulator` under its former ``(plan, telemetry=)`` constructor."""

    def __init__(self, plan: ShardPlan, *, telemetry: Optional[Telemetry] = None) -> None:
        super().__init__(telemetry, plan=plan)


# -- shard-confined programs ----------------------------------------------------


class ShardProgram:
    """A shard-confined workload for :func:`run_sharded`.

    Programs must be picklable (worker processes receive a copy) and must
    only register addresses the plan assigns to the shard being set up,
    and only send to partitioned addresses: worker mode has no driver
    lane, and its engine raises on either.
    """

    def setup(self, sim: Simulator, view: Optional[ColumnarShard], plan: ShardPlan) -> None:
        """Register one shard's processes and schedule its initial events.

        Called once per shard, with new work landing on that shard's lane.
        """
        raise NotImplementedError

    def collect(self, sim: Simulator, shard: int) -> Any:
        """Reduce *shard*'s end state to a (picklable) result."""
        return None


@dataclass
class ShardRunResult:
    """Outcome of a :func:`run_sharded` execution."""

    shards: int
    workers: int
    until: float
    windows: int
    exchanged: int
    events: int
    wall_seconds: float
    results: List[Any]
    conservation: Dict[str, int]
    telemetry: Telemetry


def _run_program(
    sim: Simulator, program: ShardProgram, plan: ShardPlan, shards: Sequence[int], until: float
) -> List[Any]:
    """Set *program* up on each of *shards*, run to *until*, collect per shard."""
    # a set-up registers processes that all survive: nothing for a collection to find
    with _collector_paused():
        for shard in shards:
            with sim._on_shard(shard):
                program.setup(sim, plan.views[shard] if plan.views else None, plan)
        sim.run_until(until)
    return [program.collect(sim, shard) for shard in shards]


def _worker_main(
    conn: Any, program: ShardProgram, shard: int, plan: ShardPlan, until: float
) -> None:
    def swap(outbox: List[OutboxEntry]) -> List[OutboxEntry]:
        conn.send(("window", outbox))
        return conn.recv()

    try:
        sim = Simulator(plan=plan)
        sim._confine(shard, swap)
        (result,) = _run_program(sim, program, plan, [shard], until)
        stats = sim.conservation()
        stats.update(events=sim.events_processed, windows=sim.windows, exchanged=sim.exchanged)
        conn.send(("done", (result, stats, sim.telemetry.registry)))
    except Exception as exc:  # surface worker failures to the parent
        conn.send(("error", f"shard {shard}: {exc}\n{traceback.format_exc()}"))
    finally:
        conn.close()


def run_sharded(
    plan: ShardPlan,
    program: ShardProgram,
    until: float,
    *,
    workers: Optional[int] = None,
    telemetry: Optional[Telemetry] = None,
) -> ShardRunResult:
    """Run *program* on every shard of *plan* for *until* simulated units.

    ``workers=None`` (or 1, or the single-shard case) runs the shards on
    one in-process :class:`Simulator`; otherwise one worker process per
    shard runs its own, confined to that shard, with the parent routing
    the cross-shard batches of every barrier and checking the
    conservation invariant at the end. ``workers`` must equal
    ``plan.shards`` in process mode — shards are the unit of parallelism.
    """
    telemetry = telemetry if telemetry is not None else Telemetry()
    start = perf_counter()
    if workers is None or workers <= 1 or plan.shards == 1:
        workers = 1
        sim = Simulator(telemetry, plan=plan)
        results = _run_program(sim, program, plan, range(plan.shards), until)
        tallies = sim.conservation()
        events, windows, exchanged = sim.events_processed, sim.windows, sim.exchanged
    elif workers != plan.shards:
        raise StateError(
            f"worker mode runs one process per shard: workers={workers} "
            f"must equal shards={plan.shards}"
        )
    else:
        outcomes, stats, registries = zip(*_drive_workers(plan, program, until))
        results = list(outcomes)
        for registry in registries:
            telemetry.registry.merge(registry)
        total = {key: sum(each[key] for each in stats) for key in stats[0]}
        tallies = _ledger(
            *(total[key] for key in ("sent", "duplicated", "delivered", "dropped", "pending"))
        )
        if not tallies["balanced"]:
            raise StateError(f"cross-shard message conservation violated: {tallies}")
        # every worker ran the same windows; each counted the entries it received
        events, windows, exchanged = total["events"], stats[0]["windows"], total["exchanged"]
    return ShardRunResult(
        shards=plan.shards,
        workers=workers,
        until=until,
        windows=windows,
        exchanged=exchanged,
        events=events,
        wall_seconds=perf_counter() - start,
        results=results,
        conservation=tallies,
        telemetry=telemetry,
    )


def _drive_workers(plan: ShardPlan, program: ShardProgram, until: float) -> List[Any]:
    """Run one worker process per shard, routing their outboxes at every
    barrier; returns each worker's ``(result, stats, registry)``."""
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    pipes = [ctx.Pipe() for _ in range(plan.shards)]
    procs = [
        ctx.Process(
            target=_worker_main,
            args=(child, program, shard, plan, until),
            daemon=True,
        )
        for shard, (_, child) in enumerate(pipes)
    ]
    for proc in procs:
        proc.start()
    for _, child in pipes:
        child.close()
    conns = [parent for parent, _ in pipes]

    def _recv(shard: int) -> Tuple[str, Any]:
        # A bare recv() would hang on a wedged worker, and a hard-killed one
        # only shows as EOF once every sibling that inherited its pipe end
        # has exited too — so poll, and look at the process in between.
        conn, proc = conns[shard], procs[shard]
        deadline = perf_counter() + WORKER_STALL_SECONDS
        while not conn.poll(0.2):
            if not proc.is_alive() and not conn.poll(0):
                raise StateError(
                    f"shard {shard} worker died (exit code {proc.exitcode}) "
                    f"without reporting"
                )
            if perf_counter() > deadline:
                raise StateError(
                    f"shard {shard} worker sent nothing for "
                    f"{WORKER_STALL_SECONDS:g} s"
                )
        try:
            tag, payload = conn.recv()
        except EOFError:
            raise StateError(
                f"shard {shard} worker closed its pipe (exit code "
                f"{proc.exitcode}) without reporting"
            ) from None
        if tag == "error":
            raise StateError(f"shard worker failed: {payload}")
        return tag, payload

    try:
        # The workers run the same window loop on the same plan, so they
        # reach every barrier — and the end — in the same round.
        while True:
            replies = [_recv(shard) for shard in range(plan.shards)]
            tags = {tag for tag, _ in replies}
            if tags != {"window"}:
                break
            entries = sorted(entry for _, outbox in replies for entry in outbox)
            inboxes: List[List[OutboxEntry]] = [[] for _ in range(plan.shards)]
            for entry in entries:
                inboxes[plan.shard_of(entry[3].recipient)].append(entry)
            for conn, inbox in zip(conns, inboxes):
                conn.send(inbox)
        if tags != {"done"}:  # pragma: no cover - protocol guard
            raise StateError(f"shard workers fell out of step: {sorted(tags)}")
    except BaseException:
        # the survivors are blocked on an inbox that will never come
        for proc in procs:
            proc.terminate()
        raise
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.join(timeout=30)
            if proc.is_alive():  # pragma: no cover - hang guard
                proc.terminate()
    return [payload for _, payload in replies]
