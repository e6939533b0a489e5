"""The padded staircase chain kernels: the row layout the ragged kernel of
``routing/batch.py`` replaced in the CSP stage and the conquer, kept as a
differential oracle for chains (it has no branching rows).

Every slot of a call is padded to the call's widest candidate list and the
rows are walked longest chain first in blocks of ``_BLOCK_ROWS``; padding
lanes sit after the real candidates carrying ``inf`` labels, so a
first-occurrence ``argmin`` over the padded axis picks what the ragged
segment argmin picks. :class:`PaddedCspRouter` is the production router with
both chain kernels swapped for these.
"""

from itertools import chain, islice
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.coords.space import CoordinateSpace
from repro.overlay.network import ProxyId
from repro.routing.batch import (
    ChildCandidates,
    child_infeasible_error,
    child_specs,
    query_tables,
)
from repro.routing.hierarchical import (
    _NO_CONFIGURATION,
    ClusterServicePath,
    HierarchicalRouter,
    _CspJob,
    _CspOutcome,
)
from repro.routing.providers import CoordinateProvider
from repro.services.catalog import ServiceName
from repro.util.errors import NoFeasiblePathError
from tests.oracles.csp import child_hops
from tests.oracles.servicedag import solve_child_spec

#: rows per padded kernel pass
_BLOCK_ROWS = 128


def padded(rows: Sequence[Sequence[Any]], dtype: Any = np.int64) -> Tuple[np.ndarray, np.ndarray]:
    """*rows* as one zero-padded matrix (at least one lane wide) and its validity mask."""
    lens = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    mask = np.arange(max(1, int(lens.max(initial=0))))[None, :] < lens[:, None]
    matrix = np.zeros(mask.shape, dtype=dtype)
    matrix[mask] = list(chain.from_iterable(rows))
    return matrix, mask


def staircase(lengths: Sequence[int]) -> List[List[int]]:
    """Row positions longest chain first, cut into blocks of ``_BLOCK_ROWS``:
    inside a block chain position *t* relaxes only the prefix of rows that
    reach it."""
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)
    return [order[at : at + _BLOCK_ROWS] for at in range(0, len(order), _BLOCK_ROWS)]


def backtrack(
    parents: List[np.ndarray], winner: np.ndarray, last: np.ndarray, alive: List[int]
) -> np.ndarray:
    """The lane chosen at every position of every row of a staircase block:
    ``parents[t - 1]`` holds, for the ``alive[t]`` rows reaching position *t*,
    each lane's best predecessor lane; *winner* is each row's best lane at its
    own position ``last``."""
    rows = np.arange(len(winner))
    lanes = np.zeros((len(winner), len(alive)), dtype=np.int64)
    lanes[rows, last] = winner
    for t in range(len(alive) - 2, -1, -1):
        n = alive[t + 1]
        lanes[:n, t] = parents[t][rows[:n], lanes[:n, t + 1]]
    return lanes


def _internal_segments(
    d_border: np.ndarray, entry: np.ndarray, exit_codes: np.ndarray
) -> np.ndarray:
    """``d_border[entry, exit]`` per label: zero where the entry border is
    unknown (code -1) or is the exit border itself."""
    segments = d_border[np.where(entry < 0, 0, entry), np.where(exit_codes < 0, 0, exit_codes)]
    return np.where((entry < 0) | (entry == exit_codes), 0.0, segments)


def solve_specs_padded(
    children: Sequence[Any],
    candidates: Sequence[ChildCandidates],
    provider: Any,
    *,
    space: Optional[CoordinateSpace] = None,
) -> List[Any]:
    """The padded staircase conquer kernel: per child, the proxies picked
    for its slots or its error."""
    picks: List[Any] = [()] * len(children)
    if space is None:
        for i, (child, cands) in enumerate(zip(children, candidates)):
            try:
                picks[i] = solve_child_spec(child, cands, provider)
            except NoFeasiblePathError as err:
                picks[i] = err
        return picks
    chains = [i for i, cands in enumerate(candidates) if cands]
    code: Dict[Tuple[ProxyId, ...], int] = {}
    for i in chains:
        for cands in candidates[i]:
            code.setdefault(cands, len(code))
    provider_rows, provider_mask = padded([space.rows(cands) for cands in code])
    stacked, lane = space.stacked, np.arange(provider_rows.shape[1])
    for block in staircase([len(candidates[i]) for i in chains]):
        idxs = [chains[m] for m in block]
        slot_code, live = padded([[code[cands] for cands in candidates[i]] for i in idxs])
        alive, last = live.sum(axis=0).tolist(), live.sum(axis=1) - 1
        valid, coords = provider_mask[slot_code], stacked[provider_rows[slot_code]]
        src = stacked[space.rows(children[i].source_proxy for i in idxs)]
        dst = stacked[space.rows(children[i].destination_proxy for i in idxs)]

        diff = coords[:, 0] - src[:, None, :]
        labels = np.sqrt(np.einsum("bck,bck->bc", diff, diff))
        labels[~valid[:, 0]] = np.inf
        parents: List[np.ndarray] = []
        rows = np.arange(len(idxs))[:, None]
        for t in range(1, len(alive)):
            n = alive[t]
            diff = coords[:n, t - 1, :, None, :] - coords[:n, t, None, :, :]
            via = labels[:n, :, None] + np.sqrt(np.einsum("bpck,bpck->bpc", diff, diff))
            best_pred = np.argmin(via, axis=1)
            labels[:n] = np.where(valid[:n, t], via[rows[:n], best_pred, lane], np.inf)
            parents.append(best_pred)
        diff = coords[rows[:, 0], last] - dst[:, None, :]
        totals = labels + np.sqrt(np.einsum("bck,bck->bc", diff, diff))
        winner = np.argmin(totals, axis=1)
        feasible = np.isfinite(totals[rows[:, 0], winner]).tolist()
        lanes = backtrack(parents, winner, last, alive).tolist()
        for i, ok, picked in zip(idxs, feasible, lanes):
            picks[i] = (
                [cands[j] for cands, j in zip(candidates[i], picked)]
                if ok
                else child_infeasible_error(children[i])
            )
    return picks


class PaddedCspRouter(HierarchicalRouter):
    """The production pipeline with both chain kernels padded."""

    def _solve_csps(
        self, jobs: Sequence[_CspJob], offering: Dict[ServiceName, List[int]]
    ) -> List[_CspOutcome]:
        assert all(job[0].is_linear for job in jobs), "the padded kernel has chains only"
        jobs = [job[1:] for job in jobs]
        if not jobs:
            return []
        view = self._view
        tables = query_tables(view)
        ext, border_row, d_border = tables.ext, tables.border_row, tables.d_border
        with_internal = self.method == "backtrack" and len(tables.border_list) > 0
        code = {service: at for at, service in enumerate(offering)}
        clusters, offered = padded(list(offering.values()))
        lane = np.arange(clusters.shape[1])
        chains = [order for order, *_ in jobs]
        results: List[Optional[_CspOutcome]] = [None] * len(jobs)
        for members in staircase([len(chain) for chain in chains]):
            slot_code, live = padded([[code[service] for service in jobs[j][1]] for j in members])
            alive, last = live.sum(axis=0).tolist(), live.sum(axis=1) - 1
            cand, vmask = clusters[slot_code], offered[slot_code]
            destinations = [jobs[j][4] for j in members]
            cds = [view.cluster_of(pd) for pd in destinations]
            cs_arr = np.array([jobs[j][2] for j in members], dtype=np.int64)[:, None]

            k0 = cand[:, 0]
            at_home = k0 == cs_arr
            labels = np.where(at_home, 0.0, ext[cs_arr, k0])
            labels[~vmask[:, 0]] = np.inf
            entry = np.where(at_home, -1, border_row[k0, cs_arr])
            parents: List[np.ndarray] = []
            at = np.arange(len(members))[:, None]
            for t in range(1, len(alive)):
                n = alive[t]
                kp, kc = cand[:n, t - 1, :, None], cand[:n, t, None, :]
                label, ent = labels[:n, :, None], entry[:n, :, None]
                same = kp == kc
                costs = label + ext[kp, kc]
                if with_internal:
                    costs = costs + _internal_segments(d_border, ent, border_row[kp, kc])
                costs = np.where(same, label, costs)
                entries = np.where(same, ent, border_row[kc, kp])
                win = np.argmin(costs, axis=1)
                entry[:n] = entries[at[:n], win, lane]
                labels[:n] = np.where(vmask[:n, t], costs[at[:n], win, lane], np.inf)
                parents.append(win)

            # the production sink reads entry codes shifted by one (0 = none)
            totals = self._sink(
                tables, labels, entry + 1, cand[at[:, 0], last], cds, destinations
            )
            winner = np.argmin(totals, axis=1)
            bounds = totals[at[:, 0], winner].tolist()
            lanes = backtrack(parents, winner, last, alive)
            chosen = cand[at, np.arange(len(alive)), lanes].tolist()
            for j, cd, bound, picked in zip(members, cds, bounds, chosen):
                results[j] = (
                    NoFeasiblePathError(_NO_CONFIGURATION)
                    if bound == float("inf")
                    else ClusterServicePath(tuple(zip(chains[j], picked)), jobs[j][2], cd, bound)
                )
        return results  # type: ignore[return-value]

    def _conquer(self, children):
        flat = iter(child_specs(self.hfc, children))
        picks = solve_specs_padded(
            children,
            [tuple(islice(flat, len(child.slots))) for child in children],
            self._provider,
            space=self.hfc.space
            if isinstance(self._provider, CoordinateProvider)
            else None,
        )
        return [
            picked if isinstance(picked, NoFeasiblePathError) else child_hops(child, picked)
            for child, picked in zip(children, picks)
        ]
