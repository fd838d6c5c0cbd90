"""Plan-level conflict-group scheduling.

This is the twin of :mod:`repro.core.shard.estimate`: the same greedy
earliest-round partition, but over a compiled
:class:`~repro.core.engine.plan.BatchPlan`'s ``uv`` index array instead
of :class:`~repro.graph.streams.StreamEdge` objects, plus:

* cost-balanced contiguous worker chunks per round, cut from
  :func:`~repro.core.engine.plan.plan_edge_costs`,
* the round's concatenated per-edge unique context-row catalogue with a
  *contended* mask — context rows shared by two or more edges of the
  same round, whose updates do not commute.

Everything here is a pure function of the plan, the worker count and
the chunk floor.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.core.engine.plan import BatchPlan, plan_edge_costs


class RoundPlan(NamedTuple):
    """One conflict-free round: edges with pairwise-disjoint endpoints.

    - ``edges``: ascending plan edge indices (time order is preserved
      because the greedy partition appends in stream order),
    - ``chunk_bounds``: contiguous ``(start, stop)`` slices of ``edges``,
      one per worker chunk, cost-balanced,
    - ``ctx_rows``: the round's per-edge unique context rows concatenated
      in edge order (each block sorted, as compiled),
    - ``ctx_bounds``: ``(k + 1,)`` offsets of each edge's block within
      ``ctx_rows``,
    - ``ctx_dup_mask``: True where the row value occurs in more than one
      edge's block (contended — excluded from the fused apply),
    - ``contended_edges``: local indices of edges owning at least one
      contended row, in ascending (= edge) order,
    - ``cost``: summed edge costs, for imbalance accounting.
    """

    edges: np.ndarray
    chunk_bounds: Tuple[Tuple[int, int], ...]
    ctx_rows: np.ndarray
    ctx_bounds: np.ndarray
    ctx_dup_mask: np.ndarray
    contended_edges: np.ndarray
    cost: float

    @property
    def num_edges(self) -> int:
        return int(self.edges.size)

    @property
    def num_chunks(self) -> int:
        return len(self.chunk_bounds)


class ShardSchedule(NamedTuple):
    """A full batch schedule: conflict-free rounds plus summary stats."""

    rounds: Tuple[RoundPlan, ...]
    stats: Dict[str, float]

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


def _partition_round_indices(uv: np.ndarray) -> List[List[int]]:
    """Greedy earliest-round partition over the plan's ``(B, 2)`` ids.

    Identical algorithm to
    :func:`repro.core.shard.estimate.partition_conflict_free_rounds`,
    returning edge *indices* so callers can slice plan arrays.
    """
    rounds: List[List[int]] = []
    round_touched: List[set] = []
    next_free: Dict[int, int] = {}
    for b in range(uv.shape[0]):
        u = int(uv[b, 0])
        v = int(uv[b, 1])
        earliest = max(next_free.get(u, 0), next_free.get(v, 0))
        while earliest < len(rounds) and (
            u in round_touched[earliest] or v in round_touched[earliest]
        ):
            earliest += 1
        if earliest == len(rounds):
            rounds.append([])
            round_touched.append(set())
        rounds[earliest].append(b)
        round_touched[earliest].update((u, v))
        next_free[u] = earliest + 1
        next_free[v] = earliest + 1
    return rounds


def _chunk_bounds(
    costs: np.ndarray, workers: int, min_chunk: int
) -> Tuple[Tuple[int, int], ...]:
    """Cost-balanced contiguous chunking of one round's edges.

    At most ``workers`` chunks, none smaller than ``min_chunk`` edges
    (except when the round itself is smaller).  Cut points come from
    searching the cost cumsum for equal-cost targets, so a round whose
    tail edges are hop-heavy still balances.
    """
    k = int(costs.size)
    if k == 0:
        return ()
    n = min(workers, max(1, -(-k // min_chunk)), k)
    if n <= 1:
        return ((0, k),)
    cum = np.cumsum(costs)
    targets = cum[-1] * (np.arange(1, n, dtype=np.float64) / n)
    cuts = np.searchsorted(cum, targets, side="left") + 1
    cuts = np.unique(np.clip(cuts, 1, k - 1))
    points = [0, *cuts.tolist(), k]
    return tuple((points[i], points[i + 1]) for i in range(len(points) - 1))


def build_schedule(
    plan: BatchPlan, workers: int, min_chunk: int = 8
) -> ShardSchedule:
    """Partition ``plan`` into conflict-free rounds chunked for ``workers``.

    The schedule depends only on the plan contents, ``workers`` and
    ``min_chunk`` — chunk *assignment* to pool slots never feeds back
    into it, so execution results merge identically for any pool size
    that runs the same schedule.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if min_chunk < 1:
        raise ValueError(f"min_chunk must be >= 1, got {min_chunk}")
    batch = plan.num_edges
    if batch == 0:
        return ShardSchedule(
            rounds=(),
            stats={
                "edges": 0,
                "rounds": 0,
                "max_round": 0,
                "mean_round": 0.0,
                "chunks": 0,
                "contended_ctx_rows": 0,
                "imbalance": 1.0,
                "parallelism_bound": 1.0,
            },
        )

    costs = plan_edge_costs(plan)
    uniq_offsets = plan.ctx_uniq_offsets
    uniq_counts = np.diff(uniq_offsets)
    uniq_rows = plan.ctx_uniq_rows

    rounds: List[RoundPlan] = []
    total_chunks = 0
    total_contended = 0
    critical_cost = 0.0
    ideal_cost = 0.0
    for indices in _partition_round_indices(plan.uv):
        edges = np.asarray(indices, dtype=np.int64)
        k = int(edges.size)
        round_costs = costs[edges]

        # Gather each edge's unique-context block (CSR slices of the
        # plan catalogue) into one round-local concatenation.
        counts = uniq_counts[edges]
        bounds = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        total = int(bounds[-1])
        if total:
            gather = np.repeat(
                uniq_offsets[edges] - bounds[:-1], counts
            ) + np.arange(total, dtype=np.int64)
            ctx_rows = uniq_rows[gather]
            _, inverse, row_counts = np.unique(
                ctx_rows, return_inverse=True, return_counts=True
            )
            dup_mask = row_counts[inverse] > 1
            if dup_mask.any():
                edge_ids = np.repeat(np.arange(k, dtype=np.int64), counts)
                contended_edges = np.unique(edge_ids[dup_mask])
            else:
                contended_edges = np.empty(0, dtype=np.int64)
        else:
            ctx_rows = np.empty(0, dtype=np.int64)
            dup_mask = np.empty(0, dtype=bool)
            contended_edges = np.empty(0, dtype=np.int64)

        chunk_bounds = _chunk_bounds(round_costs, workers, min_chunk)
        round_cost = float(round_costs.sum())
        chunk_costs = [float(round_costs[s:e].sum()) for s, e in chunk_bounds]
        critical_cost += max(chunk_costs) if chunk_costs else 0.0
        ideal_cost += round_cost / max(1, len(chunk_bounds))
        total_chunks += len(chunk_bounds)
        total_contended += int(dup_mask.sum())
        rounds.append(
            RoundPlan(
                edges=edges,
                chunk_bounds=chunk_bounds,
                ctx_rows=ctx_rows,
                ctx_bounds=bounds,
                ctx_dup_mask=dup_mask,
                contended_edges=contended_edges,
                cost=round_cost,
            )
        )

    sizes = [r.num_edges for r in rounds]
    stats = {
        "edges": batch,
        "rounds": len(rounds),
        "max_round": max(sizes),
        "mean_round": float(np.mean(np.asarray(sizes, dtype=np.float64))),
        "chunks": total_chunks,
        "contended_ctx_rows": total_contended,
        "imbalance": (critical_cost / ideal_cost) if ideal_cost > 0 else 1.0,
        "parallelism_bound": batch / len(rounds),
    }
    return ShardSchedule(rounds=tuple(rounds), stats=stats)
