"""Conflict-group scheduling for SUPA's localized updates.

Section IV-H: "To deal with larger dynamic graphs, one can use multiple
GPUs to train SUPA since the update procedure of SUPA is localized."
This package keeps the analysable half of that claim (DESIGN.md §14):

* :mod:`repro.core.shard.estimate` — greedy conflict-free round
  partition over :class:`~repro.graph.streams.StreamEdge` lists and the
  analytical speedup bound.
* :mod:`repro.core.shard.schedule` — the same greedy partition over a
  compiled :class:`~repro.core.engine.plan.BatchPlan`'s index arrays,
  plus cost-balanced chunking and contended-context-row detection.

Nothing here executes updates: training runs on the batched engine.
"""

from repro.core.shard.estimate import (
    estimate_parallel_speedup,
    partition_conflict_free_rounds,
    shard_statistics,
)
from repro.core.shard.schedule import RoundPlan, ShardSchedule, build_schedule

__all__ = [
    "RoundPlan",
    "ShardSchedule",
    "build_schedule",
    "estimate_parallel_speedup",
    "partition_conflict_free_rounds",
    "shard_statistics",
]
