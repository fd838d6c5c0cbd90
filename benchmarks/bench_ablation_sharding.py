"""Sharding ablation: the analytic parallel-speedup bound of SUPA updates.

Quantifies the paper's Section IV-H claim that SUPA's localized updates
parallelise across workers.  Each training batch is partitioned into
conflict-free rounds (edges with pairwise-disjoint endpoints commute,
``tests/core/test_locality.py``), and
:func:`repro.core.shard.estimate_parallel_speedup` bounds the speedup
``w`` workers could reach from the resulting critical path.

This is a modelled figure, reported as context only.  A measured
multi-worker executor was tried and deleted: on a 2-CPU host it never
beat the single batched engine end to end (DESIGN.md §14).

Writes ``benchmarks/results/ablation_sharding.txt``.
"""

from __future__ import annotations

from harness import emit, prepare
from repro.core.shard import estimate_parallel_speedup, shard_statistics
from repro.utils.tables import format_table

ESTIMATE_WORKERS = [1, 2, 4, 8, 16]
SCALE = 2.0
BATCH_SIZE = 1024


def run_sharding():
    _, train, _, _ = prepare("kuaishou", scale=SCALE)
    batches = train.sequential_batches(BATCH_SIZE)
    estimate_rows = []
    for workers in ESTIMATE_WORKERS:
        speedups = [
            estimate_parallel_speedup(list(batch), workers) for batch in batches
        ]
        estimate_rows.append([workers, sum(speedups) / len(speedups)])
    return estimate_rows, shard_statistics(list(batches[0]))


def test_sharding_speedup(benchmark):
    estimate_rows, stats = benchmark.pedantic(run_sharding, rounds=1, iterations=1)
    text = format_table(
        ["workers", "mean speedup over batches"],
        estimate_rows,
        title=(
            "Sharding ablation: conflict-free parallel speedup bound "
            f"(first batch: {stats['edges']} edges in {stats['rounds']} rounds)"
        ),
        precision=2,
    )
    emit("ablation_sharding", text)

    # estimator sanity: monotone, >1 beyond one worker
    assert estimate_rows[1][1] > 1.0
    assert all(b[1] >= a[1] - 1e-9 for a, b in zip(estimate_rows, estimate_rows[1:]))
