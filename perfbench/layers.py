"""Per-layer metrics derived from a traced run's spans and counters."""

from __future__ import annotations

import bisect
import statistics
from typing import Dict, List

from perfbench import measure

#: span-name prefixes that make up each layer; ``core.plan`` is the
#: engine's plan compiler
LAYERS = {
    "serve.service": ("serve.service",),
    "serve.admission": ("serve.admission",),
    "serve.ingest": ("serve.ingest",),
    "resilience.wal": ("resilience.wal",),
    "resilience.checkpoint": ("resilience.checkpoint",),
    "serve.dispatch": ("serve.dispatch",),
    "core.inslearn": ("core.inslearn",),
    "core.engine": ("core.engine", "core.plan"),
    "serve.store": ("serve.store",),
    "serve.index": ("serve.index",),
}
IDLE = ("bench.idle",)
#: a dispatch round that cut nothing is followed by the worker's wait
IDLE_AFTER = {"serve.dispatch.next": 0}

#: every per-layer metric and its unit, as listed in BENCHMARK.json
PER_LAYER_UNITS = {
    "serve.admission.calls": "count",
    "serve.admission.busy_s": "s",
    "serve.admission.denied_frac": "fraction",
    "serve.ingest.put_busy_s": "s",
    "serve.ingest.depth_p99": "events",
    "serve.ingest.batch_wait_p50_ms": "ms",
    "serve.ingest.batch_wait_p99_ms": "ms",
    "resilience.wal.appends": "count",
    "resilience.wal.busy_s": "s",
    "resilience.wal.bytes": "bytes",
    "resilience.checkpoint.count": "count",
    "resilience.checkpoint.busy_s": "s",
    "resilience.checkpoint.bytes": "bytes",
    "serve.dispatch.batches": "count",
    "serve.dispatch.busy_frac": "fraction",
    "core.inslearn.batches": "count",
    "core.inslearn.busy_s": "s",
    "core.inslearn.passes_per_batch": "passes",
    "core.inslearn.edges_per_s": "edges/s",
    "core.engine.compile_s": "s",
    "core.engine.execute_s": "s",
    "graph.sampling.cache_hit_rate": "fraction",
    "serve.store.publishes": "count",
    "serve.store.publish_busy_s": "s",
    "serve.store.rows_per_publish": "rows",
    "serve.index.topk_calls": "count",
    "serve.index.topk_busy_s": "s",
    "serve.index.hit_ratio": "fraction",
    "serve.index.invalidate_busy_s": "s",
    "serve.index.dropped_per_publish": "entries",
    "serve.service.query_wait_p99_ms": "ms",
    "serve.service.degraded_frac": "fraction",
    "resilience.recovery.recover_s": "s",
    "resilience.recovery.batches_replayed": "count",
    "bench.gen_lag_p99_ms": "ms",
    "bench.unattributed_frac": "fraction",
    "bench.trace_overhead_frac": "fraction",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "bench.wait_s": "s",
}


_LAYER_OF_PREFIX = {prefix: layer for layer, ps in LAYERS.items() for prefix in ps}


def _layer(name: str) -> str:
    prefix = measure.layer_of(name, list(_LAYER_OF_PREFIX))
    return _LAYER_OF_PREFIX.get(prefix, name)


def per_layer(run: dict, log, untraced_cpu: float) -> Dict[str, float]:
    """Per-layer metrics of a traced ``run``; ``untraced_cpu`` is the
    process CPU time of the same workload run without spans.  A
    percentile the samples cannot support is ``None``."""
    # the end-of-run checks query the live service too; keep only the
    # spans of the measured phase (drive, drain and flush)
    spans = [s for s in log.spans if s[3] < run["t_drained"]]
    service, counters, rec = run["service"], run["counters"], run["rec"]
    by_name: Dict[str, List[tuple]] = {}
    for span in spans:
        by_name.setdefault(span[2], []).append(span)

    def busy(name: str) -> float:
        return sum(s[4] - s[3] for s in by_name.get(name, ()))

    def count(name: str) -> int:
        return len(by_name.get(name, ()))

    m: Dict[str, float] = {}
    admission = service.admission
    counts = admission.counts() if admission is not None else {}
    m["serve.admission.calls"] = count("serve.admission.admit")
    m["serve.admission.busy_s"] = busy("serve.admission.admit")
    offered = counts.get("admitted", 0) + counts.get("throttled", 0) + counts.get("shed", 0)
    m["serve.admission.denied_frac"] = (
        (counts["throttled"] + counts["shed"]) / offered if offered else 0.0
    )

    puts = sorted((s for s in by_name.get("serve.ingest.put", ()) if s[9]), key=lambda s: s[4])
    accept_times = [s[4] for s in puts]
    cut_ends = []
    total = 0
    for size in counters.cut_sizes:
        total += size
        cut_ends.append(total)
    depths, waits = [], []
    for i, t in enumerate(accept_times):
        cut = bisect.bisect_right(counters.cut_times, t)
        depths.append(i + 1 - (cut_ends[cut - 1] if cut else 0))
        b = bisect.bisect_right(cut_ends, i)  # first batch whose end covers ordinal i
        if b < len(counters.cut_times):
            waits.append(counters.cut_times[b] - t)
    m["serve.ingest.put_busy_s"] = busy("serve.ingest.put")
    depth_p99 = measure.percentile(depths, 99)
    m["serve.ingest.depth_p99"] = None if depth_p99 is None else float(depth_p99)
    m["serve.ingest.batch_wait_p50_ms"] = measure.ms(measure.percentile(waits, 50))
    m["serve.ingest.batch_wait_p99_ms"] = measure.ms(measure.percentile(waits, 99))

    wal_names = [n for n in by_name if n.startswith("resilience.wal.")]
    m["resilience.wal.appends"] = sum(count(n) for n in wal_names)
    m["resilience.wal.busy_s"] = sum(busy(n) for n in wal_names)
    m["resilience.wal.bytes"] = service.metrics.counter("wal.bytes_appended").value

    m["resilience.checkpoint.count"] = count("resilience.checkpoint.save")
    m["resilience.checkpoint.busy_s"] = busy("resilience.checkpoint.save")
    m["resilience.checkpoint.bytes"] = counters.checkpoint_bytes

    rounds = [s for s in by_name.get("serve.dispatch.next", ()) if s[9]]
    m["serve.dispatch.batches"] = len(rounds)
    dispatch_all = by_name.get("serve.dispatch.next", ())
    window = (max(s[4] for s in dispatch_all) - min(s[3] for s in dispatch_all)) if dispatch_all else 0.0
    m["serve.dispatch.busy_frac"] = sum(s[4] - s[3] for s in rounds) / window if window else 0.0

    reports = counters.train_reports
    train_busy = busy("core.inslearn.train_one_batch")
    m["core.inslearn.batches"] = len(reports)
    m["core.inslearn.busy_s"] = train_busy
    m["core.inslearn.passes_per_batch"] = (
        statistics.mean(r.iterations_run for r in reports) if reports else 0.0
    )
    m["core.inslearn.edges_per_s"] = (
        sum(r.num_train_edges * r.iterations_run for r in reports) / train_busy
        if train_busy else 0.0
    )

    m["core.engine.compile_s"] = busy("core.engine.compile")
    m["core.engine.execute_s"] = busy("core.engine.execute")
    m["graph.sampling.cache_hit_rate"] = service.metrics.gauge("graph.sampling.cache_hit_rate").value

    m["serve.store.publishes"] = count("serve.store.publish")
    m["serve.store.publish_busy_s"] = busy("serve.store.publish")
    rows = counters.publish_rows
    m["serve.store.rows_per_publish"] = statistics.mean(rows) if rows else 0.0

    index = service.index
    m["serve.index.topk_calls"] = count("serve.index.top_k")
    m["serve.index.topk_busy_s"] = busy("serve.index.top_k")
    lookups = index.hits + index.misses
    m["serve.index.hit_ratio"] = index.hits / lookups if lookups else 0.0
    m["serve.index.invalidate_busy_s"] = busy("serve.index.invalidate")
    dropped = counters.dropped
    m["serve.index.dropped_per_publish"] = statistics.mean(dropped) if dropped else 0.0

    # query_call is the whole public call; the program's own query span
    # inside it covers the top_k call and the snapshot pin
    selfs = measure.self_times(spans)
    inner: Dict[int, float] = {}
    for s in by_name.get("serve.service.query", ()):
        if s[1] is not None:
            inner[s[1]] = inner.get(s[1], 0.0) + selfs[s[0]][0]
    queries = by_name.get("serve.service.query_call", ())
    query_wait = [selfs[s[0]][0] + inner.get(s[0], 0.0) for s in queries]
    m["serve.service.query_wait_p99_ms"] = measure.ms(measure.percentile(query_wait, 99))
    m["serve.service.degraded_frac"] = rec.degraded / len(queries) if queries else 0.0

    recovery = run["recovery"]  # None when recovery refused the log
    m["resilience.recovery.recover_s"] = recovery.recovery_seconds if recovery else 0.0
    m["resilience.recovery.batches_replayed"] = recovery.replayed_batches if recovery else 0

    m["bench.gen_lag_p99_ms"] = measure.ms(measure.percentile(rec.lag, 99))
    gap, window = measure.unattributed(spans, IDLE, IDLE_AFTER)
    m["bench.unattributed_frac"] = gap / window if window else 0.0
    m["bench.trace_overhead_frac"] = run["cpu"] / untraced_cpu - 1.0

    self_wall = {layer: 0.0 for layer in LAYERS}
    wait = 0.0
    for span in spans:
        layer = _layer(span[2])
        if layer in self_wall:
            wall, cpu = selfs[span[0]]
            self_wall[layer] += wall
            wait += max(0.0, wall - cpu)
    for layer, seconds in self_wall.items():
        m[f"{layer}.self_s"] = seconds
    m["bench.wait_s"] = wait
    return m
