"""In-memory span recording around the program's public layer calls.

The benchmark never edits the program: :func:`instrument` replaces
bound methods on one service's own objects (queue, WAL, store, index,
trainer, admission controller) with wrappers that time each call, and
:class:`ProgramTracer` receives the spans the program already emits
(``serve.service.*``, ``serve.store.publish``, ``serve.index.invalidate``,
``core.*``).  Spans carry name,
start, end, parent, thread, request id and thread-CPU time; they stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from typing import Callable, Dict, List, Optional

from repro.serve.store import DecayedEmbeddingStore

from perfbench.measure import SPAN_FIELDS

_clock = time.perf_counter
_cpu = time.thread_time


class SpanLog:
    """Thread-safe span recorder (one stack per thread)."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, rid) -> None:
        """Tag spans opened on this thread from now on with ``rid``."""
        self._local.rid = rid

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside span ``name``; return its result."""
        with self.span(name) as span:
            span.result = fn(*args, **kwargs)
            return span.result

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def dump(self, path: str, extra: Dict[str, object]) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans, **extra}, fh)


class _Span:
    """One open span; closing it appends its record to the log.  A bool
    or number left in ``result`` is kept on the record."""

    __slots__ = ("_log", "_name", "_sid", "_parent", "_t0", "_cpu0", "result")

    def __init__(self, log: SpanLog, name: str):
        self._log, self._name, self.result = log, name, None

    def __enter__(self) -> "_Span":
        stack = self._log._stack()
        self._sid = next(self._log._ids)
        self._parent = stack[-1] if stack else None
        stack.append(self._sid)
        self._cpu0, self._t0 = _cpu(), _clock()
        return self

    def __exit__(self, *exc_info) -> None:
        t1, cpu1 = _clock(), _cpu()
        log = self._log
        log._stack().pop()
        result = self.result if isinstance(self.result, (bool, int, float)) else None
        log.spans.append((
            self._sid, self._parent, self._name, self._t0, t1, self._cpu0, cpu1,
            threading.current_thread().name, getattr(log._local, "rid", None), result,
        ))


class ProgramTracer:
    """Stands in for the service's and the model's tracer and records
    their spans in a log.

    The service's ``serve.*`` spans and the engine's ``core.inslearn.*`` /
    ``core.engine.*`` / ``core.plan.*`` spans become log spans.  ``wrap`` returns kernels unwrapped: per-call
    kernel spans would add per-edge overhead to the engine being
    measured, and the engine layer is resolved at compile/execute level.
    """

    enabled = True

    def __init__(self, log: SpanLog, registry) -> None:
        self._log = log
        self.registry = registry

    def span(self, name: str, **attrs):
        return self._log.span(name)

    def wrap(self, name: str, fn):
        return fn


class LayerCounters:
    """What the wrappers record besides spans: publish times and sizes
    and the update path's times on every run; batch cuts, checkpoint
    sizes, invalidation drops and training reports on traced runs."""

    def __init__(self) -> None:
        self.publish_times: List[float] = []
        self.publish_rows: List[int] = []
        self.cut_times: List[float] = []
        self.cut_sizes: List[int] = []
        self.checkpoint_bytes = 0
        self.train_reports: list = []
        self.dropped: List[int] = []
        # the update path of each batch, in order: events trained and
        # wall seconds inside train_one_batch and store.publish
        self.train_sizes: List[int] = []
        self.train_s: List[float] = []
        self.publish_s: List[float] = []

    def update_rates(self) -> List[float]:
        """Events per second of update time, one value per batch."""
        return [n / (t + p) for n, t, p in zip(self.train_sizes, self.train_s, self.publish_s)]


def instrument(service, counters: LayerCounters, log: Optional[SpanLog]) -> None:
    """Wrap the public layer calls of ``service``.

    Untraced (``log is None``) only what the end-to-end metrics need is
    kept: the time each ``store.publish`` returned (freshness) and the
    time spent in ``train_one_batch`` and ``store.publish`` (update
    throughput).  Traced runs also receive the program's own spans
    through :class:`ProgramTracer` and add a span around every other layer
    call named in ``perfbench/README.md``.
    """
    store = service.store
    if not isinstance(store, DecayedEmbeddingStore):
        # the default model decays at inference, and the service then
        # publishes through DecayedEmbeddingStore.publish only
        raise TypeError(f"expected a decayed store, got {type(store).__name__}")
    raw_publish = store.publish

    def publish(rows, *args, **kwargs):
        t0 = _clock()
        snapshot = raw_publish(rows, *args, **kwargs)
        t1 = _clock()
        counters.publish_s.append(t1 - t0)
        counters.publish_times.append(t1)
        counters.publish_rows.append(len(rows))
        return snapshot

    store.publish = publish
    trainer = service.trainer
    untimed_train = trainer.train_one_batch

    def train_timed(batch, batch_index=0):
        t0 = _clock()
        report = untimed_train(batch, batch_index=batch_index)
        counters.train_s.append(_clock() - t0)
        counters.train_sizes.append(len(batch))
        return report

    trainer.train_one_batch = train_timed
    if log is None:
        return
    # the program's own serve.service.{ingest,query,update},
    # serve.store.publish and serve.index.invalidate spans, and the
    # engine's core.* spans
    service.tracer = ProgramTracer(log, service.metrics)
    service.model.tracer = service.tracer

    # the whole public calls: the program's serve.service.ingest and
    # .query spans leave out admission, the degraded-answer checks and
    # the queue-lock wait behind a training batch
    service.ingest = log.wrap("serve.service.ingest_call", service.ingest)
    service.query = log.wrap("serve.service.query_call", service.query)
    service.flush = log.wrap("serve.service.flush", service.flush)
    queue = service.queue
    queue.put = log.wrap("serve.ingest.put", queue.put)
    queue.dispatch_next = log.wrap("serve.dispatch.next", queue.dispatch_next)
    if service.admission is not None:
        service.admission.admit = log.wrap("serve.admission.admit", service.admission.admit)
    wal = service.wal
    if wal is not None:
        for kind in ("accept", "evict", "batch", "shed", "throttle"):
            method = f"append_{kind}"
            setattr(wal, method, log.wrap(f"resilience.wal.{kind}", getattr(wal, method)))
        raw_batch = wal.append_batch

        def append_batch(count):
            counters.cut_times.append(_clock())
            counters.cut_sizes.append(int(count))
            return raw_batch(count)

        wal.append_batch = append_batch
    raw_checkpoint = service.checkpoint

    def checkpoint():
        path = raw_checkpoint()
        if path is not None:
            counters.checkpoint_bytes += os.path.getsize(path)
        return path

    service.checkpoint = log.wrap("resilience.checkpoint.save", checkpoint)
    raw_train = trainer.train_one_batch

    def train_one_batch(batch, batch_index=0):
        log.set_request(f"batch:{batch_index}")
        report = raw_train(batch, batch_index=batch_index)
        counters.train_reports.append(report)
        return report

    trainer.train_one_batch = log.wrap("core.inslearn.train_one_batch", train_one_batch)
    index = service.index
    index.top_k = log.wrap("serve.index.top_k", index.top_k)
    raw_invalidate = index.invalidate

    def invalidate(*args, **kwargs):
        dropped = raw_invalidate(*args, **kwargs)
        counters.dropped.append(int(dropped))
        return dropped

    index.invalidate = invalidate
