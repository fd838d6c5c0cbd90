"""Pure arithmetic behind the benchmark's numbers.

Nothing here reads a clock or touches the program: every function maps
recorded timestamps to a metric, so the benchmark's tests can check each
rule on hand-built inputs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: a percentile is reported only when at least this many samples lie
#: beyond it; p99 therefore needs 1000 samples and p50 needs 20
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when unsupported.

    Supported means ``MIN_TAIL_SAMPLES`` or more samples lie beyond the
    percentile: ``n * (1 - q/100) >= MIN_TAIL_SAMPLES``.
    """
    n = len(values)
    if n == 0 or n * (1.0 - q / 100.0) < MIN_TAIL_SAMPLES - 1e-9:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    return ordered[rank - 1]


def ms(seconds: Optional[float]) -> Optional[float]:
    """Seconds to milliseconds; ``None`` (an unsupported percentile) stays."""
    return None if seconds is None else seconds * 1e3


def freshness(
    due: Sequence[float],
    publish_times: Sequence[float],
    batch_size: int,
    run_end: float,
) -> Tuple[List[float], List[bool]]:
    """Per accepted event: seconds from its due time to its publish.

    ``due[i]`` is the due time of the ``i``-th accepted event and
    ``publish_times[b]`` the time the ``b``-th publish returned.  Batches
    are cut by count over the accepted FIFO, so batch ``b`` holds
    ordinals ``[b*S, (b+1)*S)``; only the last batch (the final flush)
    may be short.  An event whose publish came after ``run_end`` was
    still unpublished when the run ended: its value is the time of the
    publish that the final flush made, and it is flagged as a miss.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    needed = math.ceil(len(due) / batch_size)
    if len(publish_times) != needed:
        raise ValueError(
            f"{len(due)} accepted events need {needed} publishes of "
            f"{batch_size}, got {len(publish_times)}"
        )
    values: List[float] = []
    late: List[bool] = []
    for i, t_due in enumerate(due):
        published = publish_times[i // batch_size]
        values.append(published - t_due)
        late.append(published > run_end)
    return values, late


def step_passes(step: Dict[str, float], batch_size: int) -> bool:
    """A ladder step passes when freshness p99 is within the limit (at
    most 1% of its events were late, counting those still unpublished
    when the run ended), no write was refused, and the queue ended no
    more than one batch deeper than it started (no growing backlog)."""
    return (
        step["late_frac"] <= 0.01
        and step["refused"] == 0
        and step["depth_end"] - step["depth_start"] <= batch_size
    )


def sustained_rate(steps: Sequence[Dict[str, float]], batch_size: int) -> float:
    """Achieved write rate of the highest passing ladder step (0 if none).

    Steps are judged independently: a lower step may fail (the
    count-only batch cut makes freshness worst at low rates) while a
    higher one passes.
    """
    best_rate, achieved = -1.0, 0.0
    for step in steps:
        if step_passes(step, batch_size) and step["rate"] > best_rate:
            best_rate, achieved = step["rate"], step["achieved_rate"]
    return achieved


# ---------------------------------------------------------------- spans

#: span tuple fields, in order (see :class:`perfbench.spans.SpanLog`)
SPAN_FIELDS = (
    "sid", "parent", "name", "start", "end", "cpu_start", "cpu_end",
    "thread", "rid", "result",
)


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[tuple]) -> Dict[int, Tuple[float, float]]:
    """``{sid: (self wall s, self cpu s)}`` for every span.

    Self time is the span's duration minus the part of its interval its
    children cover (children clipped to the parent, overlaps merged).
    CPU self time subtracts the children's thread-CPU time, so wall
    minus CPU is the time the thread waited inside the span itself (for
    the interpreter lock, a program lock or the disk).
    """
    children: Dict[int, List[tuple]] = {}
    for span in spans:
        if span[1] is not None:
            children.setdefault(span[1], []).append(span)
    out: Dict[int, Tuple[float, float]] = {}
    for span in spans:
        sid, start, end = span[0], span[3], span[4]
        kids = children.get(sid, ())
        covered = _union_length(
            (max(k[3], start), min(k[4], end)) for k in kids if k[4] > start and k[3] < end
        )
        kid_cpu = sum(k[6] - k[5] for k in kids)
        out[sid] = (end - start - covered, (span[6] - span[5]) - kid_cpu)
    return out


def layer_of(name: str, layers: Sequence[str]) -> str:
    """The longest layer name that prefixes ``name`` (dot-bounded)."""
    best = ""
    for layer in layers:
        if (name == layer or name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    return best or name


def unattributed(
    spans: Sequence[tuple], idle_names: Sequence[str], idle_after: Dict[str, object]
) -> Tuple[float, float]:
    """``(unattributed s, busy window s)`` summed over threads.

    Per thread the window runs from its first span's start to its last
    span's end.  Idle time is excluded from the window: spans named in
    ``idle_names``, and the gap after a span whose ``(name, result)``
    pair is in ``idle_after`` (a dispatch round that found no batch is
    followed by the worker's wait).  What is left of the window outside
    every top-level span is unattributed.
    """
    by_thread: Dict[str, List[tuple]] = {}
    for span in spans:
        if span[1] is None:
            by_thread.setdefault(span[7], []).append(span)
    gap_total, window_total = 0.0, 0.0
    for top in by_thread.values():
        top.sort(key=lambda s: s[3])
        window = top[-1][4] - top[0][3]
        idle = 0.0
        for i, span in enumerate(top):
            if span[2] in idle_names:
                idle += span[4] - span[3]
            elif idle_after.get(span[2], object()) == span[9] and i + 1 < len(top):
                idle += max(0.0, top[i + 1][3] - span[4])
        covered = _union_length(
            (s[3], s[4]) for s in top if s[2] not in idle_names
        )
        busy = window - idle
        window_total += busy
        gap_total += max(0.0, busy - covered)
    return gap_total, window_total
