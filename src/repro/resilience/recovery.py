"""Crash recovery: newest valid checkpoint + WAL-suffix replay.

:func:`recover` rebuilds a :class:`~repro.serve.service.RecommendationService`
whose learned state is **bitwise identical** to the crashed process at
its last journaled decision — the same golden-parity discipline as
``tests/core/test_engine_parity.py``.  The argument, step by step:

1. The WAL (:mod:`repro.resilience.wal`) is the queue's decision log:
   ``accept``/``evict``/``batch`` records written *before* each state
   change.  Replaying it reconstructs the exact FIFO evolution of the
   queue — in particular the exact micro-batch boundaries the trainer
   saw, independent of when pauses or flushes happened to trigger
   dispatch.  (Ledger-only kinds — ``heartbeat`` liveness stamps and
   the ``shed``/``throttle`` admission decisions — fold to a no-op:
   they audit what was *denied*, which by construction never touched
   queue or model state.)
2. Rebuilding the graph consumes no randomness: ``SUPA.observe`` only
   inserts edges and ticks the (degree-derived, RNG-free) negative
   sampler's refresh schedule.  Observing the trained prefix therefore
   reproduces graph, caches-by-invalidation and sampler tables exactly.
3. All training randomness flows through exactly two generators —
   ``model.rng`` (walk/negative sampling) and the trainer's validation
   RNG — whose full PCG64 states live in the checkpoint.  Restoring
   ``state_dict`` + both RNG states puts the model on the identical
   stochastic path.
4. Replaying the post-checkpoint ``batch`` records through
   ``train_one_batch`` with the restored ``updates_applied`` as
   ``batch_index`` then re-derives every post-checkpoint update
   bit-for-bit; the surviving FIFO tail is preloaded back into the
   queue as residue.

With no usable checkpoint, recovery degrades gracefully to replaying
the *entire* WAL from a fresh model — slower, same parity guarantee.
The WAL is streamed (:func:`~repro.resilience.wal.iter_records`), never
materialised whole, and each micro-batch is replayed as soon as its
``batch`` record is folded, so recovery memory is bounded by the
*learned* state plus the queue residue, not the log length.

This module is the one place that knows how a WAL record changes the
queue (:meth:`QueueLogState.apply`) and how a checkpoint plus a WAL
prefix become a service (:func:`restore_service`, then
:func:`resume_queue` to hand the residue back to the queue).  The
replication follower (:mod:`repro.replicate.follower`) bootstraps,
tails and promotes through the same three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig
from repro.core.model import SUPA
from repro.datasets.base import Dataset
from repro.graph.streams import EdgeStream, StreamEdge
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.wal import LEDGER_ONLY_KINDS, WalRecord, iter_records
from repro.serve.service import RecommendationService, ServeConfig
from repro.utils.timer import Timer


class RecoveryError(RuntimeError):
    """The WAL and checkpoint disagree in a way replay cannot reconcile."""


@dataclass
class RecoveryResult:
    """What :func:`recover` rebuilt, plus replay accounting."""

    service: RecommendationService
    #: WAL position of the checkpoint recovery started from (0 = none)
    checkpoint_seq: int
    #: accept records re-applied from the WAL suffix
    replayed_events: int
    #: micro-batches re-trained from the WAL suffix
    replayed_batches: int
    #: events restored into the queue buffer (accepted, never trained)
    residue_events: int
    #: torn/corrupt trailing records the WAL scan dropped
    torn_records_dropped: int
    #: wall-clock seconds the whole recovery took
    recovery_seconds: float


@dataclass
class QueueLogState:
    """FIFO evolution folded out of a WAL, one record at a time.

    :meth:`apply` is the one fold rule: :func:`fold_queue_log`,
    :func:`recover` and the replication follower all advance a queue
    log through it.
    """

    #: events handed to the trainer, in micro-batch order — collected by
    #: :func:`fold_queue_log` only; :meth:`apply` hands each chunk to its
    #: caller instead, so a long-lived fold holds just the residue
    trained: List[StreamEdge] = field(default_factory=list)
    #: events accepted but still buffered (the queue residue)
    fifo: List[StreamEdge] = field(default_factory=list)
    #: total ``accept`` records folded (ledger accounting)
    accepted: int = 0
    #: newest accepted-event timestamp (late-arrival watermark)
    watermark: float = float("-inf")
    #: sequence number of the newest record folded (0 = none)
    last_seq: int = 0

    def apply(self, record: WalRecord) -> Optional[List[StreamEdge]]:
        """Fold one record; returns the dispatched chunk of a ``batch``.

        Returns ``None`` for every other kind.  Ledger-only kinds only
        advance ``last_seq``.  A record that contradicts the queue (an
        evict that is not the head, a batch larger than the buffer)
        raises :class:`RecoveryError` and leaves the state unchanged.
        """
        chunk = None
        if record.kind in LEDGER_ONLY_KINDS:
            pass  # a liveness stamp or an audited denial: no queue change
        elif record.kind == "accept":
            self.fifo.append(record.edge)
            self.accepted += 1
            self.watermark = max(self.watermark, record.edge.t)
        elif record.kind == "evict":
            if not self.fifo or self.fifo[0] != record.edge:
                raise RecoveryError(
                    f"evict record #{record.seq} does not match the queue head"
                )
            self.fifo.pop(0)
        else:  # batch
            if record.count > len(self.fifo):
                raise RecoveryError(
                    f"batch record #{record.seq} dispatches {record.count} "
                    f"events but only {len(self.fifo)} are buffered"
                )
            chunk = self.fifo[: record.count]
            del self.fifo[: record.count]
        self.last_seq = record.seq
        return chunk


def fold_queue_log(
    records: Iterable[WalRecord], upto_seq: Optional[int] = None
) -> QueueLogState:
    """Fold queue decisions up to ``upto_seq`` into a :class:`QueueLogState`.

    Accepts any record iterable — a :func:`~repro.resilience.wal.iter_records`
    stream or an in-memory list — and stops without exhausting it once
    ``upto_seq`` is passed.  Collects every dispatched chunk in
    ``trained``.
    """
    state = QueueLogState()
    for record in records:
        if upto_seq is not None and record.seq > upto_seq:
            break
        chunk = state.apply(record)
        if chunk is not None:
            state.trained.extend(chunk)
    return state


def restore_service(
    dataset: Dataset,
    serve_config: ServeConfig,
    wal_path: str,
    checkpoint_dir: str,
    model_config: Optional[SUPAConfig] = None,
    train_config: Optional[InsLearnConfig] = None,
    trace: bool = False,
) -> Tuple[RecommendationService, QueueLogState]:
    """Bring a service up at the newest valid checkpoint of a log.

    Folds the WAL prefix the checkpoint covers, cross-checks it against
    the checkpoint's residue and node universe, re-observes the trained
    prefix, restores the learned state and both RNG streams, and builds
    the service on ``serve_config`` at the checkpoint's clock and update
    count.  With no checkpoint the service is fresh and the fold empty.
    Returns the service and the fold positioned at the checkpoint's
    ``seq``; the caller continues the suffix through
    :meth:`QueueLogState.apply`.  Every cross-check runs before the
    service (and so its WAL, if configured) exists.
    """
    ckpt = CheckpointManager(
        checkpoint_dir, retain=serve_config.checkpoint_retain
    ).latest()
    base_seq = ckpt.seq if ckpt is not None else 0
    if ckpt is not None and ckpt.num_nodes and ckpt.num_nodes != dataset.num_nodes:
        raise RecoveryError(
            f"checkpoint was taken over {ckpt.num_nodes} nodes but "
            f"the dataset has {dataset.num_nodes}"
        )
    # rebuilding the graph consumes no RNG: observe each trained chunk as
    # the fold cuts it, then restore state and RNG streams on top
    model = SUPA.for_dataset(dataset, model_config)
    log = QueueLogState()
    for record in iter_records(wal_path):
        if record.seq > base_seq:
            break
        for edge in log.apply(record) or ():
            model.observe(edge.u, edge.v, edge.edge_type, edge.t)
    if log.last_seq < base_seq:
        raise RecoveryError(
            f"WAL ends at seq {log.last_seq} but the newest checkpoint "
            f"covers seq {base_seq} (log truncated?)"
        )
    if ckpt is not None:
        if list(ckpt.residue) != log.fifo:
            raise RecoveryError(
                "checkpoint residue disagrees with the WAL prefix "
                f"({len(ckpt.residue)} vs {len(log.fifo)} buffered events)"
            )
        model.load_state_dict(ckpt.model_state)
        model.rng.bit_generator.state = ckpt.model_rng_state
    service = RecommendationService(
        dataset,
        model=model,
        config=serve_config,
        train_config=train_config,
        trace=trace,
        initial_clock=ckpt.clock if ckpt is not None else 0.0,
    )
    if ckpt is not None:
        service.trainer.set_rng_state(ckpt.trainer_rng_state)
    service.restore_runtime(
        updates_applied=ckpt.updates_applied if ckpt is not None else 0
    )
    return service, log


def resume_queue(service: RecommendationService, log: QueueLogState) -> None:
    """Hand a folded queue log to a live service's queue.

    Preloads the surviving residue and continues the accepted-event
    accounting across process lives: every accept record in the log was
    an acceptance this service inherits.
    """
    if log.fifo:
        service.queue.preload(log.fifo)
    service.queue.restore_accounting(
        accepted=log.accepted, max_timestamp=log.watermark
    )
    service.metrics.counter("ingest.accepted").set(service.queue.accepted)
    service.metrics.gauge("queue.pending").set(service.queue.pending)


def recover(
    dataset: Dataset,
    serve_config: ServeConfig,
    model_config: Optional[SUPAConfig] = None,
    train_config: Optional[InsLearnConfig] = None,
    trace: bool = False,
) -> RecoveryResult:
    """Rebuild the service from ``serve_config``'s WAL + checkpoints.

    ``model_config`` / ``train_config`` must match the crashed process's
    (recovery re-derives, it does not store hyper-parameters); omitted
    values fall back to the same defaults ``RecommendationService``
    itself would use.
    """
    if serve_config.wal_path is None or serve_config.checkpoint_dir is None:
        raise ValueError(
            "serve_config must set wal_path and checkpoint_dir to recover"
        )
    timer = Timer()
    with timer:
        # the service reopens the WAL self-repairing: it truncates a torn
        # tail (counted in torn_records_dropped) and appends after it
        service, log = restore_service(
            dataset,
            serve_config,
            serve_config.wal_path,
            serve_config.checkpoint_dir,
            model_config,
            train_config,
            trace,
        )
        checkpoint_seq, accepted_before = log.last_seq, log.accepted
        # replay the post-checkpoint suffix: batches retrain as they are
        # cut, evicts pop (their deadletters were the dead process's)
        replayed_batches = 0
        try:
            with service.resilience_suspended():
                for record in iter_records(
                    serve_config.wal_path, from_seq=checkpoint_seq + 1
                ):
                    chunk = log.apply(record)
                    if chunk is not None:
                        service.apply_recovered_batch(EdgeStream(chunk))
                        replayed_batches += 1
        except RecoveryError:
            service.close()
            raise
        replayed_events = log.accepted - accepted_before
        resume_queue(service, log)
        service.metrics.counter("recovery.replayed_events").inc(replayed_events)
        service.warm_cache()
    return RecoveryResult(
        service=service,
        checkpoint_seq=checkpoint_seq,
        replayed_events=replayed_events,
        replayed_batches=replayed_batches,
        residue_events=len(log.fifo),
        torn_records_dropped=service.wal.torn_records_dropped,
        recovery_seconds=timer.elapsed,
    )
