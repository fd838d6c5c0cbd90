"""Seeded fault injection: the deterministic chaos replay harness.

A :class:`FaultPlan` schedules faults at stream positions drawn from a
:mod:`repro.utils.rng` generator, so a (dataset, seed) pair always
produces the same chaos run.  :class:`ChaosReplayDriver` extends the
plain :class:`~repro.serve.replay.StreamReplayDriver` to execute the
plan while replaying, then **reconciles**: every injected fault must be
accounted for in the queue's deadletter buckets, the service's
``faults.injected.*`` counters, or the driver's own acceptance ledger —
``injected == observed``, per fault type, or the report lists the
mismatches and flags itself unreconciled.

Fault taxonomy (see :data:`FAULT_KINDS`):

``malformed``
    A structurally invalid event (non-integer id, out-of-universe id,
    unknown edge type, NaN timestamp) → must land in the ``malformed``
    deadletter bucket.
``late``
    A timestamp behind the watermark by more than the configured
    ``late_tolerance`` → must land in the ``late event`` bucket.
``duplicate``
    An exact re-send of the last accepted event (same timestamp) →
    must be *accepted* (dedup is not the queue's contract; learning is
    robust to repeats).
``burst``
    ``payload`` copies of the last accepted event offered while
    dispatch is paused — a backpressure spike; overflow sheds must
    equal the ``backpressure`` bucket growth.
``crash``
    The service is dropped on the floor mid-stream and rebuilt via
    :func:`repro.resilience.recovery.recover`; its externally-visible
    tallies are banked first so reconciliation spans process lives.

Accounting across crashes: replayed WAL-suffix events bypass the new
queue's ``put`` (they were already counted before the crash), so
``banked + final`` tallies never double count — provided bursts shed
with ``drop_new`` (the driver's default), which keeps shed events out
of the WAL entirely.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig
from repro.datasets.base import Dataset
from repro.graph.streams import StreamEdge
from repro.resilience.recovery import recover
from repro.serve.replay import StreamReplayDriver
from repro.serve.service import RecommendationService, ServeConfig
from repro.utils.rng import derive_seed, new_rng
from repro.utils.timer import Timer

#: the five injectable fault kinds
FAULT_KINDS = ("malformed", "late", "duplicate", "burst", "crash")

#: malformed-event variants cycled by the plan's payload
_MALFORMED_VARIANTS = 4


@dataclass(frozen=True)
class Fault:
    """One scheduled fault, injected just before stream ``position``.

    ``payload`` is kind-specific: the malformed variant index, the
    late-event extra offset, or the burst size.
    """

    kind: str
    position: int
    payload: int = 0


@dataclass
class FaultPlan:
    """A deterministic schedule of faults over one stream replay."""

    faults: List[Fault] = field(default_factory=list)

    def at(self, position: int) -> List[Fault]:
        """Faults scheduled immediately before stream ``position``."""
        return [f for f in self.faults if f.position == position]

    def injection_counts(self) -> Dict[str, int]:
        """Events each kind will inject (bursts count ``payload`` each)."""
        counts = {kind: 0 for kind in FAULT_KINDS}
        for fault in self.faults:
            counts[fault.kind] += fault.payload if fault.kind == "burst" else 1
        return counts

    @staticmethod
    def parse_spec(spec: str) -> Dict[str, int]:
        """Parse a CLI fault spec like ``"malformed=4,late=3,crash=1"``.

        ``""`` and ``"none"`` mean no faults.  Unknown kinds or
        non-integer counts raise ``ValueError``.
        """
        counts: Dict[str, int] = {}
        spec = spec.strip()
        if not spec or spec == "none":
            return counts
        for part in spec.split(","):
            name, _, value = part.partition("=")
            name = name.strip()
            if name not in FAULT_KINDS:
                raise ValueError(
                    f"unknown fault kind {name!r} (choose from {FAULT_KINDS})"
                )
            try:
                count = int(value)
            except ValueError as exc:
                raise ValueError(
                    f"fault spec {part!r} needs an integer count"
                ) from exc
            if count < 0:
                raise ValueError(f"fault count must be >= 0 in {part!r}")
            counts[name] = counts.get(name, 0) + count
        return counts

    @classmethod
    def seeded(
        cls,
        num_events: int,
        seed: int = 0,
        malformed: int = 0,
        late: int = 0,
        duplicate: int = 0,
        burst: int = 0,
        crash: int = 0,
        burst_size: int = 96,
    ) -> "FaultPlan":
        """Draw a plan with the given per-kind fault counts.

        Positions are distinct and start at 1 so every fault has a
        template event (the last accepted one) to mutate.
        """
        total = malformed + late + duplicate + burst + crash
        if num_events < 2 and total:
            raise ValueError("need at least 2 stream events to inject faults")
        if total > num_events - 1:
            raise ValueError(
                f"{total} faults do not fit in {num_events - 1} injectable "
                "positions"
            )
        # salt the plan's stream away from any model/trainer seed usage
        rng = new_rng(derive_seed(seed, 0xFA017, num_events))
        positions = rng.choice(
            np.arange(1, num_events, dtype=np.int64), size=total, replace=False
        )
        faults: List[Fault] = []
        cursor = 0
        for kind, count in (
            ("malformed", malformed),
            ("late", late),
            ("duplicate", duplicate),
            ("burst", burst),
            ("crash", crash),
        ):
            for _ in range(count):
                position = int(positions[cursor])
                cursor += 1
                if kind == "malformed":
                    payload = int(rng.integers(0, _MALFORMED_VARIANTS))
                elif kind == "late":
                    payload = int(rng.integers(0, 8))
                elif kind == "burst":
                    payload = int(burst_size + rng.integers(0, burst_size // 4 + 1))
                else:
                    payload = 0
                faults.append(Fault(kind=kind, position=position, payload=payload))
        faults.sort(key=lambda f: (f.position, f.kind))
        return cls(faults=faults)


def _malformed_edge(template: StreamEdge, variant: int, num_nodes: int) -> StreamEdge:
    """A structurally invalid mutation of ``template``."""
    variant = variant % _MALFORMED_VARIANTS
    if variant == 0:
        return template._replace(u="not-a-node")  # type: ignore[arg-type]
    if variant == 1:
        return template._replace(v=num_nodes + 7)
    if variant == 2:
        return template._replace(edge_type="no-such-edge-type")
    return template._replace(t=float("nan"))


def inject_event_fault(
    service: RecommendationService, fault: Fault, template: StreamEdge
) -> bool:
    """Offer one ``malformed``/``late``/``duplicate`` fault event.

    Counts it on ``faults.injected.<kind>`` and derives the event from
    ``template`` (the last accepted event); returns whether the service
    accepted it.  A late event sits one second plus ``payload`` behind
    the queue's watermark minus its ``late_tolerance``.
    """
    service.metrics.counter(f"faults.injected.{fault.kind}").inc()
    if fault.kind == "malformed":
        event = _malformed_edge(template, fault.payload, service.dataset.num_nodes)
    elif fault.kind == "late":
        event = template._replace(
            t=service.queue.max_timestamp
            - float(service.config.late_tolerance or 0.0)
            - 1.0
            - float(fault.payload)
        )
    else:  # duplicate: an exact re-send
        event = StreamEdge(*template)
    return service.ingest(event)


def register_fault_counters(service: RecommendationService) -> None:
    """Pre-register every ``faults.injected.<kind>`` counter at zero."""
    for kind in FAULT_KINDS:
        service.metrics.counter(f"faults.injected.{kind}")


def bank_tallies(service: RecommendationService, banked: Dict[str, float]) -> None:
    """Fold a dying service's externally-visible tallies into ``banked``.

    Deadletter buckets and fault counters die with the process, so
    reconciliation that spans process lives sums them here first.
    """
    for category, count in service.queue.reason_counts.items():
        banked[category] = banked.get(category, 0) + count
    for kind in FAULT_KINDS:
        name = f"faults.injected.{kind}"
        banked[name] = banked.get(name, 0) + service.metrics.counter(name).value


@dataclass
class ChaosReport:
    """Everything one chaos run injected, observed and reconciled."""

    dataset: str
    k: int
    num_events: int
    seed: int
    ingest_seconds: float
    events_accepted: int
    num_updates: int
    #: events injected per fault kind (bursts count per event)
    injected: Dict[str, int] = field(default_factory=dict)
    #: what the system recorded, per reconciliation channel
    observed: Dict[str, int] = field(default_factory=dict)
    #: deadletter reason buckets summed across process lives
    deadletter_buckets: Dict[str, int] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    reconciled: bool = False
    parity_users: int = 0
    parity_matches: int = 0
    parity_fraction: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready payload."""
        return {
            "dataset": self.dataset,
            "k": self.k,
            "num_events": self.num_events,
            "seed": self.seed,
            "ingest_seconds": self.ingest_seconds,
            "events_accepted": self.events_accepted,
            "num_updates": self.num_updates,
            "injected": dict(self.injected),
            "observed": dict(self.observed),
            "deadletter_buckets": dict(self.deadletter_buckets),
            "mismatches": list(self.mismatches),
            "reconciled": self.reconciled,
            "parity_users": self.parity_users,
            "parity_matches": self.parity_matches,
            "parity_fraction": self.parity_fraction,
        }

    def write_json(self, path: str) -> str:
        """Persist the report; creates parent directories. Returns path."""
        import json

        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    def summary_rows(self) -> List[Tuple[str, object]]:
        """(name, value) pairs for a printed summary table."""
        rows: List[Tuple[str, object]] = [
            ("dataset", self.dataset),
            ("events replayed", self.num_events),
            ("events accepted", self.events_accepted),
            ("updates applied", self.num_updates),
        ]
        for kind in FAULT_KINDS:
            if self.injected.get(kind):
                rows.append((f"injected {kind}", self.injected[kind]))
        rows.extend(
            [
                ("recoveries", self.observed.get("recoveries", 0)),
                ("replayed events", self.observed.get("replayed_events", 0)),
                ("reconciled", "yes" if self.reconciled else "NO"),
                (
                    f"top-{self.k} parity",
                    f"{self.parity_matches}/{self.parity_users}",
                ),
                ("parity fraction", round(self.parity_fraction, 4)),
            ]
        )
        if self.mismatches:
            rows.append(("mismatches", "; ".join(self.mismatches)))
        return rows


class ChaosReplayDriver(StreamReplayDriver):
    """Replay a dataset's stream while executing a :class:`FaultPlan`.

    Parameters beyond :class:`~repro.serve.replay.StreamReplayDriver`:

    state_dir:
        Directory owning this run's WAL and checkpoints; created (and,
        with ``fresh=True``, wiped of previous chaos state) up front.
        Crash faults recover from exactly these files.
    plan:
        The fault schedule; ``None`` draws a default all-kinds plan
        seeded from ``seed``.
    fresh:
        Remove a previous run's WAL/checkpoints from ``state_dir`` so
        sequence numbers start at 1 (default).  Pass ``False`` only
        when resuming an interrupted chaos run on purpose.

    The driver fills any unset resilience knobs on ``serve_config``
    (``wal_path``, ``checkpoint_dir``, ``checkpoint_every``) and
    requires a ``late_tolerance`` so late faults have a defined
    contract.  The default ``serve_config`` is chaos-sized: small
    batches, small capacity, ``drop_new`` overflow.
    """

    def __init__(
        self,
        dataset: Dataset,
        state_dir: str,
        plan: Optional[FaultPlan] = None,
        k: int = 10,
        serve_config: Optional[ServeConfig] = None,
        model_config: Optional[SUPAConfig] = None,
        train_config: Optional[InsLearnConfig] = None,
        probe_every: int = 64,
        probes_per_checkpoint: int = 2,
        max_parity_users: Optional[int] = None,
        seed: int = 0,
        trace: bool = False,
        fresh: bool = True,
    ):
        serve_config = serve_config or ServeConfig(
            batch_size=32,
            capacity=128,
            overflow="drop_new",
            late_tolerance=0.0,
        )
        if serve_config.late_tolerance is None:
            raise ValueError(
                "chaos replay needs serve_config.late_tolerance set; late "
                "faults are defined relative to it"
            )
        if serve_config.wal_path is None:
            serve_config.wal_path = os.path.join(state_dir, "chaos.wal")
        if serve_config.checkpoint_dir is None:
            serve_config.checkpoint_dir = os.path.join(state_dir, "checkpoints")
        if serve_config.checkpoint_every < 1:
            serve_config.checkpoint_every = 4
        super().__init__(
            dataset,
            k=k,
            serve_config=serve_config,
            model_config=model_config,
            train_config=train_config,
            probe_every=probe_every,
            probes_per_checkpoint=probes_per_checkpoint,
            max_parity_users=max_parity_users,
            seed=seed,
            trace=trace,
        )
        self.seed = seed
        self.state_dir = state_dir
        self.plan = plan
        os.makedirs(state_dir, exist_ok=True)
        if fresh:
            if os.path.exists(serve_config.wal_path):
                os.remove(serve_config.wal_path)
            if os.path.isdir(serve_config.checkpoint_dir):
                shutil.rmtree(serve_config.checkpoint_dir)

    def _default_plan(self, num_events: int) -> FaultPlan:
        return FaultPlan.seeded(
            num_events,
            seed=self.seed,
            malformed=4,
            late=3,
            duplicate=3,
            burst=1,
            crash=1,
            # at least queue capacity, so the burst is guaranteed to
            # overflow and exercise the backpressure accounting
            burst_size=self.serve_config.capacity,
        )

    def build_service(self) -> RecommendationService:
        service = super().build_service()
        register_fault_counters(service)
        return service

    def run(self) -> ChaosReport:  # type: ignore[override]
        """Execute the plan over a full replay; returns the reconciliation."""
        stream = list(self.dataset.stream)
        plan = self.plan or self._default_plan(len(stream))
        injected = plan.injection_counts()
        service = self.build_service()
        users = service.users

        banked: Dict[str, float] = {}
        duplicates_accepted = 0
        burst_accepted = 0
        burst_dropped = 0
        recoveries = 0
        replayed_total = 0
        skipped: Dict[str, int] = {}
        probe_cursor = 0
        last_accepted: Optional[StreamEdge] = None

        timer = Timer()
        with timer:
            for position, edge in enumerate(stream):
                for fault in plan.at(position):
                    kind = fault.kind
                    if kind == "crash":
                        service.metrics.counter("faults.injected.crash").inc()
                        bank_tallies(service, banked)
                        service.close()
                        result = recover(
                            self.dataset,
                            serve_config=self.serve_config,
                            model_config=self.model_config,
                            train_config=self.train_config,
                            trace=self.trace,
                        )
                        service = result.service
                        register_fault_counters(service)
                        recoveries += 1
                        replayed_total += result.replayed_events
                        continue
                    if last_accepted is None:
                        # no template event yet (possible only if event 0
                        # itself was shed); keep the ledger honest
                        weight = fault.payload if kind == "burst" else 1
                        skipped[kind] = skipped.get(kind, 0) + weight
                        continue
                    if kind == "burst":
                        service.queue.pause()
                        for _ in range(fault.payload):
                            service.metrics.counter("faults.injected.burst").inc()
                            if service.ingest(StreamEdge(*last_accepted)):
                                burst_accepted += 1
                            else:
                                burst_dropped += 1
                        service.queue.resume()
                    elif (
                        inject_event_fault(service, fault, last_accepted)
                        and kind == "duplicate"
                    ):
                        duplicates_accepted += 1
                if service.ingest(edge):
                    last_accepted = edge
                if (position + 1) % self.probe_every == 0:
                    for _ in range(self.probes_per_checkpoint):
                        user = int(users[probe_cursor % users.size])
                        probe_cursor += 1
                        service.recommend(user, self.k)
            service.flush()

        # ---------------------------------------------------- reconciliation
        def bucket_total(category: str) -> int:
            return int(
                banked.get(category, 0)
                + service.queue.reason_counts.get(category, 0)
            )

        def counter_total(kind: str) -> int:
            name = f"faults.injected.{kind}"
            return int(banked.get(name, 0) + service.metrics.counter(name).value)

        for kind, count in skipped.items():
            injected[kind] -= count

        buckets = dict(banked)
        for category, count in service.queue.reason_counts.items():
            buckets[category] = buckets.get(category, 0) + count
        buckets = {
            name: int(count)
            for name, count in buckets.items()
            if not name.startswith("faults.injected.")
        }

        mismatches: List[str] = []

        def check(label: str, expected: int, got: int) -> None:
            if expected != got:
                mismatches.append(f"{label}: injected {expected}, observed {got}")

        check("malformed deadletters", injected["malformed"], bucket_total("malformed"))
        check("late deadletters", injected["late"], bucket_total("late event"))
        check(
            "backpressure deadletters", burst_dropped, bucket_total("backpressure")
        )
        check("duplicates accepted", injected["duplicate"], duplicates_accepted)
        check(
            "burst dispositions",
            injected["burst"],
            burst_accepted + burst_dropped,
        )
        check("recoveries", injected["crash"], recoveries)
        for kind in FAULT_KINDS:
            check(f"{kind} counter", injected[kind], counter_total(kind))

        parity_users = self._parity_users(service)
        matches = 0
        for user in parity_users:
            served = service.recommend(int(user), self.k)
            offline = service.offline_top_k(int(user), self.k)
            if np.array_equal(served, offline):
                matches += 1

        return ChaosReport(
            dataset=self.dataset.name,
            k=self.k,
            num_events=len(stream),
            seed=self.seed,
            ingest_seconds=timer.elapsed,
            events_accepted=service.queue.accepted,
            num_updates=int(service.metrics.counter("updates.applied").value),
            injected=injected,
            observed={
                "malformed": bucket_total("malformed"),
                "late": bucket_total("late event"),
                "backpressure": bucket_total("backpressure"),
                "duplicates_accepted": duplicates_accepted,
                "burst_accepted": burst_accepted,
                "burst_dropped": burst_dropped,
                "recoveries": recoveries,
                "replayed_events": replayed_total,
            },
            deadletter_buckets=buckets,
            mismatches=mismatches,
            reconciled=not mismatches,
            parity_users=int(parity_users.size),
            parity_matches=matches,
            parity_fraction=(
                matches / parity_users.size if parity_users.size else 1.0
            ),
        )
