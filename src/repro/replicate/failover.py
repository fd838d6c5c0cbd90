"""Kill-the-primary chaos: promote a follower, prove nothing was lost.

The :class:`FailoverDriver` is the replication layer's acceptance gate,
built in the image of :class:`~repro.resilience.faults.ChaosReplayDriver`
but spanning *two* nodes.  One seeded plan drives the whole run:

1. A :class:`~repro.replicate.primary.ReplicationPrimary` ingests the
   dataset stream (with seeded ``malformed``/``late``/``duplicate``
   faults riding along) while a bootstrapped
   :class:`~repro.replicate.follower.ReplicationFollower` tails its WAL
   and answers probe reads.
2. At the plan's ``crash`` position the primary is killed abruptly —
   its externally-visible tallies are banked first, exactly like the
   single-node chaos harness — the follower keeps serving reads
   through the outage (counted as ``reads_during_failover``), then
   drains the log and promotes.
3. The promoted follower ingests the rest of the stream, remaining
   faults included, and flushes.
4. A **golden** single-node service replays the identical stream +
   fault sequence uninterrupted.

The gate then demands three things at once:

- **ledger**: every injected fault is accounted for across both lives
  (``injected == observed`` per kind, zero mismatches);
- **state**: the promoted follower's flattened ``state_dict`` is
  bitwise identical to the golden run's (one SHA-256 over every
  parameter array);
- **reads**: the promoted follower's top-K equals the golden run's
  *and* its own brute-force ``offline_top_k`` for every parity user.

Why this must hold: the WAL journals queue decisions, so the follower
replays the primary's exact micro-batch boundaries; promotion inherits
the log and the FIFO residue, so resumed ingest cuts the same
boundaries the uninterrupted run would; and all randomness is seeded
through the shared model/trainer configs.  Any divergence — a dropped
record, a double-applied batch, a residue leak — breaks the SHA or the
ledger and fails the gate.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig
from repro.core.model import SUPA
from repro.datasets.base import Dataset
from repro.graph.streams import StreamEdge
from repro.replicate.config import ReplicationConfig
from repro.replicate.follower import ReplicationFollower
from repro.replicate.primary import ReplicationPrimary
from repro.resilience.checkpoint import _flatten
from repro.resilience.faults import (
    FAULT_KINDS,
    FaultPlan,
    bank_tallies,
    inject_event_fault,
    register_fault_counters,
)
from repro.serve.service import RecommendationService, ServeConfig
from repro.utils.timer import Timer


def state_fingerprint(service: RecommendationService) -> str:
    """SHA-256 over the model's flattened ``state_dict`` arrays.

    Bitwise: two services fingerprint equal iff every parameter and
    optimiser-moment array matches byte for byte.
    """
    flat: Dict[str, np.ndarray] = {}
    _flatten(service.model.state_dict(), "", flat)
    digest = hashlib.sha256()
    for name in sorted(flat):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(flat[name]).tobytes())
    return digest.hexdigest()


@dataclass
class FailoverReport:
    """Everything one failover run injected, observed and reconciled."""

    dataset: str
    k: int
    num_events: int
    seed: int
    #: stream position where the primary was killed (the crash fault)
    kill_position: int
    ingest_seconds: float
    events_accepted: int
    num_updates: int
    #: reads served by the follower between primary death and promotion
    reads_during_failover: int
    #: events injected per fault kind
    injected: Dict[str, int] = field(default_factory=dict)
    #: what the two lives recorded, per reconciliation channel
    observed: Dict[str, int] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)
    reconciled: bool = False
    #: promoted state_dict SHA equals the golden run's
    fingerprint_match: bool = False
    parity_users: int = 0
    #: users whose promoted top-K == golden top-K == offline top-K
    parity_matches: int = 0
    parity_fraction: float = 0.0

    @property
    def passed(self) -> bool:
        """The full gate: ledger + state + reads, all at once."""
        return (
            self.reconciled
            and self.fingerprint_match
            and self.parity_matches == self.parity_users
        )

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready payload."""
        return {
            "dataset": self.dataset,
            "k": self.k,
            "num_events": self.num_events,
            "seed": self.seed,
            "kill_position": self.kill_position,
            "ingest_seconds": self.ingest_seconds,
            "events_accepted": self.events_accepted,
            "num_updates": self.num_updates,
            "reads_during_failover": self.reads_during_failover,
            "injected": dict(self.injected),
            "observed": dict(self.observed),
            "mismatches": list(self.mismatches),
            "reconciled": self.reconciled,
            "fingerprint_match": self.fingerprint_match,
            "parity_users": self.parity_users,
            "parity_matches": self.parity_matches,
            "parity_fraction": self.parity_fraction,
            "passed": self.passed,
        }

    def write_json(self, path: str) -> str:
        """Persist the report; creates parent directories. Returns path."""
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
            ("primary killed at", self.kill_position),
            ("events accepted", self.events_accepted),
            ("updates applied", self.num_updates),
            ("reads during failover", self.reads_during_failover),
        ]
        for kind in FAULT_KINDS:
            if self.injected.get(kind):
                rows.append((f"injected {kind}", self.injected[kind]))
        rows.extend(
            [
                ("ledger reconciled", "yes" if self.reconciled else "NO"),
                (
                    "state fingerprint",
                    "match" if self.fingerprint_match else "MISMATCH",
                ),
                (
                    f"top-{self.k} parity",
                    f"{self.parity_matches}/{self.parity_users}",
                ),
                ("gate", "PASS" if self.passed else "FAIL"),
            ]
        )
        if self.mismatches:
            rows.append(("mismatches", "; ".join(self.mismatches)))
        return rows


class FailoverDriver:
    """One seeded kill-primary → promote-follower → reconcile run.

    Parameters
    ----------
    dataset:
        Stream source shared by primary, follower and golden run.
    state_dir / replica_dir:
        The primary's directory and the promoted follower's; wiped up
        front when ``fresh`` (default) so sequence numbers start at 1.
    serve_config:
        Defaults to the chaos-sized config (small batches, small
        capacity, ``drop_new`` overflow, zero late tolerance); a
        ``late_tolerance`` is required so late faults have a contract.
    model_config / train_config:
        Always pinned to explicit seeded values (the replay-driver
        defaults) — all three services must walk identical stochastic
        paths or the fingerprint check is meaningless.
    malformed / late / duplicate:
        Fault counts for the seeded plan; exactly one ``crash`` is
        always scheduled (the kill).  Bursts are excluded: pause-based
        backpressure on the primary is exercised by the single-node
        chaos suite and would make golden alignment depend on pause
        timing rather than journaled decisions.
    poll_every:
        Follower tail cadence, in ingested events.
    probe_every:
        Read-probe cadence against the follower replica.
    """

    def __init__(
        self,
        dataset: Dataset,
        state_dir: str,
        replica_dir: str,
        k: int = 10,
        serve_config: Optional[ServeConfig] = None,
        model_config: Optional[SUPAConfig] = None,
        train_config: Optional[InsLearnConfig] = None,
        replication: Optional[ReplicationConfig] = None,
        malformed: int = 2,
        late: int = 2,
        duplicate: int = 2,
        poll_every: int = 8,
        probe_every: int = 64,
        failover_probes: int = 4,
        max_parity_users: Optional[int] = 32,
        seed: int = 0,
        fresh: bool = True,
    ):
        if os.path.abspath(state_dir) == os.path.abspath(replica_dir):
            raise ValueError("state_dir and replica_dir must differ")
        if poll_every < 1:
            raise ValueError(f"poll_every must be >= 1, got {poll_every}")
        if probe_every < 1:
            raise ValueError(f"probe_every must be >= 1, got {probe_every}")
        self.dataset = dataset
        self.state_dir = state_dir
        self.replica_dir = replica_dir
        self.k = k
        self.serve_config = serve_config or ServeConfig(
            batch_size=32,
            capacity=128,
            overflow="drop_new",
            late_tolerance=0.0,
            warm_users=8,
        )
        if self.serve_config.late_tolerance is None:
            raise ValueError(
                "failover replay needs serve_config.late_tolerance set; "
                "late faults are defined relative to it"
            )
        self.model_config = model_config or SUPAConfig(
            dim=32, num_walks=2, walk_length=2, seed=seed
        )
        self.train_config = train_config or InsLearnConfig(
            batch_size=self.serve_config.batch_size,
            max_iterations=2,
            validation_interval=1,
            validation_size=25,
            patience=1,
            seed=seed,
        )
        self.replication = replication or ReplicationConfig(
            heartbeat_every=16, checkpoint_every=4
        )
        self.malformed = malformed
        self.late = late
        self.duplicate = duplicate
        self.poll_every = poll_every
        self.probe_every = probe_every
        self.failover_probes = failover_probes
        self.max_parity_users = max_parity_users
        self.seed = seed
        if fresh:
            for directory in (state_dir, replica_dir):
                if os.path.isdir(directory):
                    shutil.rmtree(directory)

    def _parity_users(self, service: RecommendationService) -> np.ndarray:
        users = service.users
        cap = self.max_parity_users
        if cap is None or users.size <= cap:
            return users
        picks = np.linspace(0, users.size - 1, cap).astype(np.int64)
        return users[picks]

    # ------------------------------------------------------------------ run

    def _golden(
        self, stream: List[StreamEdge], plan: FaultPlan, ledger: Dict[str, int]
    ) -> RecommendationService:
        """The uninterrupted single-node reference run: identical stream,
        identical fault sequence (crash excluded), no durability."""
        config = replace(
            self.serve_config,
            wal_path=None,
            checkpoint_dir=None,
            checkpoint_every=0,
            read_only=False,
        )
        model = SUPA.for_dataset(self.dataset, self.model_config)
        service = RecommendationService(
            self.dataset,
            model=model,
            config=config,
            train_config=self.train_config,
        )
        register_fault_counters(service)
        last_accepted: Optional[StreamEdge] = None
        for position, edge in enumerate(stream):
            for fault in plan.at(position):
                if fault.kind == "crash" or last_accepted is None:
                    continue
                if (
                    inject_event_fault(service, fault, last_accepted)
                    and fault.kind == "duplicate"
                ):
                    ledger["duplicates_accepted"] += 1
            if service.ingest(edge):
                last_accepted = edge
        service.flush()
        return service

    def run(self) -> FailoverReport:
        """Execute kill → promote → reconcile; returns the gate report."""
        stream = list(self.dataset.stream)
        plan = FaultPlan.seeded(
            len(stream),
            seed=self.seed,
            malformed=self.malformed,
            late=self.late,
            duplicate=self.duplicate,
            burst=0,
            crash=1,
        )
        injected = plan.injection_counts()
        kill_position = next(
            f.position for f in plan.faults if f.kind == "crash"
        )

        primary = ReplicationPrimary(
            self.dataset,
            self.state_dir,
            serve_config=self.serve_config,
            model_config=self.model_config,
            train_config=self.train_config,
            replication=self.replication,
        )
        register_fault_counters(primary.service)
        follower = ReplicationFollower(
            self.dataset,
            self.state_dir,
            replica_dir=self.replica_dir,
            serve_config=self.serve_config,
            model_config=self.model_config,
            train_config=self.train_config,
            replication=self.replication,
        ).bootstrap()

        banked: Dict[str, float] = {}
        ledger: Dict[str, int] = {"duplicates_accepted": 0}
        skipped: Dict[str, int] = {}
        reads_during_failover = 0
        promotions = 0
        probe_cursor = 0
        last_accepted: Optional[StreamEdge] = None
        users = primary.service.users

        timer = Timer()
        with timer:
            writable = primary.service
            for position, edge in enumerate(stream):
                for fault in plan.at(position):
                    if fault.kind == "crash":
                        # abrupt primary death: bank the dying node's
                        # tallies, keep serving reads off the replica,
                        # then drain + promote
                        writable.metrics.counter("faults.injected.crash").inc()
                        bank_tallies(writable, banked)
                        primary.kill()
                        for _ in range(self.failover_probes):
                            user = int(users[probe_cursor % users.size])
                            probe_cursor += 1
                            follower.recommend(user, self.k)
                            reads_during_failover += 1
                        follower.promote(self.replica_dir)
                        promotions += 1
                        writable = follower.service
                        register_fault_counters(writable)
                        continue
                    if last_accepted is None:
                        skipped[fault.kind] = skipped.get(fault.kind, 0) + 1
                        continue
                    if (
                        inject_event_fault(writable, fault, last_accepted)
                        and fault.kind == "duplicate"
                    ):
                        ledger["duplicates_accepted"] += 1
                if writable.ingest(edge):
                    last_accepted = edge
                if promotions == 0 and (position + 1) % self.poll_every == 0:
                    follower.poll()
                if (position + 1) % self.probe_every == 0:
                    user = int(users[probe_cursor % users.size])
                    probe_cursor += 1
                    follower.recommend(user, self.k)
            if promotions == 0:
                raise RuntimeError(
                    "the seeded plan scheduled no crash inside the stream"
                )
            follower.flush()

        promoted = follower.service
        golden_ledger: Dict[str, int] = {"duplicates_accepted": 0}
        golden = self._golden(stream, plan, golden_ledger)

        # ---------------------------------------------------- reconciliation
        for kind, count in skipped.items():
            injected[kind] -= count

        def bucket_total(category: str) -> int:
            return int(
                banked.get(category, 0)
                + promoted.queue.reason_counts.get(category, 0)
            )

        def counter_total(kind: str) -> int:
            name = f"faults.injected.{kind}"
            return int(
                banked.get(name, 0) + promoted.metrics.counter(name).value
            )

        mismatches: List[str] = []

        def check(label: str, expected: object, got: object) -> None:
            if expected != got:
                mismatches.append(f"{label}: expected {expected}, got {got}")

        check(
            "malformed deadletters",
            injected["malformed"],
            bucket_total("malformed"),
        )
        check("late deadletters", injected["late"], bucket_total("late event"))
        check(
            "duplicates accepted",
            injected["duplicate"],
            ledger["duplicates_accepted"],
        )
        check("promotions", injected["crash"], promotions)
        for kind in ("malformed", "late", "duplicate", "crash"):
            check(f"{kind} counter", injected[kind], counter_total(kind))
        check(
            "accepted ledger (golden vs promoted)",
            golden.queue.accepted,
            promoted.queue.accepted,
        )
        check(
            "updates applied (golden vs promoted)",
            int(golden.metrics.counter("updates.applied").value),
            int(promoted.metrics.counter("updates.applied").value),
        )
        check(
            "duplicates accepted (golden vs promoted)",
            golden_ledger["duplicates_accepted"],
            ledger["duplicates_accepted"],
        )

        fingerprint_match = state_fingerprint(promoted) == state_fingerprint(
            golden
        )

        parity_users = self._parity_users(promoted)
        matches = 0
        for user in parity_users:
            served = promoted.recommend(int(user), self.k)
            reference = golden.recommend(int(user), self.k)
            offline = promoted.offline_top_k(int(user), self.k)
            if np.array_equal(served, reference) and np.array_equal(
                served, offline
            ):
                matches += 1

        report = FailoverReport(
            dataset=self.dataset.name,
            k=self.k,
            num_events=len(stream),
            seed=self.seed,
            kill_position=kill_position,
            ingest_seconds=timer.elapsed,
            events_accepted=promoted.queue.accepted,
            num_updates=int(
                promoted.metrics.counter("updates.applied").value
            ),
            reads_during_failover=reads_during_failover,
            injected=injected,
            observed={
                "malformed": bucket_total("malformed"),
                "late": bucket_total("late event"),
                "duplicates_accepted": ledger["duplicates_accepted"],
                "promotions": promotions,
                "records_shipped": int(
                    follower.tailer.records_read if follower.tailer else 0
                ),
                "bytes_shipped": int(
                    follower.tailer.bytes_read if follower.tailer else 0
                ),
            },
            mismatches=mismatches,
            reconciled=not mismatches,
            fingerprint_match=fingerprint_match,
            parity_users=int(parity_users.size),
            parity_matches=matches,
            parity_fraction=(
                matches / parity_users.size if parity_users.size else 1.0
            ),
        )
        golden.close()
        follower.close()
        return report
