"""Correctness checks every benchmark run must pass.

Each check returns a list of failure messages (empty = passed), so a run
reports every broken property instead of stopping at the first.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

import numpy as np

from repro.replicate.failover import state_fingerprint
from repro.resilience.recovery import RecoveryError, fold_queue_log, recover
from repro.resilience.wal import decision_ledger, iter_records
from repro.serve.service import ServeConfig


def offline_parity(
    recommend: Callable[[int, int], np.ndarray],
    offline: Callable[[int, int], np.ndarray],
    users: Sequence[int],
    k: int,
) -> List[str]:
    """After ``flush()`` the served top-K equals the offline ranking."""
    for user in users:
        served = [int(i) for i in recommend(int(user), k)]
        expected = [int(i) for i in offline(int(user), k)]
        if served != expected:
            return [f"offline parity: user {user} served {served[:3]}... "
                    f"but the offline ranking is {expected[:3]}..."]
    return []


def ledger_reconciles(wal_path: str, deadletters_by_reason: Dict[str, int]) -> List[str]:
    """Admission decisions journaled in the WAL equal the queue's
    deadletter tallies, category by category (the reason text before
    ``:``).  A deadletter the WAL never journaled, or a journaled
    denial the queue never saw, fails."""
    journaled: Dict[str, int] = {}
    for bucket in decision_ledger(wal_path).values():
        for reason, count in bucket.items():
            category = reason.split(":", 1)[0]
            journaled[category] = journaled.get(category, 0) + count
    seen = {c: n for c, n in deadletters_by_reason.items() if n}
    if journaled != seen:
        return [f"ledger: WAL journaled {journaled} but the queue deadlettered {seen}"]
    return []


def wal_accounts_for(wal_path: str, accepted: int) -> List[str]:
    """Every accepted event is journaled and, after the flush, trained."""
    state = fold_queue_log(iter_records(wal_path))
    failures = []
    if state.accepted != accepted:
        failures.append(f"wal: {state.accepted} accept records for {accepted} accepted events")
    if len(state.trained) != state.accepted or state.fifo:
        failures.append(
            f"wal: {len(state.trained)} of {state.accepted} journaled events trained, "
            f"{len(state.fifo)} left buffered after the flush"
        )
    return failures


def recovery_parity(live, serve_config: ServeConfig, users: Sequence[int], k: int):
    """``recover()`` from the run's WAL and checkpoints rebuilds the live
    (flushed, closed) service bitwise: same state fingerprint, same
    served top-K.  Recovery replays inline; pointed at an empty
    checkpoint directory it replays every batch of the WAL, so after an
    asynchronously dispatched run it is the async/inline parity check.

    Returns ``(failures, recovery_result)``; the recovered service is
    closed before returning.  A log recovery refuses is a failure with
    no result.
    """
    try:
        result = recover(live.dataset, serve_config)
    except RecoveryError as exc:
        return [f"recovery: {exc}"], None
    twin = result.service
    try:
        failures = []
        live_fp, twin_fp = state_fingerprint(live), state_fingerprint(twin)
        if live_fp != twin_fp:
            failures.append(f"recovery: fingerprint {twin_fp[:12]} != live {live_fp[:12]}")
        failures += [
            f.replace("offline parity", "recovery top-K", 1)
            for f in offline_parity(twin.recommend, live.recommend, users, k)
        ]
        return failures, result
    finally:
        twin.close()
