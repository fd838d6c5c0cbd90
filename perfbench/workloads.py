"""The three workloads and the driver that runs them.

Every input is made from the ``--seed`` argument: the dataset, the
arrival schedule and the read mix.  The program only receives the
generated events and requests through its public calls.  See
``perfbench/README.md`` for why each workload exists and which layers
it stresses.
"""

from __future__ import annotations

import hashlib
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.datasets.synthetic import BehaviorSpec, SyntheticConfig, generate
from repro.obs.loadgen import ArrivalProcess
from repro.replicate.failover import state_fingerprint
from repro.serve.admission import AdmissionConfig
from repro.serve.service import RecommendationService, ServeConfig
from repro.utils.rng import derive_seed

from perfbench import checks, measure
from perfbench.spans import LayerCounters, SpanLog, instrument

clock = time.perf_counter

#: freshness limit a serve_mixed ladder step must meet at p99
FRESHNESS_LIMIT_S = 1.0
#: top-K size for every query
K = 10
#: set-ups per run, before and after the measured phase; ``setup_s``
#: is their median.  The host's speed drifts over seconds, so set-ups
#: half a minute apart sample more than one phase of it.
SETUP_REPEATS = 4
SETUP_REPEATS_AFTER = 3
#: users checked by the parity checks
PARITY_USERS = 12
#: unsent requests are abandoned this long after the schedule ends
GRACE_S = 30.0

READ = 0
WRITE = 1


@dataclass(frozen=True)
class Workload:
    name: str
    batch_size: int
    async_serving: bool  # async dispatch + admission control
    checkpoint_every: int


WORKLOADS: Dict[str, Workload] = {
    "replay_bulk": Workload("replay_bulk", 1024, False, 3),
    "serve_mixed": Workload("serve_mixed", 64, True, 5),
    "read_heavy": Workload("read_heavy", 64, True, 5),
}

#: replay_bulk replays this many events per second of ``--seconds``
REPLAY_EVENTS_PER_S = 500
#: replay_bulk reads before every n-th write (prequential sample)
REPLAY_READ_EVERY = 8
#: serve_mixed ladder: (writes/s, share of the run); latency metrics
#: come from the REPORT_RATE step.  The trailing step cools down at the
#: lowest rate, so the partial batch left at the end of the traffic
#: (which only the final flush publishes) does not fail the top step.
LADDER = ((100, 0.15), (200, 0.5), (300, 0.175), (400, 0.175), (100, 0.05))
REPORT_RATE = 200
#: read_heavy: fixed write rate, extra reads per write, Zipf exponent
READ_HEAVY_WRITES_PER_S = 50
READ_HEAVY_READS_PER_WRITE = 5
READ_HEAVY_ZIPF = 1.1


def lastfm_like(seed: int, n_events: int):
    """The lastfm builder's scale-2 universe (240 users, 800 artists)
    with a stream only as long as the run needs."""
    return generate(SyntheticConfig(
        name="lastfm", mode="bipartite", user_type="user", item_type="artist",
        n_users=240, n_items=800, n_events=n_events,
        behaviors=(BehaviorSpec("listen"),), drift_rate=0.015, shift_prob=0.002,
        popularity_skew=1.3, activity_skew=1.1, seed=derive_seed(seed, 3),
    ))


def kuaishou_like(seed: int, n_events: int):
    """The kuaishou builder's scale-4 universe (480 users, 2000 videos,
    160 authors) with a stream only as long as the run needs."""
    return generate(SyntheticConfig(
        name="kuaishou", mode="bipartite", user_type="user",
        item_type="video", author_type="author", with_authors=True,
        n_authors=160, n_users=480, n_items=2000, n_events=n_events,
        behaviors=(
            BehaviorSpec("watch", base_rate=1.0, affinity_gain=0.3),
            BehaviorSpec("like", base_rate=0.3, affinity_gain=1.5),
            BehaviorSpec("forward", base_rate=0.1, affinity_gain=1.8),
            BehaviorSpec("comment", base_rate=0.15, affinity_gain=1.6),
        ),
        behavior_divergence=0.5, upload_edge_type="upload", drift_rate=0.03,
        shift_prob=0.006, freshness_decay=0.002, popularity_skew=1.25,
        seed=derive_seed(seed, 6),
    ))


def serve_config(workload: Workload, state_dir: str) -> ServeConfig:
    """The service configuration of ``workload``."""
    common = dict(
        batch_size=workload.batch_size,
        overflow="drop_new",
        wal_fsync=False,  # the benchmark does not measure disk durability
        wal_path=os.path.join(state_dir, "events.wal"),
        checkpoint_dir=os.path.join(state_dir, "ckpt"),
        checkpoint_every=workload.checkpoint_every,
    )
    if not workload.async_serving:
        return ServeConfig(capacity=2 * workload.batch_size, **common)
    return ServeConfig(
        capacity=4096,
        async_dispatch=True,
        admission=AdmissionConfig(depth_highwater=0.9, depth_lowwater=0.5),
        clock_fn=time.perf_counter,
        **common,
    )


# ------------------------------------------------------------- schedules


@dataclass
class Schedule:
    """Requests sorted by due offset: ``(offset_s, kind, payload)``.

    A write's payload is ``(edge, prequential user or -1, step)``; a
    read's payload is the user.
    """

    requests: List[tuple]
    steps: List[int]

    def digest(self) -> str:
        h = hashlib.sha256()
        for offset, kind, payload in self.requests:
            target = payload if kind == READ else tuple(payload[0][:3])
            h.update(f"{offset:.9f}|{kind}|{target}\n".encode())
        return h.hexdigest()[:16]


def _arrivals(seed: int, salt: int, rate: float, n: int) -> np.ndarray:
    return ArrivalProcess("poisson", rate=rate, seed=derive_seed(seed, salt)).offsets(n)


def _prequential_user(edge, users: range) -> int:
    return int(edge.u) if int(edge.u) in users else -1


def make_schedule(name: str, dataset, users: range, seed: int, seconds: float) -> Schedule:
    stream = list(dataset.stream)
    if name == "replay_bulk":
        events = stream[: int(REPLAY_EVENTS_PER_S * seconds)]
        requests = [
            (0.0, WRITE, (e, _prequential_user(e, users) if i % REPLAY_READ_EVERY == 0 else -1, 0))
            for i, e in enumerate(events)
        ]
        return Schedule(requests, [0])
    if name == "serve_mixed":
        requests, start, steps = [], 0.0, []
        for step, (rate, share) in enumerate(LADDER):
            n = int(rate * share * seconds)
            offsets = start + _arrivals(seed, 100 + step, rate, n)
            for offset in offsets:
                e = stream[len(requests)]
                requests.append((float(offset), WRITE, (e, _prequential_user(e, users), step)))
            start = float(offsets[-1])
            steps.append(rate)
        return Schedule(requests, steps)
    if name == "read_heavy":
        n_writes = int(READ_HEAVY_WRITES_PER_S * seconds)
        events = stream[:n_writes]
        writes = _arrivals(seed, 200, READ_HEAVY_WRITES_PER_S, n_writes)
        n_reads = n_writes * READ_HEAVY_READS_PER_WRITE
        reads = _arrivals(seed, 201, READ_HEAVY_WRITES_PER_S * READ_HEAVY_READS_PER_WRITE, n_reads)
        rng = np.random.default_rng(derive_seed(seed, 202))
        weights = 1.0 / np.arange(1, len(users) + 1) ** READ_HEAVY_ZIPF
        ranked = rng.permutation(np.asarray(users))
        readers = ranked[rng.choice(len(users), size=n_reads, p=weights / weights.sum())]
        requests = [(float(o), WRITE, (e, _prequential_user(e, users), 0)) for o, e in zip(writes, events)]
        requests += [(float(o), READ, int(u)) for o, u in zip(reads, readers)]
        requests.sort(key=lambda r: (r[0], -r[1]))
        return Schedule(requests, [READ_HEAVY_WRITES_PER_S])
    raise KeyError(f"unknown workload {name!r}")


def build_dataset(name: str, seed: int, seconds: float):
    if name == "read_heavy":
        # ~half the stream is author uploads; generate enough behaviours
        # for the write schedule to draw from
        return kuaishou_like(seed, int(READ_HEAVY_WRITES_PER_S * seconds * 2))
    if name == "replay_bulk":
        return lastfm_like(seed, int(REPLAY_EVENTS_PER_S * seconds))
    return lastfm_like(seed, sum(int(rate * share * seconds) for rate, share in LADDER))


# ------------------------------------------------------------- the run


@dataclass
class Record:
    """What the driver observed; every time is ``perf_counter`` seconds."""

    lag: List[float] = field(default_factory=list)
    query: List[Tuple[float, int]] = field(default_factory=list)  # (latency, step)
    ingest: List[Tuple[float, int]] = field(default_factory=list)
    accepted_due: List[float] = field(default_factory=list)
    accepted_step: List[int] = field(default_factory=list)
    accepted_sent: List[float] = field(default_factory=list)
    refused_step: List[int] = field(default_factory=list)
    prequential: int = 0
    hits: int = 0
    degraded: int = 0
    errors: List[str] = field(default_factory=list)
    unsent: int = 0
    depth: Dict[int, List[int]] = field(default_factory=dict)
    first_ingest: float = 0.0
    end: float = 0.0


def _request_count(request) -> int:
    """A write with a prequential read is two requests."""
    _, kind, payload = request
    return 2 if kind == WRITE and payload[1] >= 0 else 1


def _query(service, user: int, rec: Record, log: Optional[SpanLog], rid) -> Optional[np.ndarray]:
    if log is not None:
        log.set_request(rid)
    try:
        result = service.query(user, K)
    except Exception as exc:  # a failed request is counted, never fatal
        rec.errors.append(f"query({user}): {type(exc).__name__}: {exc}")
        return None
    rec.degraded += result.degraded
    return result.items


def drive(service, schedule: Schedule, closed_loop: bool, log: Optional[SpanLog]) -> Record:
    """Send every request at its due time (open loop) or back to back
    (closed loop), timing each from its due time."""
    rec = Record()
    step_of_last = None
    t0 = clock() + 0.05
    hard_stop = t0 + (schedule.requests[-1][0] if schedule.requests else 0.0) + GRACE_S
    for idx, (offset, kind, payload) in enumerate(schedule.requests):
        now = clock()
        if closed_loop:
            due = now
        else:
            due = t0 + offset
            if now < due:
                if log is not None:
                    with log.span("bench.idle"):
                        time.sleep(due - now)
                else:
                    time.sleep(due - now)
                now = clock()
            if now > hard_stop:
                rec.unsent = sum(_request_count(r) for r in schedule.requests[idx:])
                break
        lag = now - due
        rec.lag.append(lag)
        if kind == READ:
            q0 = clock()
            if _query(service, payload, rec, log, idx) is None:
                continue
            rec.query.append((lag + clock() - q0, 0))
            continue
        edge, preq_user, step = payload
        if step != step_of_last:
            rec.depth.setdefault(step, []).append(service.queue.pending)
            if step_of_last is not None:
                rec.depth[step_of_last].append(rec.depth[step][0])
            step_of_last = step
        if preq_user >= 0:
            q0 = clock()
            items = _query(service, preq_user, rec, log, idx)
            if items is not None:
                rec.query.append((lag + clock() - q0, step))
                rec.prequential += 1
                rec.hits += bool(np.any(items[:K] == edge.v))
        if log is not None:
            log.set_request(idx)
        i0 = clock()
        if not rec.first_ingest:
            rec.first_ingest = i0
        try:
            ok = service.ingest(edge)
        except Exception as exc:
            rec.errors.append(f"ingest: {type(exc).__name__}: {exc}")
            ok = False
        i1 = clock()
        if ok:
            rec.ingest.append((lag + i1 - i0, step))
            rec.accepted_due.append(due)
            rec.accepted_step.append(step)
            rec.accepted_sent.append(i0)
        else:
            rec.refused_step.append(step)
    rec.end = clock()
    if step_of_last is not None:
        rec.depth[step_of_last].append(service.queue.pending)
    return rec


def _median(values):
    return statistics.median(values) if values else None


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup(workload: Workload, seed: int, seconds: float, work_dir: str, repeats: int):
    """Build the dataset and the service ``repeats`` times; keep the
    last.  Returns ``(dataset, service, config, setup seconds)``."""
    times = []
    for repeat in range(repeats):
        state_dir = os.path.join(work_dir, f"setup-{repeat}")
        t = clock()
        dataset = build_dataset(workload.name, seed, seconds)
        config = serve_config(workload, state_dir)
        service = RecommendationService(dataset, config=config)
        times.append(clock() - t)
        if repeat + 1 < repeats:
            service.close()
            shutil.rmtree(state_dir)
    return dataset, service, config, times


def run_once(name: str, seed: int, seconds: float, work_dir: str, log: Optional[SpanLog]) -> dict:
    """One measured pass: set up, drive the schedule, drain, check, and
    time the remaining set-ups."""
    workload = WORKLOADS[name]
    dataset, service, config, setup_times = setup(workload, seed, seconds, work_dir, SETUP_REPEATS)
    counters = LayerCounters()
    users = range(int(service.users[0]), int(service.users[-1]) + 1)
    schedule = make_schedule(name, dataset, users, seed, seconds)
    instrument(service, counters, log)
    cpu0 = time.process_time()
    try:
        rec = drive(service, schedule, closed_loop=not workload.async_serving, log=log)
        if service.dispatcher is not None:
            service.dispatcher.close()
        service.flush()
        t_drained = clock()
        cpu = time.process_time() - cpu0
        rss = _rss_mb()
        fingerprint = state_fingerprint(service)
        failures = _checks(service, config, counters, rec, seed)
    finally:
        service.close()
    _, spare, _, after = setup(workload, seed, seconds, os.path.join(work_dir, "after"), SETUP_REPEATS_AFTER)
    spare.close()
    setup_times += after
    failures_list, recovery = failures
    return dict(
        workload=workload, service=service, schedule=schedule, rec=rec,
        counters=counters, setup_times=setup_times, t_drained=t_drained,
        cpu=cpu, rss=rss, fingerprint=fingerprint, failures=failures_list,
        recovery=recovery,
    )


def _checks(service, config, counters, rec, seed):
    failures = []
    rng = np.random.default_rng(derive_seed(seed, 300))
    users = [int(u) for u in rng.choice(service.users, size=min(PARITY_USERS, len(service.users)), replace=False)]
    failures += checks.offline_parity(service.recommend, service.offline_top_k, users, K)
    failures += checks.wal_accounts_for(config.wal_path, len(rec.accepted_due))
    failures += checks.ledger_reconciles(config.wal_path, service.queue.deadletters_by_reason())
    if len(counters.publish_times) != service.queue.batches_dispatched:
        failures.append(
            f"{service.queue.batches_dispatched} batches dispatched but "
            f"{len(counters.publish_times)} published"
        )
    service.wal.close()  # recovery reopens the log
    # restart from the newest checkpoint, then replay the whole WAL
    # inline from an empty checkpoint directory
    recovery_failures, recovery = checks.recovery_parity(service, recovery_config(config), users, K)
    empty = os.path.join(os.path.dirname(config.checkpoint_dir), "ckpt-none")
    full_failures, _ = checks.recovery_parity(service, recovery_config(config, empty), users, K)
    return failures + recovery_failures + [f"full replay: {f}" for f in full_failures], recovery


def recovery_config(config: ServeConfig, checkpoint_dir: Optional[str] = None) -> ServeConfig:
    """The live run's WAL and checkpoints (or ``checkpoint_dir``) behind
    an inline service."""
    return ServeConfig(
        batch_size=config.batch_size,
        capacity=config.capacity,
        overflow=config.overflow,
        wal_path=config.wal_path,
        checkpoint_dir=checkpoint_dir or config.checkpoint_dir,
    )


# ------------------------------------------------------------- metrics


def e2e_metrics(run: dict) -> Tuple[Dict[str, float], Dict[str, object]]:
    """End-to-end metrics plus the details behind them (sample counts,
    ladder steps).  A metric whose percentile the samples cannot
    support is ``None``."""
    workload, rec, counters = run["workload"], run["rec"], run["counters"]
    schedule = run["schedule"]
    S = workload.batch_size
    values, late = measure.freshness(rec.accepted_due, counters.publish_times, S, rec.end)
    report_step = schedule.steps.index(REPORT_RATE) if workload.name == "serve_mixed" else 0
    in_report = [s == report_step for s in rec.accepted_step]
    fresh = [v for v, keep in zip(values, in_report) if keep]
    queries = [lat for lat, s in rec.query if s == report_step]
    ingests = [lat for lat, s in rec.ingest if s == report_step]
    steps = _ladder(schedule, rec, values, late, S) if workload.name == "serve_mixed" else []
    trained = len(rec.accepted_due)
    attempted = sum(_request_count(r) for r in schedule.requests)
    failed = len(rec.refused_step) + len(rec.errors) + rec.unsent
    metrics = {
        "setup_s": _median(run["setup_times"]),
        "peak_rss_mb": run["rss"],
        "update_events_per_s": _median(counters.update_rates()),
        "replay_events_per_s": trained / (run["t_drained"] - rec.first_ingest),
        "freshness_p50_ms": measure.ms(measure.percentile(fresh, 50)),
        "freshness_p99_ms": measure.ms(measure.percentile(fresh, 99)),
        "query_p50_ms": measure.ms(measure.percentile(queries, 50)),
        "query_p99_ms": measure.ms(measure.percentile(queries, 99)),
        "ingest_p50_ms": measure.ms(measure.percentile(ingests, 50)),
        "ingest_p99_ms": measure.ms(measure.percentile(ingests, 99)),
        "hit_rate_at_10": rec.hits / rec.prequential if rec.prequential else None,
        "sustained_writes_per_s": measure.sustained_rate(steps, S) if steps else None,
        "failed_frac": failed / attempted,
    }
    details = {
        "samples": {
            "freshness": len(fresh), "query": len(queries), "ingest": len(ingests),
            "update": len(counters.train_s),
            "prequential": rec.prequential, "setup": len(run["setup_times"]),
        },
        "setup_s": run["setup_times"],
        "ladder": steps,
        "attempted": attempted,
        "failed": failed,
        "errors": rec.errors[:3],
        "gen_lag_p99_ms": measure.ms(measure.percentile(rec.lag, 99)),
        "schedule_sha": schedule.digest(),
        "fingerprint": run["fingerprint"][:16],
        "checks": run["failures"] or "passed",
    }
    return metrics, details


def _ladder(schedule, rec, values, late, S) -> List[dict]:
    steps = []
    for step, rate in enumerate(schedule.steps):
        mine = [i for i, s in enumerate(rec.accepted_step) if s == step]
        sent = [rec.accepted_sent[i] for i in mine]
        misses = sum(1 for i in mine if late[i] or values[i] > FRESHNESS_LIMIT_S)
        depth = rec.depth.get(step, [0, 0])
        fresh = [values[i] for i in mine]
        queries = [lat for lat, s in rec.query if s == step]
        ingests = [lat for lat, s in rec.ingest if s == step]
        steps.append({
            "rate": rate,
            "writes": len(mine),
            "achieved_rate": (len(sent) - 1) / (sent[-1] - sent[0]) if len(sent) > 1 else 0.0,
            "late_frac": misses / len(mine) if mine else 1.0,
            "refused": sum(1 for s in rec.refused_step if s == step),
            "depth_start": depth[0],
            "depth_end": depth[-1],
            **{f"{name}_p{q}_ms": measure.ms(measure.percentile(data, q))
               for name, data in (("freshness", fresh), ("query", queries), ("ingest", ingests))
               for q in (50, 99)},
        })
    return steps
