"""Each correctness check passes on a healthy run and fails on a
deliberately broken input."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from repro.datasets.zoo import lastfm
from repro.resilience.wal import WriteAheadLog
from repro.serve.service import RecommendationService, ServeConfig

from perfbench import checks, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
K = 10


@pytest.fixture
def flushed(tmp_path):
    """A closed service that trained 200 events: 6 batches of 32, then a
    flush of 8, checkpointing every 2 updates."""
    dataset = lastfm(scale=0.3, seed=5)
    config = ServeConfig(
        batch_size=32, capacity=64, overflow="drop_new",
        wal_path=str(tmp_path / "events.wal"),
        checkpoint_dir=str(tmp_path / "ckpt"), checkpoint_every=2,
    )
    service = RecommendationService(dataset, config=config)
    events = list(dataset.stream)[:200]
    assert all(service.ingest(e) for e in events)
    service.flush()
    service.close()
    users = [int(u) for u in service.users[:6]]
    return service, config, users, events


class TestOfflineParity:
    def test_passes_on_the_served_answer(self, flushed):
        service, _, users, _ = flushed
        assert checks.offline_parity(service.recommend, service.offline_top_k, users, K) == []

    def test_fails_on_a_perturbed_answer(self, flushed):
        service, _, users, _ = flushed
        perturbed = lambda u, k: service.recommend(u, k)[::-1]
        assert checks.offline_parity(perturbed, service.offline_top_k, users, K)


class TestRecoveryParity:
    def test_passes_on_the_run_log(self, flushed):
        service, config, users, _ = flushed
        failures, result = checks.recovery_parity(service, workloads.recovery_config(config), users, K)
        assert failures == []
        assert result.replayed_batches == 1  # the flush after the last checkpoint

    def test_empty_checkpoint_directory_replays_every_batch(self, flushed, tmp_path):
        service, config, users, _ = flushed
        full = workloads.recovery_config(config, str(tmp_path / "ckpt-none"))
        failures, result = checks.recovery_parity(service, full, users, K)
        assert failures == []
        assert result.replayed_batches == 7  # 6 batches of 32 and the flush

    def test_fails_on_a_truncated_wal(self, flushed):
        service, config, users, events = flushed
        with open(config.wal_path, "rb") as fh:
            lines = fh.readlines()
        with open(config.wal_path, "wb") as fh:
            fh.writelines(lines[:-1])  # drop the flush's batch record
        failures, _ = checks.recovery_parity(service, workloads.recovery_config(config), users, K)
        assert any("fingerprint" in f for f in failures)
        assert checks.wal_accounts_for(config.wal_path, len(events))

    def test_wal_accounting_passes_on_the_run_log(self, flushed):
        _, config, _, events = flushed
        assert checks.wal_accounts_for(config.wal_path, len(events)) == []


class TestLedger:
    def test_passes_when_nothing_was_denied(self, flushed):
        service, config, _, _ = flushed
        assert checks.ledger_reconciles(config.wal_path, service.queue.deadletters_by_reason()) == []

    def test_fails_on_an_extra_ledger_record(self, flushed):
        service, config, _, events = flushed
        with WriteAheadLog(config.wal_path) as wal:
            wal.append_shed(events[0], "shed: reject")
        assert checks.ledger_reconciles(config.wal_path, service.queue.deadletters_by_reason())

    def test_fails_on_an_unjournaled_deadletter(self, flushed):
        _, config, _, _ = flushed
        assert checks.ledger_reconciles(config.wal_path, {"throttle": 1})


def test_replay_bulk_fingerprint_repeats_for_a_seed(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "SETUP_REPEATS_AFTER", 1)
    prints = []
    for attempt in range(2):
        run = workloads.run_once("replay_bulk", 3, 2.2, str(tmp_path / str(attempt)), None)
        assert run["failures"] == []
        prints.append(run["fingerprint"])
    assert prints[0] == prints[1]


def test_unsupported_per_layer_percentiles_are_none(tmp_path, monkeypatch):
    """A traced run too short for a p99 reports None, which run.py
    refuses as too few samples, never a perfect 0."""
    from perfbench import layers
    from perfbench.spans import SpanLog

    monkeypatch.setattr(workloads, "SETUP_REPEATS", 1)
    monkeypatch.setattr(workloads, "SETUP_REPEATS_AFTER", 1)
    log = SpanLog()
    run = workloads.run_once("read_heavy", 4, 2.0, str(tmp_path), log)
    assert run["failures"] == []
    metrics = layers.per_layer(run, log, run["cpu"])
    for name in ("serve.ingest.depth_p99", "serve.ingest.batch_wait_p99_ms",
                 "serve.service.query_wait_p99_ms", "bench.gen_lag_p99_ms"):
        assert metrics[name] is None, name
    assert metrics["serve.ingest.batch_wait_p50_ms"] > 0
    assert metrics["serve.index.topk_calls"] > 0


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_traces", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay_bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_metric_lists_match_benchmark_json():
    from perfbench import layers, run

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
