"""Replay refuses a WAL or checkpoint that contradicts itself.

Recovery and replication fold the same queue log, so a forged log must
be refused the same way at every entry point: ``fold_queue_log``,
``recover()`` and a bootstrapped follower's ``poll()``.  A checkpoint
whose residue or node universe disagrees with the log must be refused
by both ``recover()`` and ``ReplicationFollower.bootstrap()``.
"""

from dataclasses import replace

import pytest

from repro.core.config import SUPAConfig
from repro.datasets.zoo import load_dataset
from repro.replicate.config import checkpoint_dir, wal_path
from repro.replicate.follower import ReplicationFollower
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.recovery import RecoveryError, fold_queue_log, recover
from repro.resilience.wal import WriteAheadLog, iter_records
from repro.serve.service import RecommendationService, ServeConfig

MODEL_CFG = SUPAConfig(dim=16, num_walks=2, walk_length=2, seed=0)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("uci", scale=0.1)


def serve_config(root, **kwargs):
    return ServeConfig(
        batch_size=8,
        capacity=64,
        wal_path=wal_path(root),
        checkpoint_dir=checkpoint_dir(root),
        **kwargs,
    )


def forge_log(path, case, stream):
    """A WAL that is well-formed record by record but contradicts itself."""
    with WriteAheadLog(path) as wal:
        wal.append_accept(stream[0])
        if case == "evict-not-head":
            wal.append_accept(stream[1])
            wal.append_evict(stream[1])
        else:  # batch-over-count: one event buffered, two dispatched
            wal.append_batch(2)


def forge_checkpoint(dataset, root, case, stream):
    """A real run's checkpoint with its residue or node count altered."""
    service = RecommendationService(
        dataset,
        config=serve_config(root),
    )
    for edge in stream[:12]:
        service.ingest(edge)
    service.checkpoint()
    service.close()
    manager = CheckpointManager(checkpoint_dir(root))
    ckpt = manager.latest()
    if case == "residue":
        forged = replace(ckpt, residue=list(ckpt.residue) + [stream[0]])
    else:  # num-nodes
        forged = replace(ckpt, num_nodes=dataset.num_nodes + 1)
    manager.save(forged)  # same seq: replaces the genuine file


LOG_CASES = ("evict-not-head", "batch-over-count")
CHECKPOINT_CASES = ("residue", "num-nodes")


@pytest.mark.parametrize(
    "case, site",
    [(case, site) for case in LOG_CASES for site in ("fold", "recover", "follower")]
    + [(case, site) for case in CHECKPOINT_CASES for site in ("recover", "follower")],
)
def test_contradiction_is_refused(dataset, tmp_path, case, site):
    root = str(tmp_path / "primary")
    stream = list(dataset.stream)
    follower = None
    if site == "follower" and case in LOG_CASES:
        # bootstrap over an empty log, then ship the forged records
        follower = ReplicationFollower(
            dataset, root, serve_config=serve_config(root), model_config=MODEL_CFG
        ).bootstrap()
    if case in LOG_CASES:
        forge_log(wal_path(root), case, stream)
    else:
        forge_checkpoint(dataset, root, case, stream)

    with pytest.raises(RecoveryError):
        if site == "fold":
            fold_queue_log(iter_records(wal_path(root)))
        elif site == "recover":
            recover(dataset, serve_config(root), model_config=MODEL_CFG)
        elif follower is not None:
            follower.poll()
        else:
            ReplicationFollower(
                dataset, root, serve_config=serve_config(root), model_config=MODEL_CFG
            ).bootstrap()
    if follower is not None:
        follower.close()
