"""The checkpoint save path writes exactly :func:`serialize`'s bytes.

``CheckpointManager.save`` writes the header and a view of the npz
payload separately, and the service copies the model state into a
buffer it reuses across checkpoints; neither may change a byte on disk.
"""

from repro.resilience.checkpoint import Checkpoint, CheckpointManager, deserialize, serialize
from repro.serve.service import RecommendationService, ServeConfig
from tests.resilience.test_checkpoint import assert_same, make_checkpoint


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_saved_file_equals_serialize(tmp_path):
    manager = CheckpointManager(str(tmp_path))
    for seq, residue in ((3, True), (4, False)):
        ckpt = make_checkpoint(seq=seq, with_residue=residue)
        data = read(manager.save(ckpt))
        assert data == serialize(ckpt)
        assert_same(ckpt, deserialize(data))


def expected_bytes(service):
    """What a checkpoint of the quiesced ``service`` serializes to, from
    a freshly allocated state copy."""
    return serialize(
        Checkpoint(
            seq=service.wal.last_seq,
            updates_applied=int(service.stats()["updates_applied"]),
            clock=service.clock,
            residue=list(service.queue.buffered()),
            model_state=service.model.state_dict(),
            model_rng_state=service.model.rng.bit_generator.state,
            trainer_rng_state=service.trainer.rng_state(),
            num_nodes=service.dataset.num_nodes,
        )
    )


def test_service_checkpoints_through_the_reused_buffer(tiny_synthetic, tmp_path):
    service = RecommendationService(
        tiny_synthetic,
        config=ServeConfig(
            batch_size=32,
            wal_path=str(tmp_path / "events.wal"),
            checkpoint_dir=str(tmp_path / "ckpt"),
        ),
    )
    stream = list(tiny_synthetic.stream)
    for start in (0, 100):  # the second checkpoint reuses the buffer
        for edge in stream[start : start + 100]:
            service.ingest(edge)
        assert read(service.checkpoint()) == expected_bytes(service)
    service.close()
