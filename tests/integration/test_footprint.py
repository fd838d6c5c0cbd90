"""Resident-footprint gates for the serving process (DESIGN.md §17).

* the serving import closure never loads scipy;
* ``close()`` plus dropping the last reference frees a service at once,
  with the garbage collector disabled (no reference cycles);
* an InsLearn batch and a checkpoint allocate no full copies of the
  model state once their reused buffers exist;
* the trained state is bitwise what it was before the buffers were
  reused.
"""

import gc
import hashlib
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import repro
from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig, InsLearnTrainer
from repro.core.model import SUPA
from repro.datasets.synthetic import BehaviorSpec, SyntheticConfig, generate
from repro.resilience.checkpoint import _flatten
from repro.serve.admission import AdmissionConfig
from repro.serve.service import RecommendationService, ServeConfig

SERVING_MODULES = (
    "repro.serve.service",
    "repro.datasets.synthetic",
    "repro.resilience.recovery",
    "repro.replicate.failover",
    "repro.obs.loadgen",
)

BEHAVIORS = (
    BehaviorSpec("view", base_rate=1.0, affinity_gain=0.3),
    BehaviorSpec("buy", base_rate=0.3, affinity_gain=1.5),
)


def dataset(n_users, n_items, n_events):
    return generate(
        SyntheticConfig(
            name="footprint",
            mode="bipartite",
            n_users=n_users,
            n_items=n_items,
            n_events=n_events,
            behaviors=BEHAVIORS,
            drift_rate=0.02,
            seed=11,
        )
    )


def trainer_config():
    return InsLearnConfig(
        batch_size=64,
        max_iterations=4,
        validation_interval=1,
        validation_size=16,
        patience=1,
        num_validation_candidates=20,
        seed=5,
    )


def state_sha256(model) -> str:
    flat = {}
    _flatten(model.state_dict(), "", flat)
    digest = hashlib.sha256()
    for name in sorted(flat):
        digest.update(name.encode("utf-8"))
        digest.update(np.ascontiguousarray(flat[name]).tobytes())
    return digest.hexdigest()


def state_bytes(model) -> int:
    flat = {}
    _flatten(model.state_dict(), "", flat)
    return sum(array.nbytes for array in flat.values())


def test_serving_import_closure_has_no_scipy():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys\n"
        + "".join(f"import {name}\n" for name in SERVING_MODULES)
        + "print(','.join(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


def test_closed_service_is_freed_without_gc(tmp_path):
    data = dataset(30, 40, 600)
    config = ServeConfig(
        batch_size=16,
        capacity=256,
        overflow="drop_new",
        async_dispatch=True,
        admission=AdmissionConfig(depth_highwater=0.9, depth_lowwater=0.5),
        wal_path=str(tmp_path / "events.wal"),
        checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every=1,
    )
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        service = RecommendationService(data, config=config)
        for edge in list(data.stream)[:40]:
            service.ingest(edge)
        service.flush()
        assert service.queue.batches_dispatched >= 2
        assert service.checkpoints.writes >= 2
        service.query(int(service.users[0]), 5)
        service.close()
        refs = {
            "service": weakref.ref(service),
            "model": weakref.ref(service.model),
            "graph": weakref.ref(service.model.graph),
            "store": weakref.ref(service.store),
        }
        del service
        alive = sorted(name for name, ref in refs.items() if ref() is not None)
    finally:
        if was_enabled:
            gc.enable()
    assert alive == []


def test_dropped_model_is_freed_without_gc():
    data = dataset(10, 10, 50)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        model = SUPA.for_dataset(data, SUPAConfig(dim=4))
        engine = model.engine
        ref = weakref.ref(model)
        del model
        freed = ref() is None
    finally:
        if was_enabled:
            gc.enable()
    assert freed
    with pytest.raises(ReferenceError):
        engine.train_batch(())


def transient_peak(call) -> int:
    """Bytes allocated by ``call`` above what was live before it."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    call()
    return tracemalloc.get_traced_memory()[1] - before


@pytest.fixture(scope="module")
def large_universe():
    """3000 nodes at dim 16: a 4.5 MiB state that dwarfs the per-batch
    plan and walk arrays."""
    return dataset(1500, 1500, 400)


def test_inslearn_batch_allocates_no_state_copy(large_universe):
    model = SUPA.for_dataset(large_universe, SUPAConfig(dim=16, seed=3))
    trainer = InsLearnTrainer(model, trainer_config())
    batches = list(large_universe.stream.sequential_batches(64))[:4]
    trainer.train_one_batch(batches[0])  # allocates the best-state buffer
    budget = 0.25 * state_bytes(model)
    tracemalloc.start()
    try:
        peaks = [transient_peak(lambda b=b: trainer.train_one_batch(b)) for b in batches[1:]]
    finally:
        tracemalloc.stop()
    assert max(peaks) <= budget, (peaks, budget)


def test_checkpoint_allocates_one_encoded_copy(large_universe, tmp_path):
    service = RecommendationService(
        large_universe, config=ServeConfig(batch_size=64, checkpoint_dir=str(tmp_path))
    )
    service.checkpoint()  # allocates the reused state buffer
    budget = 1.5 * state_bytes(service.model)
    tracemalloc.start()
    try:
        peaks = [transient_peak(service.checkpoint) for _ in range(2)]
    finally:
        tracemalloc.stop()
    service.close()
    assert max(peaks) <= budget, (peaks, budget)


#: sha256 of the flattened memory + optimiser state after the run below,
#: recorded before InsLearn reused its best-state buffer (numpy 2.4.6,
#: x86-64).  Float kernels may round differently under other numpy
#: builds, so the golden is pinned to that version; the fresh-copy
#: comparison underneath runs everywhere.
GOLDEN_NUMPY = "2.4.6"
GOLDEN_STATE_SHA256 = "18c4484999a33a6a03f6276e1b6a639a41ea36c11f8aba04a556d0622ebc0038"


def ten_batch_run(trainer_cls=InsLearnTrainer) -> str:
    data = dataset(40, 60, 700)
    model = SUPA.for_dataset(data, SUPAConfig(dim=16, seed=3))
    trainer = trainer_cls(model, trainer_config())
    batches = list(data.stream.sequential_batches(64))[:10]
    assert len(batches) == 10 and all(len(b) == 64 for b in batches)
    for index, batch in enumerate(batches):
        trainer.train_one_batch(batch, batch_index=index)
    return state_sha256(model)


class FreshCopyTrainer(InsLearnTrainer):
    """Snapshots the best state into a new allocation every time."""

    def _save_best_state(self) -> None:
        self._best_state = self.model.state_dict()


def test_reused_best_state_matches_fresh_copies():
    assert ten_batch_run() == ten_batch_run(FreshCopyTrainer)


def test_trained_state_matches_recorded_golden():
    if np.__version__ != GOLDEN_NUMPY:
        pytest.skip(f"golden recorded under numpy {GOLDEN_NUMPY}")
    assert ten_batch_run() == GOLDEN_STATE_SHA256
