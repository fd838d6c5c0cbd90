"""Tests for the copy-on-write versioned embedding store and the
delta-publishing decayed store the service uses by default."""

import numpy as np
import pytest

from repro.core.config import SUPAConfig
from repro.core.model import SUPA
from repro.serve.service import RecommendationService, ServeConfig
from repro.serve.store import (
    DecayedEmbeddingStore,
    DecayedSnapshot,
    VersionedEmbeddingStore,
)


def make_store(n=10, d=4, block=4, seed=0):
    rng = np.random.default_rng(seed)
    initial = rng.normal(size=(n, d))
    return VersionedEmbeddingStore(initial, block_size=block), initial


class TestConstruction:
    def test_seed_becomes_version_zero(self):
        store, initial = make_store()
        snap = store.snapshot()
        assert snap.version == 0
        np.testing.assert_array_equal(snap.matrix(), initial)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            VersionedEmbeddingStore(np.zeros(3, dtype=np.float64))

    def test_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            VersionedEmbeddingStore(np.zeros((2, 2), dtype=np.float64), block_size=0)


class TestPublish:
    def test_updates_only_given_rows(self):
        store, initial = make_store()
        new_rows = np.ones((2, 4), dtype=np.float64)
        snap = store.publish([2, 7], new_rows)
        assert snap.version == 1
        np.testing.assert_array_equal(snap.row(2), new_rows[0])
        np.testing.assert_array_equal(snap.row(7), new_rows[1])
        untouched = [i for i in range(10) if i not in (2, 7)]
        np.testing.assert_array_equal(snap.rows(untouched), initial[untouched])

    def test_pinned_snapshot_never_changes(self):
        """Snapshot isolation: readers pin a version; publishes are invisible."""
        store, initial = make_store()
        pinned = store.snapshot()
        before = pinned.matrix()
        store.publish([0, 5, 9], np.full((3, 4), 42.0, dtype=np.float64))
        np.testing.assert_array_equal(pinned.matrix(), before)
        assert pinned.version == 0 and store.version == 1

    def test_untouched_blocks_are_shared_not_copied(self):
        store, _ = make_store(n=12, block=4)  # blocks: [0-3], [4-7], [8-11]
        old = store.snapshot()
        new = store.publish([5], np.zeros((1, 4), dtype=np.float64))
        assert new.block(0) is old.block(0)
        assert new.block(2) is old.block(2)
        assert new.block(1) is not old.block(1)

    def test_blocks_are_read_only(self):
        store, _ = make_store()
        snap = store.snapshot()
        with pytest.raises(ValueError):
            snap.block(0)[0, 0] = 99.0

    def test_empty_publish_bumps_version(self):
        store, initial = make_store()
        snap = store.publish([], np.empty((0, 4), dtype=np.float64))
        assert snap.version == 1
        np.testing.assert_array_equal(snap.matrix(), initial)

    def test_shape_mismatch_raises(self):
        store, _ = make_store()
        with pytest.raises(ValueError):
            store.publish([1], np.zeros((2, 4), dtype=np.float64))

    def test_out_of_range_row_raises(self):
        store, _ = make_store()
        with pytest.raises(IndexError):
            store.publish([10], np.zeros((1, 4), dtype=np.float64))


class TestSnapshotReads:
    def test_row_and_rows_agree(self):
        store, initial = make_store(n=9, block=2)
        snap = store.snapshot()
        for i in range(9):
            np.testing.assert_array_equal(snap.row(i), initial[i])
        np.testing.assert_array_equal(snap.rows([8, 0, 3]), initial[[8, 0, 3]])

    def test_row_out_of_range(self):
        store, _ = make_store()
        with pytest.raises(IndexError):
            store.snapshot().row(10)

    def test_rows_raise_outside_the_store(self):
        """``rows`` rejects ids ``row`` rejects — including -1, which a
        block-aligned store once wrapped around to its last row."""
        store, _ = make_store(n=8, block=4)
        snap = store.snapshot()
        for bad in ([-1], [0, 8], [3, -5]):
            with pytest.raises(IndexError):
                snap.rows(bad)

    def test_block_rows_ranges(self):
        store, _ = make_store(n=10, block=4)
        snap = store.snapshot()
        assert [snap.block_rows(i) for i in range(snap.num_blocks)] == [
            (0, 4),
            (4, 8),
            (8, 10),
        ]

    def test_versions_chain_across_publishes(self):
        store, _ = make_store()
        for expected in (1, 2, 3):
            snap = store.publish([0], np.full((1, 4), float(expected), dtype=np.float64))
            assert snap.version == expected
        assert store.snapshot().row(0)[0] == 3.0


class TestCompaction:
    def test_compact_preserves_content_and_version(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(23, 4))
        store = VersionedEmbeddingStore(matrix, block_size=5)
        store.publish([3, 17], np.ones((2, 4), dtype=np.float64))
        before = store.snapshot()
        after = store.compact()
        assert after.version == before.version
        np.testing.assert_array_equal(after.matrix(), before.matrix())
        assert store.compactions == 1

    def test_compact_backing_is_contiguous_and_frozen(self):
        rng = np.random.default_rng(1)
        store = VersionedEmbeddingStore(rng.normal(size=(12, 3)), block_size=4)
        store.publish([0], np.zeros((1, 3), dtype=np.float64))
        snap = store.compact()
        base = snap.block(0).base
        assert base is not None
        for i in range(snap.num_blocks):
            assert snap.block(i).base is base
            assert not snap.block(i).flags.writeable

    def test_compact_leaves_pinned_snapshots_untouched(self):
        rng = np.random.default_rng(2)
        matrix = rng.normal(size=(10, 2))
        store = VersionedEmbeddingStore(matrix, block_size=3)
        pinned = store.snapshot()
        store.publish([4], np.full((1, 2), 9.0))
        store.compact()
        np.testing.assert_array_equal(pinned.matrix(), matrix)

    def test_auto_compaction_every_n_publishes(self):
        rng = np.random.default_rng(3)
        store = VersionedEmbeddingStore(
            rng.normal(size=(10, 2)), block_size=3, compact_every=3
        )
        for i in range(7):
            store.publish([i % 10], np.zeros((1, 2), dtype=np.float64))
        assert store.compactions == 2
        assert store.version == 7  # compaction never bumps the version

    def test_compact_every_validation(self):
        with pytest.raises(ValueError):
            VersionedEmbeddingStore(np.zeros((4, 2)), compact_every=-1)

    def test_publish_after_compaction_still_cow(self):
        rng = np.random.default_rng(4)
        store = VersionedEmbeddingStore(rng.normal(size=(9, 2)), block_size=3)
        compacted = store.compact()
        new = store.publish([0], np.full((1, 2), 5.0))
        np.testing.assert_array_equal(new.row(0), [5.0, 5.0])
        # untouched blocks are still shared with the compacted snapshot
        assert new.block(1) is compacted.block(1)


# ------------------------------------------------------- service publishes


def make_service(dataset, model=None, **kwargs):
    defaults = dict(batch_size=4, capacity=16, cache_size=32)
    defaults.update(kwargs)
    return RecommendationService(dataset, model=model, config=ServeConfig(**defaults))


def drain(svc, dataset):
    for e in dataset.stream:
        svc.ingest(e)
    svc.flush()


class TestDenseServing:
    def test_dense_publish_matches_model_bitwise(self, small_dataset):
        """Without inference-time decay the service publishes Eq. 14
        rows into the plain versioned store; after a drain its matrix
        carries exactly the model's bytes and answers match offline."""
        model = SUPA.for_dataset(
            small_dataset, config=SUPAConfig(seed=7, decay_at_inference=False)
        )
        svc = make_service(small_dataset, model=model)
        assert isinstance(svc.store, VersionedEmbeddingStore)
        drain(svc, small_dataset)
        assert svc.store.snapshot().version > 0
        all_nodes = np.arange(small_dataset.num_nodes, dtype=np.int64)
        expected = model.final_embeddings(all_nodes, svc.edge_type, svc.clock)
        assert svc.store.snapshot().matrix().tobytes() == expected.tobytes()
        for user in range(3):
            np.testing.assert_array_equal(
                svc.recommend(user, k=4), svc.offline_top_k(user, k=4)
            )
        svc.close()


class TestDecayedServing:
    def test_default_service_uses_delta_store(self, small_dataset):
        svc = make_service(small_dataset)
        assert isinstance(svc.store, DecayedEmbeddingStore)
        assert isinstance(svc.store.snapshot(), DecayedSnapshot)
        svc.close()

    def test_materialized_matrix_matches_model_bitwise(self, small_dataset):
        svc = make_service(small_dataset)
        drain(svc, small_dataset)
        all_nodes = np.arange(small_dataset.num_nodes, dtype=np.int64)
        expected = svc.model.final_embeddings(
            all_nodes, svc.edge_type, svc.clock
        )
        assert svc.store.snapshot().matrix().tobytes() == expected.tobytes()
        svc.close()

    def test_quiesced_recommendations_match_offline(self, small_dataset):
        svc = make_service(small_dataset)
        drain(svc, small_dataset)
        for user in range(3):
            np.testing.assert_array_equal(
                svc.recommend(user, k=4), svc.offline_top_k(user, k=4)
            )
        svc.close()

    def test_publishes_share_untouched_component_blocks(self, small_dataset):
        """The whole point of delta publishing: a publish copies only
        the touched component blocks, even though the clock advance
        moves every decayed embedding."""
        svc = make_service(small_dataset, store_block_size=1, compact_every=0)
        published = set()
        original = svc.store.publish

        def spy(rows, *args, **kwargs):
            published.update(int(r) for r in np.asarray(rows))
            return original(rows, *args, **kwargs)

        svc.store.publish = spy
        before = svc.store._inner.snapshot()
        drain(svc, small_dataset)
        after = svc.store._inner.snapshot()
        assert after.version > before.version
        assert published  # training touched something
        # with 1-row blocks, a node's component block is replaced iff
        # some update published that row; everything else stays the
        # *same object* across all versions — O(touched) publishes
        for node in range(small_dataset.num_nodes):
            same = before.block(node) is after.block(node)
            assert same == (node not in published)
        svc.close()

    def test_snapshot_isolation_under_decay(self, small_dataset):
        """An old decayed snapshot keeps answering at its own clock
        after further publishes move the live one."""
        svc = make_service(small_dataset)
        edges = list(small_dataset.stream)
        for e in edges[:4]:
            svc.ingest(e)
        svc.flush()
        pinned = svc.store.snapshot()
        pinned_matrix = pinned.matrix().copy()
        for e in edges[4:]:
            svc.ingest(e)
        svc.flush()
        assert svc.store.snapshot().version > pinned.version
        assert pinned.matrix().tobytes() == pinned_matrix.tobytes()
        svc.close()

    def test_decayed_store_validates_shapes(self):
        with pytest.raises(ValueError, match="3 \\* dim"):
            DecayedEmbeddingStore(
                np.zeros((4, 7)),  # not a multiple of 3
                last_times=np.zeros(4),
                alpha=np.zeros(2),
                alpha_slots=np.zeros(4, dtype=np.int64),
            )
        with pytest.raises(ValueError, match="last_times"):
            DecayedEmbeddingStore(
                np.zeros((4, 6)),
                last_times=np.zeros(3),
                alpha=np.zeros(2),
                alpha_slots=np.zeros(4, dtype=np.int64),
            )


# ------------------------------------------------------------ row gathers

#: unsorted, repeated ids spread over every block, plus an empty gather
GATHER_IDS = ([7, 0, 9, 3, 3, 8, 1, 7, 7, 4, 2], [5], [9, 9, 0], [])


def stacked_rows(snap, ids):
    if not ids:
        return np.empty((0, snap.dim), dtype=np.float64)
    return np.stack([snap.row(i) for i in ids])


class TestRowGather:
    """``rows`` gathers once per touched block; the result must equal
    one ``row`` call per id, bit for bit, on both snapshot kinds."""

    def test_versioned_gather_equals_stacked_rows(self):
        store, _ = make_store(n=10, block=3)
        store.publish([4, 9], np.full((2, 4), 5.0, dtype=np.float64))
        snap = store.snapshot()
        for ids in GATHER_IDS:
            assert snap.rows(ids).tobytes() == stacked_rows(snap, ids).tobytes()

    def test_decayed_gather_equals_stacked_rows(self, small_dataset):
        svc = make_service(small_dataset, store_block_size=3)
        drain(svc, small_dataset)
        snap = svc.store.snapshot()
        assert isinstance(snap, DecayedSnapshot)
        for ids in GATHER_IDS:
            assert snap.rows(ids).tobytes() == stacked_rows(snap, ids).tobytes()
        with pytest.raises(IndexError):
            snap.rows([-1])
        svc.close()
