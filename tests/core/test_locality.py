"""Locality properties of SUPA's per-edge updates.

The paper argues SUPA scales to multiple GPUs because "the update
procedure of SUPA is localized" (Section IV-H).  These tests pin that
property down: a training step touches only the rows of the interactive
nodes, the sampled influenced nodes, and the drawn negatives — and
steps with disjoint touched sets commute.
"""

import numpy as np
import pytest

from repro.core import SUPA, SUPAConfig
from repro.datasets.synthetic import SyntheticConfig, generate


@pytest.fixture
def dataset():
    return generate(
        SyntheticConfig(n_users=30, n_items=40, n_events=300, seed=11)
    )


def _model(dataset, seed=0):
    model = SUPA.for_dataset(
        dataset, SUPAConfig(dim=8, num_walks=2, walk_length=3, seed=seed)
    )
    for e in dataset.stream[:200]:
        model.observe(e.u, e.v, e.edge_type, e.t)
    return model


def _memory_snapshot(model):
    return {
        "long": model.memory.long.copy(),
        "short": model.memory.short.copy(),
        "context": model.memory.context.copy(),
    }


def _touched_nodes(before, after):
    touched = set()
    for name in ("long", "short"):
        diff = np.any(before[name] != after[name], axis=1)
        touched.update(np.flatnonzero(diff).tolist())
    diff = np.any(before["context"] != after["context"], axis=2)
    touched.update(np.flatnonzero(np.any(diff, axis=0)).tolist())
    return touched


class TestLocality:
    def test_update_touches_few_rows(self, dataset):
        model = _model(dataset)
        before = _memory_snapshot(model)
        e = dataset.stream[200]
        model.train_step(e.u, e.v, e.edge_type, e.t, 1.0, 1.0)
        after = _memory_snapshot(model)
        touched = _touched_nodes(before, after)
        cfg = model.config
        # interactive pair + (k walks x l hops) x 2 + 2 * N_neg negatives
        bound = 2 + 2 * cfg.num_walks * cfg.walk_length + 2 * cfg.num_negatives
        assert e.u in touched and e.v in touched
        assert len(touched) <= bound

    def test_disjoint_updates_commute(self, dataset):
        """Two steps touching disjoint node sets give the same memory
        whichever order they run in — the property behind §IV-H's claim
        that localized updates can train in parallel."""
        e1 = dataset.stream[200]
        # find a later edge with completely different endpoints
        e2 = next(
            e
            for e in dataset.stream[201:]
            if {e.u, e.v}.isdisjoint({e1.u, e1.v})
        )

        def run(order):
            model = _model(dataset, seed=0)
            # disable stochastic parts so only order matters
            model.config = model.config.with_overrides(
                use_prop=False, use_neg=False
            )
            for e in order:
                model.train_step(e.u, e.v, e.edge_type, e.t, 1.0, 1.0)
            return _memory_snapshot(model)

        forward = run([e1, e2])
        backward = run([e2, e1])
        for name in ("long", "short", "context"):
            assert np.allclose(forward[name], backward[name])

    def test_overlapping_updates_do_not_commute(self, dataset):
        """Sanity check on the test above: steps sharing a node are
        genuinely order-dependent (Adam moments)."""
        e1 = dataset.stream[200]

        def run(order):
            model = _model(dataset, seed=0)
            model.config = model.config.with_overrides(
                use_prop=False, use_neg=False
            )
            for u, v, et, t in order:
                model.train_step(u, v, et, t, 1.0, 1.0)
            return _memory_snapshot(model)

        a = (e1.u, e1.v, e1.edge_type, e1.t)
        other_item = next(
            v for v in dataset.nodes_of_type("item") if v != e1.v
        )
        b = (e1.u, int(other_item), e1.edge_type, e1.t + 1.0)
        forward = run([a, b])
        backward = run([b, a])
        assert not np.allclose(forward["long"], backward["long"])
