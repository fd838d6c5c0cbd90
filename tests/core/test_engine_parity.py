"""Golden parity suite: the batched engine must be *bitwise* identical
to the per-edge reference under fixed seeds.

The sweep trains both engines on the same stream with identical seeds —
across every model variant (``core/variants.py``), decay/termination
settings and walk configurations — and asserts byte-equality of the
full model state, the per-batch reports, and the consumed RNG state.
``tobytes`` comparison is deliberate: it distinguishes ``-0.0`` from
``+0.0`` and catches any reassociated float reduction that ``allclose``
would wave through.

The second half checks every analytic kernel against central finite
differences, and the scalar-vs-vector / fused-vs-split identities the
kernels module promises.
"""

import numpy as np
import pytest

from repro.core.config import SUPAConfig, g_decay
from repro.core.engine import kernels
from repro.core.inslearn import InsLearnConfig, InsLearnTrainer
from repro.core.model import SUPA
from repro.core.variants import VARIANT_BUILDERS, make_variant
from repro.datasets.zoo import movielens

BATCH_SIZE = 96
N_BATCHES = 2


def _state_bytes(model):
    """The full model state as one byte string (order-canonicalised)."""
    parts = []
    for _, group in sorted(model.state_dict().items()):
        for _, value in sorted(group.items()):
            if isinstance(value, dict):
                parts.extend(arr.tobytes() for _, arr in sorted(value.items()))
            else:
                parts.append(np.asarray(value).tobytes())
    return b"".join(parts)


def _train(config):
    dataset = movielens(scale=0.08, seed=3)
    model = SUPA.for_dataset(dataset, config=config)
    trainer = InsLearnTrainer(
        model,
        InsLearnConfig(
            batch_size=BATCH_SIZE,
            max_iterations=4,
            validation_interval=2,
            validation_size=20,
            seed=1,
        ),
    )
    reports = []
    batches = list(dataset.stream.sequential_batches(BATCH_SIZE))[:N_BATCHES]
    for i, batch in enumerate(batches):
        reports.append(trainer.train_one_batch(batch, batch_index=i))
    return model, reports


def _assert_engines_agree(config):
    ref_model, ref_reports = _train(config.with_overrides(engine="reference"))
    bat_model, bat_reports = _train(config.with_overrides(engine="batched"))
    assert _state_bytes(ref_model) == _state_bytes(bat_model)
    for ref, bat in zip(ref_reports, bat_reports):
        assert ref.mean_loss == bat.mean_loss
        assert ref.best_score == bat.best_score
        assert ref.iterations_run == bat.iterations_run
        assert ref.touched_nodes == bat.touched_nodes
        assert isinstance(bat.touched_nodes, tuple)
        assert list(bat.touched_nodes) == sorted(set(bat.touched_nodes))
    # Both engines must consume *exactly* the same RNG draw sequence —
    # equal final generator state is the strongest witness of that.
    assert (
        ref_model.rng.bit_generator.state == bat_model.rng.bit_generator.state
    )


# ------------------------------------------------------------- golden sweep


@pytest.mark.parametrize("variant", sorted(VARIANT_BUILDERS))
def test_variant_parity(variant):
    _assert_engines_agree(make_variant(variant, SUPAConfig(seed=7)))


@pytest.mark.parametrize(
    "overrides",
    [
        {"use_propagation_decay": False},
        {"num_walks": 0},
        {"num_negatives": 0},
        {"walk_length": 5, "num_walks": 6},
        {"tau": 0.5},
        {"use_forgetting": False},
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
)
def test_walk_and_decay_config_parity(overrides):
    _assert_engines_agree(SUPAConfig(seed=7, **overrides))


def test_batched_engine_is_run_deterministic():
    """Two identically-seeded batched runs are byte-identical — the
    serving layer's replay logs and JSON exports depend on this."""
    model_a, reports_a = _train(SUPAConfig(seed=7, engine="batched"))
    model_b, reports_b = _train(SUPAConfig(seed=7, engine="batched"))
    assert _state_bytes(model_a) == _state_bytes(model_b)
    for a, b in zip(reports_a, reports_b):
        assert a.touched_nodes == b.touched_nodes
        assert a.mean_loss == b.mean_loss


# ------------------------------------------------------------ tracing parity


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_tracing_is_bitwise_neutral(engine):
    """Observability must never change the computation: a traced run and
    an untraced run of the same engine are byte-identical — model state,
    reports, and the consumed RNG stream."""
    plain_model, plain_reports = _train(SUPAConfig(seed=7, engine=engine))
    traced_model, traced_reports = _train(
        SUPAConfig(seed=7, engine=engine, trace=True)
    )
    assert _state_bytes(plain_model) == _state_bytes(traced_model)
    for plain, traced in zip(plain_reports, traced_reports):
        assert plain.mean_loss == traced.mean_loss
        assert plain.best_score == traced.best_score
        assert plain.touched_nodes == traced.touched_nodes
    assert (
        plain_model.rng.bit_generator.state
        == traced_model.rng.bit_generator.state
    )
    # the traced run actually recorded the training span tree
    spans = {s["name"] for s in traced_model.tracer.as_dict()["spans"]}
    assert "core.inslearn.batch" in spans


def test_engines_agree_with_tracing_enabled():
    """The cross-engine bitwise contract holds under tracing too."""
    _assert_engines_agree(SUPAConfig(seed=7, trace=True))


# ------------------------------------------------- finite-difference checks


def _fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar ``f`` w.r.t. array ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = x.copy()
        bumped[idx] = x[idx] + eps
        hi = f(bumped)
        bumped[idx] = x[idx] - eps
        lo = f(bumped)
        grad[idx] = (hi - lo) / (2.0 * eps)
    return grad


def _assert_close(analytic, numeric, tol=5e-5):
    scale = np.maximum(1.0, np.abs(numeric))
    assert np.max(np.abs(analytic - numeric) / scale) < tol


class TestTargetKernelGradients:
    """Eq. 5 analytic backward vs finite differences, per ablation."""

    def _inputs(self, rng, n=4, dim=6):
        return (
            rng.normal(size=(n, dim)),
            rng.normal(size=(n, dim)),
            rng.normal(size=n),
            rng.uniform(0.1, 2.0, size=n),
            rng.normal(size=(n, dim)),  # weights defining the scalar loss
        )

    def _loss(self, long_rows, short_rows, alpha, deltas, w, cfg):
        h_star, _, _, _ = kernels.target_forward(
            long_rows, short_rows, alpha, deltas, cfg
        )
        return float((w * h_star).sum())

    @pytest.mark.parametrize(
        "cfg",
        [
            SUPAConfig(),
            SUPAConfig(use_forgetting=False),
            SUPAConfig(use_short_term=False),
        ],
        ids=["full", "no-forgetting", "no-short-term"],
    )
    def test_target_backward_matches_fd(self, cfg):
        rng = np.random.default_rng(11)
        long_rows, short_rows, alpha, deltas, w = self._inputs(rng)
        _, gamma, x, sig = kernels.target_forward(
            long_rows, short_rows, alpha, deltas, cfg
        )
        grad_long, grad_short, grad_alpha = kernels.target_backward(
            w, short_rows, alpha, gamma, x, deltas, cfg, sig=sig
        )
        _assert_close(
            grad_long,
            _fd_grad(
                lambda a: self._loss(a, short_rows, alpha, deltas, w, cfg),
                long_rows,
            ),
        )
        fd_short = _fd_grad(
            lambda a: self._loss(long_rows, a, alpha, deltas, w, cfg), short_rows
        )
        if grad_short is None:
            assert not cfg.use_short_term
            _assert_close(np.zeros_like(short_rows), fd_short)
        else:
            _assert_close(grad_short, fd_short)
        fd_alpha = _fd_grad(
            lambda a: self._loss(long_rows, short_rows, a, deltas, w, cfg), alpha
        )
        if grad_alpha is None:
            assert not (cfg.use_short_term and cfg.use_forgetting)
            _assert_close(np.zeros_like(alpha), fd_alpha)
        else:
            _assert_close(grad_alpha, fd_alpha)

    def test_sig_reuse_is_bitwise_neutral(self):
        """Passing the forward's sigma(alpha) to the backward must be a
        pure recomputation skip — identical bits either way."""
        rng = np.random.default_rng(12)
        cfg = SUPAConfig()
        long_rows, short_rows, alpha, deltas, w = self._inputs(rng)
        _, gamma, x, sig = kernels.target_forward(
            long_rows, short_rows, alpha, deltas, cfg
        )
        with_sig = kernels.target_backward(
            w, short_rows, alpha, gamma, x, deltas, cfg, sig=sig
        )
        without = kernels.target_backward(
            w, short_rows, alpha, gamma, x, deltas, cfg
        )
        for a, b in zip(with_sig, without):
            assert a.tobytes() == b.tobytes()


class TestPropagationKernelGradients:
    """Eq. 10 propagation: fused kernel FD check + fused == split."""

    def _inputs(self, rng, hops=5, dim=6):
        return (
            rng.normal(size=(hops, dim)),
            rng.normal(size=(2, dim)),
            rng.integers(0, 2, size=hops),
            rng.uniform(0.1, 1.0, size=hops),
        )

    def test_fused_matches_fd(self):
        rng = np.random.default_rng(21)
        ctx, h_star, sides, cums = self._inputs(rng)
        loss, ctx_grads, side_grads = kernels.propagation_forward_backward(
            ctx, h_star, sides, cums
        )
        _assert_close(
            ctx_grads,
            _fd_grad(
                lambda a: kernels.propagation_forward_backward(
                    a, h_star, sides, cums
                )[0],
                ctx,
            ),
        )
        _assert_close(
            side_grads,
            _fd_grad(
                lambda a: kernels.propagation_forward_backward(
                    ctx, a, sides, cums
                )[0],
                h_star,
            ),
        )

    def test_fused_equals_split_bitwise(self):
        """The fused kernel is a pure composition of forward + backward:
        same ufuncs in the same order, so identical bits."""
        rng = np.random.default_rng(22)
        ctx, h_star, sides, cums = self._inputs(rng)
        scores, loss = kernels.propagation_forward(ctx, h_star, sides, cums)
        ctx_grads, side_grads = kernels.propagation_backward(
            ctx, h_star, sides, cums, scores
        )
        f_loss, f_ctx, f_sides = kernels.propagation_forward_backward(
            ctx, h_star, sides, cums
        )
        assert np.float64(f_loss).tobytes() == np.float64(loss).tobytes()
        assert f_ctx.tobytes() == ctx_grads.tobytes()
        assert f_sides.tobytes() == side_grads.tobytes()

    def test_negative_kernel_matches_fd(self):
        rng = np.random.default_rng(23)
        ctx = rng.normal(size=(5, 6))
        h_star = rng.normal(size=6)
        loss, ctx_grads, grad_h = kernels.negative_forward_backward(ctx, h_star)
        _assert_close(
            ctx_grads,
            _fd_grad(
                lambda a: kernels.negative_forward_backward(a, h_star)[0], ctx
            ),
        )
        _assert_close(
            grad_h,
            _fd_grad(
                lambda a: kernels.negative_forward_backward(ctx, a)[0], h_star
            ),
        )


class TestFactorKernels:
    """Eq. 8-9 weighting kernels vs their scalar-loop references."""

    def test_edge_factors_match_scalar(self):
        cfg = SUPAConfig(tau=1.5)
        rng = np.random.default_rng(31)
        deltas = np.concatenate(
            [
                rng.uniform(-0.5, 3.0, size=40),
                [0.0, cfg.tau, np.nextafter(cfg.tau, np.inf), -0.25],
            ]
        )
        vectorised = kernels.edge_factors(deltas, cfg)
        scalar = np.asarray(
            [
                0.0 if d > cfg.tau else float(g_decay(max(float(d), 0.0)))
                for d in deltas
            ],
            dtype=np.float64,
        )
        assert vectorised.tobytes() == scalar.tobytes()

    def test_edge_factors_decay_ablation_is_ones(self):
        cfg = SUPAConfig(use_propagation_decay=False)
        deltas = np.asarray([0.0, 5.0, 100.0], dtype=np.float64)
        assert (kernels.edge_factors(deltas, cfg) == 1.0).all()

    def test_walk_cumulative_factors_match_scalar(self):
        rng = np.random.default_rng(32)
        lengths = [3, 1, 4, 2, 3]
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        factors = rng.uniform(0.2, 1.0, size=int(offsets[-1]))
        factors[2] = 0.0  # terminate walk 0 at its last hop
        factors[4] = 0.0  # kill walk 2 at its first hop
        cum, keep = kernels.walk_cumulative_factors(factors, offsets)
        exp_cum = np.zeros_like(factors)
        exp_keep = np.zeros(factors.shape, dtype=bool)
        for w in range(len(lengths)):
            carry = 1.0
            for i in range(int(offsets[w]), int(offsets[w + 1])):
                if factors[i] == 0.0:
                    break
                carry *= factors[i]
                exp_cum[i] = carry
                exp_keep[i] = True
        assert cum.tobytes() == exp_cum.tobytes()
        assert (keep == exp_keep).all()

    def test_walk_cumulative_factors_empty(self):
        cum, keep = kernels.walk_cumulative_factors(
            np.empty(0, dtype=np.float64), np.zeros(1, dtype=np.int64)
        )
        assert cum.size == 0 and keep.size == 0


class TestAccumulateRows:
    def test_matches_dict_accumulation(self):
        rng = np.random.default_rng(41)
        rows = rng.integers(0, 6, size=12)
        grads = rng.normal(size=(12, 5))
        unique, summed = kernels.accumulate_rows(rows, grads)
        acc = {}
        for r, g in zip(rows, grads):
            if int(r) in acc:
                acc[int(r)] = acc[int(r)] + g
            else:
                acc[int(r)] = g.copy()
        exp_rows = np.asarray(sorted(acc), dtype=np.int64)
        exp = np.stack([acc[int(r)] for r in exp_rows])
        assert unique.tobytes() == exp_rows.tobytes()
        assert summed.tobytes() == exp.tobytes()

    def test_all_unique_rows_pass_through_bitwise(self):
        """The no-duplicate fast path must return the input bits — in
        particular it must not flip ``-0.0`` to ``+0.0``."""
        rows = np.asarray([3, 1, 7], dtype=np.int64)
        grads = np.asarray(
            [[-0.0, 1.0], [2.0, -0.0], [-0.5, 0.25]], dtype=np.float64
        )
        out_rows, out = kernels.accumulate_rows(rows, grads)
        assert out_rows.tobytes() == rows.tobytes()
        assert out.tobytes() == grads.tobytes()
