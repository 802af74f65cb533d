import numpy as np
import pytest

from uavloop import forecast as fc
from uavloop.detect import record_losses
from uavloop.errors import ConfigError, DimensionError, DivergenceError, NumericError
from uavloop.forecast import (
    EpochStats,
    Predictor,
    PredictorConfig,
    evaluate_forecast,
    init_predictor,
    load_predictor,
    param_count,
    persistence_predictions,
    save_predictor,
    train,
)
from uavloop.telemetry import BLOCK_ROWS, NormStats, row_blocks, window_matrix

from support import (
    ar1_series,
    gradient_check,
    reference_forward,
    reference_loss,
    reference_loss_and_grad,
    reference_record_losses,
    reference_train,
)


def tiny_predictor():
    """1-in 1-out net with hidden width 2 and hand-set weights.

    W1=[1,-1], b1=[0.5,0.5], W2=[2,3]^T, b2=[0.25].
    x=2 -> pre=[2.5,-1.5] -> relu=[2.5,0] -> out=5.25
    """
    cfg = PredictorConfig(seq_len=1, horizon=1, fcn_dim=2, epochs=0, seed=0)
    params = np.array([1.0, -1.0, 0.5, 0.5, 2.0, 3.0, 0.25])
    return Predictor(config=cfg, feature_count=1, params=params)


class TestShapes:
    def test_param_count_frozen(self):
        cfg = PredictorConfig(seq_len=4, horizon=1, fcn_dim=64)
        # 24*64 + 64 + 64*6 + 6
        assert param_count(cfg, 6) == 1990

    def test_init_within_scale_and_seeded(self):
        cfg = PredictorConfig(seq_len=4, horizon=1, fcn_dim=64, seed=3)
        p = init_predictor(cfg, 6)
        scale = 1.0 / np.sqrt(24)
        assert p.params.shape == (1990,)
        assert np.abs(p.params).max() < scale
        q = init_predictor(cfg, 6)
        assert np.array_equal(p.params, q.params)
        r = init_predictor(PredictorConfig(seq_len=4, horizon=1, fcn_dim=64, seed=4), 6)
        assert not np.array_equal(p.params, r.params)

    def test_wrong_param_length_rejected(self):
        cfg = PredictorConfig(seq_len=2, horizon=1, fcn_dim=3)
        with pytest.raises(DimensionError):
            Predictor(config=cfg, feature_count=1, params=np.zeros(5))

    def test_non_finite_params_rejected(self):
        cfg = PredictorConfig(seq_len=1, horizon=1, fcn_dim=2)
        bad = np.zeros(param_count(cfg, 1))
        bad[0] = np.inf
        with pytest.raises(NumericError):
            Predictor(config=cfg, feature_count=1, params=bad)

    def test_predict_shapes(self):
        cfg = PredictorConfig(seq_len=3, horizon=2, fcn_dim=4)
        p = init_predictor(cfg, 5)
        one = p.predict_batch(np.zeros((3, 5)))[0]
        assert one.shape == (2, 5)
        many = p.predict_batch(np.zeros((7, 3, 5)))
        assert many.shape == (7, 2, 5)

    def test_window_shape_mismatch(self):
        cfg = PredictorConfig(seq_len=3, horizon=2, fcn_dim=4)
        p = init_predictor(cfg, 5)
        with pytest.raises(DimensionError):
            p.predict_batch(np.zeros((4, 5)))[0]

    def test_loss_of_zero_windows_rejected(self):
        p = init_predictor(PredictorConfig(seq_len=3, horizon=2, fcn_dim=4), 5)
        with pytest.raises(DimensionError, match="zero windows"):
            p.loss(np.zeros((0, 3, 5)), np.zeros((0, 2, 5)))


class TestForward:
    def test_hand_computed_forward(self):
        p = tiny_predictor()
        out = p.predict_batch(np.array([[2.0]]))[0]
        assert out[0, 0] == 5.25

    def test_relu_gates_negative_preactivation(self):
        p = tiny_predictor()
        # x=-2: pre=[-1.5, 2.5] -> relu picks the second unit: 2.5*3 + 0.25
        out = p.predict_batch(np.array([[-2.0]]))[0]
        assert out[0, 0] == 7.75

    def test_loss_is_elementwise_mse(self):
        p = tiny_predictor()
        loss = p.loss(np.array([[[2.0]]]), np.array([[[5.0]]]))
        assert loss == 0.0625
        both = p.loss(
            np.array([[[2.0]], [[-2.0]]]), np.array([[[5.25]], [[7.75]]])
        )
        assert both == 0.0


class TestGradients:
    def test_analytic_matches_finite_differences(self):
        cfg = PredictorConfig(seq_len=4, horizon=2, fcn_dim=8, seed=1)
        p = init_predictor(cfg, 3)
        rng = np.random.default_rng(5)
        window = rng.normal(size=(4, 3))
        target = rng.normal(size=(2, 3))
        err = gradient_check(p, window, target, n_params=150, seed=0)
        assert err < 1e-6

    def test_checks_whole_vector_when_small(self):
        p = tiny_predictor()
        err = gradient_check(p, np.array([[0.7]]), np.array([[1.0]]), n_params=100)
        assert err < 1e-8

    def test_batch_gradient_is_mean_consistent(self):
        # doubling every target residual doubles the gradient
        p = tiny_predictor()
        x = np.array([[[2.0]]])
        _, g1 = p.loss_and_grad(x, np.array([[[4.25]]]))  # residual 1
        _, g2 = p.loss_and_grad(x, np.array([[[3.25]]]))  # residual 2
        assert np.allclose(g2, 2.0 * g1)

    @pytest.mark.parametrize("rows", [1, 44, 128])
    @pytest.mark.parametrize("mode", ["reconstruction", "forecast"])
    def test_step_matches_reference_bit_for_bit(self, rows, mode):
        predictor, data = blocked_case(rows, mode)
        probe = predictor.params * 1.5
        loss, grad = predictor.loss_and_grad(data.inputs, data.targets, probe)
        want_loss, want_grad = reference_loss_and_grad(predictor, data.inputs, data.targets, probe)
        assert loss == want_loss
        assert grad.tobytes() == want_grad.tobytes()


class TestTraining:
    @staticmethod
    def toy_data(n=400, seed=0):
        data = ar1_series(n, phi=0.9, sigma=0.1, seed=seed)
        return window_matrix(data[:, None], 4, 1, "forecast", 1)

    def test_zero_epochs_returns_init(self):
        cfg = PredictorConfig(seq_len=4, horizon=1, fcn_dim=8, epochs=0, seed=2)
        p = init_predictor(cfg, 1)
        trained = train(p, self.toy_data())
        assert np.array_equal(trained.params, p.params)
        assert trained.history == ()

    def test_loss_decreases_and_history_recorded(self):
        cfg = PredictorConfig(
            seq_len=4, horizon=1, fcn_dim=8, epochs=10, learning_rate=0.05, seed=2
        )
        p = init_predictor(cfg, 1)
        data = self.toy_data()
        trained = train(p, data)
        assert len(trained.history) == 10
        assert trained.history[-1].train_mse < trained.history[0].train_mse
        # 396 windows: three batches of 128 and a last one of 12.
        _, batch_losses, _ = reference_train(p, data)
        for stats, epoch in zip(trained.history, batch_losses, strict=True):
            assert stats.train_mse == sum(loss * size for loss, size in epoch) / len(data)

    @pytest.mark.parametrize("mode", ["reconstruction", "forecast"])
    def test_params_and_val_loss_match_reference(self, mode):
        lead = 2 if mode == "forecast" else 0
        rng = np.random.default_rng(3)
        data = window_matrix(rng.normal(size=(300 + 15 + lead, 6)), 16, 1, mode, 2)
        val = window_matrix(rng.normal(size=(80 + 15 + lead, 6)), 16, 1, mode, 2)
        assert (data.targets is data.inputs) == (mode == "reconstruction")
        cfg = PredictorConfig(seq_len=16, horizon=data.horizon, fcn_dim=64, epochs=2, seed=5)
        assert len(data) % cfg.batch_size == 44
        p = init_predictor(cfg, 6)
        trained = train(p, data, val)
        params, batch_losses, val_losses = reference_train(p, data, val)
        assert trained.params.tobytes() == params.tobytes()
        assert [s.val_mse for s in trained.history] == val_losses
        assert [s.train_mse for s in trained.history] == [
            sum(loss * size for loss, size in epoch) / len(data) for epoch in batch_losses
        ]

    def test_val_history(self):
        cfg = PredictorConfig(seq_len=4, horizon=1, fcn_dim=8, epochs=3, seed=2)
        p = init_predictor(cfg, 1)
        trained = train(p, self.toy_data(), self.toy_data(seed=1))
        assert all(h.val_mse is not None for h in trained.history)
        no_val = train(p, self.toy_data())
        assert all(h.val_mse is None for h in no_val.history)

    def test_deterministic_given_seed(self):
        cfg = PredictorConfig(seq_len=4, horizon=1, fcn_dim=8, epochs=5, seed=9)
        a = train(init_predictor(cfg, 1), self.toy_data())
        b = train(init_predictor(cfg, 1), self.toy_data())
        assert np.array_equal(a.params, b.params)

    def test_divergence_names_epoch_and_batch(self):
        rng = np.random.default_rng(0)
        data = window_matrix(rng.normal(size=(200, 6)) * 100, 4, 1, "forecast", 1)
        cfg = PredictorConfig(
            seq_len=4, horizon=1, fcn_dim=8, epochs=5, learning_rate=1e3, seed=2
        )
        p = init_predictor(cfg, 6)
        with pytest.raises(DivergenceError) as err:
            train(p, data)
        assert "epoch" in str(err.value)
        assert "batch" in str(err.value)

    def test_divergence_at_the_last_step_names_the_epoch(self):
        # One batch per epoch: its loss is finite, but no later batch sees its step.
        series = ar1_series(100, phi=0.9, sigma=0.1, seed=0) * 1e3
        data = window_matrix(series[:, None], 4, 1, "forecast", 1)
        cfg = PredictorConfig(
            seq_len=4, horizon=1, fcn_dim=8, epochs=1, learning_rate=1e308,
            batch_size=len(data), seed=2,
        )
        with pytest.raises(DivergenceError, match="epoch 0"):
            train(init_predictor(cfg, 1), data)

    def test_feature_count_mismatch(self):
        cfg = PredictorConfig(seq_len=4, horizon=1, fcn_dim=8, epochs=1)
        p = init_predictor(cfg, 2)
        with pytest.raises(DimensionError):
            train(p, self.toy_data())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            PredictorConfig(seq_len=0, horizon=1)
        with pytest.raises(ConfigError):
            PredictorConfig(seq_len=1, horizon=1, epochs=-1)
        with pytest.raises(ConfigError):
            PredictorConfig(seq_len=1, horizon=1, learning_rate=0.0)


class TestEvaluation:
    def test_zero_model_reference(self):
        data = window_matrix(np.arange(10, dtype=float), 3, 1, "forecast", 2)
        cfg = PredictorConfig(seq_len=3, horizon=2, fcn_dim=4, epochs=0)
        p = init_predictor(cfg, 1).with_params(
            np.zeros(param_count(cfg, 1))
        )
        report = evaluate_forecast(p, data)
        assert report.mse == float((data.targets**2).mean())
        assert len(report.per_horizon_mse) == 2
        assert len(report.per_horizon_mae) == 2
        text = report.to_text()
        assert text.startswith("mse: ")
        assert "step 2:" in text

    def test_persistence_repeats_last_row(self):
        data = window_matrix(np.arange(8, dtype=float), 3, 1, "forecast", 2)
        base = persistence_predictions(data)
        assert base.shape == data.targets.shape
        # window [0,1,2] -> predicts [2,2] for targets [3,4]
        assert base[0].ravel().tolist() == [2.0, 2.0]

    def test_persistence_on_reconstruction_windows(self):
        data = window_matrix(np.arange(6, dtype=float), 3)
        base = persistence_predictions(data)
        assert base.shape == data.targets.shape
        assert base[0].ravel().tolist() == [2.0, 2.0, 2.0]


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        stats = NormStats(
            ("gyro_rad_0", "gyro_rad_1"),
            np.array([0.25, -1.5]),
            np.array([1.5, 2.0]),
        )
        cfg = PredictorConfig(
            seq_len=3, horizon=2, fcn_dim=4, epochs=2, learning_rate=0.05, seed=8
        )
        p = init_predictor(cfg, 2, norm_stats=stats)
        data = window_matrix(np.random.default_rng(0).normal(size=(40, 2)), 3, 1, "forecast", 2)
        p = train(p, data)
        path = tmp_path / "model.ckpt"
        save_predictor(p, str(path))
        q = load_predictor(str(path))
        assert q.config == p.config
        assert q.feature_count == 2
        assert np.array_equal(q.params, p.params)
        assert q.history == p.history
        assert q.norm_stats.feature_names == stats.feature_names
        assert np.array_equal(q.norm_stats.mean, stats.mean)
        assert np.array_equal(q.norm_stats.std, stats.std)

    def test_round_trip_without_norm_stats(self, tmp_path):
        cfg = PredictorConfig(seq_len=2, horizon=1, fcn_dim=3)
        p = init_predictor(cfg, 1)
        path = tmp_path / "m.ckpt"
        save_predictor(p, str(path))
        assert load_predictor(str(path)).norm_stats is None

    def test_legacy_model_dim_line_ignored(self, tmp_path):
        cfg = PredictorConfig(seq_len=2, horizon=2, fcn_dim=3)
        p = init_predictor(cfg, 1)
        path = tmp_path / "m.ckpt"
        save_predictor(p, str(path))
        lines = path.read_text().splitlines()
        assert not any(line.startswith("model_dim=") for line in lines)
        legacy = tmp_path / "legacy.ckpt"
        legacy.write_text("\n".join(lines[:3] + ["model_dim=64"] + lines[3:]) + "\n")
        q = load_predictor(str(legacy))
        assert q.config == p.config
        assert np.array_equal(q.params, p.params)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("not-a-checkpoint\n")
        with pytest.raises(ConfigError):
            load_predictor(str(path))

    def test_truncated_params_rejected(self, tmp_path):
        cfg = PredictorConfig(seq_len=2, horizon=1, fcn_dim=3)
        p = init_predictor(cfg, 1)
        path = tmp_path / "m.ckpt"
        save_predictor(p, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ConfigError):
            load_predictor(str(path))


class TestEpochStats:
    def test_fields(self):
        s = EpochStats(train_mse=0.5, val_mse=None)
        assert s.train_mse == 0.5 and s.val_mse is None


# 2 * BLOCK + 1 leaves a 1-row tail, BLOCK - 1 fits in one block, 1 is a single row.
BLOCK_WINDOW_COUNTS = (2 * BLOCK_ROWS + 1, BLOCK_ROWS - 1, 1)


def blocked_case(count, mode="reconstruction", stride=1):
    """A predictor of mission-nth's shape and exactly ``count`` windows ``stride`` apart."""
    seq_len, width, horizon = 16, 6, 2
    lead = horizon if mode == "forecast" else 0
    rng = np.random.default_rng(count)
    matrix = rng.normal(size=((count - 1) * stride + seq_len + lead, width))
    data = window_matrix(matrix, seq_len, stride, mode, horizon)
    assert len(data) == count
    cfg = PredictorConfig(
        seq_len=seq_len, horizon=data.horizon, fcn_dim=64, seed=count % 1000
    )
    return init_predictor(cfg, width), data


class TestBlockedPassesMatchOnePass:
    """Full-set passes run in row blocks and must equal the one-pass forms bit for bit."""

    @pytest.mark.parametrize("count", BLOCK_WINDOW_COUNTS)
    def test_predict_batch(self, count):
        predictor, data = blocked_case(count)
        want = reference_forward(predictor, data.inputs).reshape(data.targets.shape)
        assert predictor.predict_batch(data.inputs).tobytes() == want.tobytes()

    @pytest.mark.parametrize("count", BLOCK_WINDOW_COUNTS)
    def test_loss(self, count):
        predictor, data = blocked_case(count)
        probe = predictor.params * 1.5
        got = predictor.loss(data.inputs, data.targets, probe)
        assert got == reference_loss(predictor, data.inputs, data.targets, probe)

    @pytest.mark.parametrize("count", BLOCK_WINDOW_COUNTS)
    def test_record_losses(self, count):
        predictor, data = blocked_case(count)
        got = record_losses(predictor, data)
        want = reference_record_losses(predictor, data)
        assert got.tobytes() == want.tobytes()

    # Stride 20 exceeds seq_len 16, so four records between windows go uncovered.
    @pytest.mark.parametrize(
        "mode, stride", [("reconstruction", 3), ("reconstruction", 20), ("forecast", 1), ("forecast", 3)]
    )
    def test_record_losses_by_stride_and_offset(self, mode, stride):
        count = 2 * BLOCK_ROWS + 1
        predictor, data = blocked_case(count, mode, stride)
        got = record_losses(predictor, data)
        want = reference_record_losses(predictor, data)
        assert got.tobytes() == want.tobytes()
        if stride > 16:
            assert got.size == count * 16

    @pytest.mark.parametrize("count", BLOCK_WINDOW_COUNTS)
    def test_evaluate_forecast(self, count):
        predictor, data = blocked_case(count, mode="forecast")
        preds = reference_forward(predictor, data.inputs).reshape(data.targets.shape)
        diff = preds - data.targets
        report = evaluate_forecast(predictor, data)
        assert report.mse == float(np.mean(diff**2))
        assert report.mae == float(np.mean(np.abs(diff)))
        assert report.per_horizon_mse == tuple(np.mean(diff**2, axis=(0, 2)).tolist())
        assert report.per_horizon_mae == tuple(np.mean(np.abs(diff), axis=(0, 2)).tolist())

    def test_blocks_cover_rows_with_no_lone_tail(self):
        block = BLOCK_ROWS
        for n in (0, 1, 2, block - 1, block, block + 1, block + 2, 3 * block + 1):
            sizes = [s.stop - s.start for s in row_blocks(n)]
            assert sum(sizes) == n
            assert all(size <= block + 1 for size in sizes)
            assert 1 not in sizes or n == 1
