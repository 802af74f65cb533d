import numpy as np
import pytest

from uavloop.errors import ConfigError, DimensionError, DivergenceError, NumericError
from uavloop.forecast import (
    EpochStats,
    Predictor,
    PredictorConfig,
    evaluate_forecast,
    gradient_check,
    init_predictor,
    load_predictor,
    param_count,
    persistence_predictions,
    save_predictor,
    train,
)
from uavloop.synthetic import ar1_series
from uavloop.telemetry import NormStats, window_matrix


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
        one = p.predict(np.zeros((3, 5)))
        assert one.shape == (2, 5)
        many = p.predict_batch(np.zeros((7, 3, 5)))
        assert many.shape == (7, 2, 5)

    def test_window_shape_mismatch(self):
        cfg = PredictorConfig(seq_len=3, horizon=2, fcn_dim=4)
        p = init_predictor(cfg, 5)
        with pytest.raises(DimensionError):
            p.predict(np.zeros((4, 5)))


class TestForward:
    def test_hand_computed_forward(self):
        p = tiny_predictor()
        out = p.predict(np.array([[2.0]]))
        assert out[0, 0] == 5.25

    def test_relu_gates_negative_preactivation(self):
        p = tiny_predictor()
        # x=-2: pre=[-1.5, 2.5] -> relu picks the second unit: 2.5*3 + 0.25
        out = p.predict(np.array([[-2.0]]))
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
        assert trained.loss(data.inputs, data.targets) == trained.history[-1].train_mse

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
