"""Trainable window predictor: a two-layer MLP over flattened windows.

The network maps a flattened (seq_len, D) window to a flattened
(horizon, D) output through one ReLU hidden layer.  Parameters live in a
single flat float64 vector laid out as [W1, b1, W2, b2] so checkpointing,
perturbation and gradient checking all operate on one array.

Training is plain mini-batch gradient descent on the mean squared error,
with the mean taken over every output element of the batch.  Gradients are
hand-derived and validated against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, NumericError
from .telemetry import NormStats, WindowedDataset

CHECKPOINT_MAGIC = "uavloop-predictor-v1"


@dataclass(frozen=True)
class PredictorConfig:
    seq_len: int
    horizon: int
    fcn_dim: int = 64
    epochs: int = 3
    learning_rate: float = 0.02
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("seq_len", "horizon", "fcn_dim", "batch_size"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise ConfigError(f"{name} must be a positive integer, got {v!r}")
        if not isinstance(self.epochs, int) or self.epochs < 0:
            raise ConfigError(f"epochs must be a non-negative integer, got {self.epochs!r}")
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate!r}")


def param_count(config: PredictorConfig, feature_count: int) -> int:
    n_in = config.seq_len * feature_count
    n_out = config.horizon * feature_count
    return n_in * config.fcn_dim + config.fcn_dim + config.fcn_dim * n_out + n_out


@dataclass(frozen=True)
class Predictor:
    config: PredictorConfig
    feature_count: int
    params: np.ndarray
    norm_stats: NormStats | None = None
    history: tuple = ()

    def __post_init__(self) -> None:
        params = np.asarray(self.params, dtype=np.float64)
        expected = param_count(self.config, self.feature_count)
        if params.shape != (expected,):
            raise DimensionError(
                f"parameter vector must have shape ({expected},), got {params.shape}"
            )
        if not np.isfinite(params).all():
            raise NumericError("parameter vector contains non-finite values")
        params = params.copy()
        params.setflags(write=False)
        object.__setattr__(self, "params", params)

    @property
    def n_in(self) -> int:
        return self.config.seq_len * self.feature_count

    @property
    def n_out(self) -> int:
        return self.config.horizon * self.feature_count

    def _unpack(self, params: np.ndarray):
        n_in, hid, n_out = self.n_in, self.config.fcn_dim, self.n_out
        o = 0
        w1 = params[o : o + n_in * hid].reshape(n_in, hid)
        o += n_in * hid
        b1 = params[o : o + hid]
        o += hid
        w2 = params[o : o + hid * n_out].reshape(hid, n_out)
        o += hid * n_out
        b2 = params[o : o + n_out]
        return w1, b1, w2, b2

    def _flatten_inputs(self, windows) -> np.ndarray:
        x = np.asarray(windows, dtype=np.float64)
        if x.ndim == 2:
            x = x[None]
        if x.ndim != 3 or x.shape[1:] != (self.config.seq_len, self.feature_count):
            raise DimensionError(
                f"expected windows of shape (W, {self.config.seq_len}, "
                f"{self.feature_count}), got {x.shape}"
            )
        return x.reshape(x.shape[0], self.n_in)

    def _forward_flat(self, xf: np.ndarray, params: np.ndarray):
        w1, b1, w2, b2 = self._unpack(params)
        pre = xf @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        out = hidden @ w2 + b2
        return pre, hidden, out

    def predict_batch(self, windows) -> np.ndarray:
        xf = self._flatten_inputs(windows)
        _, _, out = self._forward_flat(xf, self.params)
        return out.reshape(xf.shape[0], self.config.horizon, self.feature_count)

    def predict(self, window) -> np.ndarray:
        return self.predict_batch(window)[0]

    def _flatten_targets(self, targets) -> np.ndarray:
        y = np.asarray(targets, dtype=np.float64)
        if y.ndim == 2:
            y = y[None]
        if y.ndim != 3 or y.shape[1:] != (self.config.horizon, self.feature_count):
            raise DimensionError(
                f"expected targets of shape (W, {self.config.horizon}, "
                f"{self.feature_count}), got {y.shape}"
            )
        return y.reshape(y.shape[0], self.n_out)

    def loss(self, windows, targets, params=None) -> float:
        p = self.params if params is None else np.asarray(params, dtype=np.float64)
        xf = self._flatten_inputs(windows)
        yf = self._flatten_targets(targets)
        if xf.shape[0] != yf.shape[0]:
            raise DimensionError("window and target counts differ")
        _, _, out = self._forward_flat(xf, p)
        return float(np.mean((out - yf) ** 2))

    def loss_and_grad(self, windows, targets, params=None):
        p = self.params if params is None else np.asarray(params, dtype=np.float64)
        xf = self._flatten_inputs(windows)
        yf = self._flatten_targets(targets)
        if xf.shape[0] != yf.shape[0]:
            raise DimensionError("window and target counts differ")
        w1, b1, w2, b2 = self._unpack(p)
        pre = xf @ w1 + b1
        hidden = np.maximum(pre, 0.0)
        out = hidden @ w2 + b2
        diff = out - yf
        loss = float(np.mean(diff**2))
        # MSE over all elements: d loss / d out = 2 * diff / diff.size.
        dout = 2.0 * diff / diff.size
        dw2 = hidden.T @ dout
        db2 = dout.sum(axis=0)
        dhidden = dout @ w2.T
        dpre = np.where(pre > 0.0, dhidden, 0.0)
        dw1 = xf.T @ dpre
        db1 = dpre.sum(axis=0)
        grad = np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])
        return loss, grad

    def with_params(self, params) -> "Predictor":
        return replace(self, params=np.asarray(params, dtype=np.float64))


def init_predictor(
    config: PredictorConfig, feature_count: int, norm_stats: NormStats | None = None
) -> Predictor:
    """Uniform init in (-s, s) with s = 1/sqrt(seq_len * feature_count)."""
    if feature_count < 1:
        raise ConfigError(f"feature_count must be positive, got {feature_count}")
    scale = 1.0 / math.sqrt(config.seq_len * feature_count)
    rng = np.random.default_rng([config.seed, 0])
    params = rng.uniform(-scale, scale, size=param_count(config, feature_count))
    return Predictor(config=config, feature_count=feature_count, params=params, norm_stats=norm_stats)


@dataclass(frozen=True)
class EpochStats:
    train_mse: float
    val_mse: float | None = None


def train(
    predictor: Predictor,
    train_data: WindowedDataset,
    val_data: WindowedDataset | None = None,
) -> Predictor:
    """Mini-batch gradient descent; returns a new predictor with history.

    Batch order is reshuffled each epoch from a dedicated seeded stream.  A
    non-finite loss raises DivergenceError naming the epoch and batch.
    """
    cfg = predictor.config
    if train_data.feature_count != predictor.feature_count:
        raise DimensionError("training data feature count does not match predictor")
    x = train_data.inputs
    y = train_data.targets
    if x.shape[0] == 0:
        raise ConfigError("cannot train on an empty dataset")
    rng = np.random.default_rng([cfg.seed, 1])
    params = predictor.params.copy()
    history = list(predictor.history)
    n = x.shape[0]
    # Overflow shows up as a non-finite loss, which is reported as a
    # divergence; the intermediate numpy warnings are just noise.
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                loss, grad = predictor.loss_and_grad(x[batch], y[batch], params)
                if not math.isfinite(loss):
                    raise DivergenceError(
                        f"training diverged at epoch {epoch}, batch {start // cfg.batch_size}"
                    )
                params -= cfg.learning_rate * grad
            train_mse = predictor.loss(x, y, params)
            if not math.isfinite(train_mse):
                raise DivergenceError(f"training diverged at epoch {epoch} (post-epoch loss)")
            val_mse = None
            if val_data is not None:
                val_mse = predictor.loss(val_data.inputs, val_data.targets, params)
            history.append(EpochStats(train_mse=train_mse, val_mse=val_mse))
    out = predictor.with_params(params)
    return replace(out, history=tuple(history))


@dataclass(frozen=True)
class EvalReport:
    mse: float
    mae: float
    per_horizon_mse: tuple
    per_horizon_mae: tuple

    def to_text(self) -> str:
        lines = [f"mse: {self.mse!r}", f"mae: {self.mae!r}"]
        for i, (m, a) in enumerate(zip(self.per_horizon_mse, self.per_horizon_mae), start=1):
            lines.append(f"step {i}: mse={m!r} mae={a!r}")
        return "\n".join(lines) + "\n"


def evaluate_forecast(predictor: Predictor, data: WindowedDataset) -> EvalReport:
    preds = predictor.predict_batch(data.inputs)
    diff = preds - data.targets
    mse_h = np.mean(diff**2, axis=(0, 2))
    mae_h = np.mean(np.abs(diff), axis=(0, 2))
    return EvalReport(
        mse=float(np.mean(diff**2)),
        mae=float(np.mean(np.abs(diff))),
        per_horizon_mse=tuple(float(v) for v in mse_h),
        per_horizon_mae=tuple(float(v) for v in mae_h),
    )


def persistence_predictions(data: WindowedDataset) -> np.ndarray:
    """Hold-last-value baseline: repeat each window's final row horizon times."""
    last = data.inputs[:, -1, :]
    h = data.targets.shape[1]
    return np.repeat(last[:, None, :], h, axis=1)


def gradient_check(
    predictor: Predictor,
    window,
    target,
    n_params: int = 100,
    delta: float = 1e-5,
    seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Checks a random sample of coordinates (all of them if the vector is
    small).  Relative error is |num - ana| / max(|num|, |ana|, 1e-12).
    """
    _, grad = predictor.loss_and_grad(window, target)
    total = grad.size
    rng = np.random.default_rng(seed)
    if n_params >= total:
        picks = np.arange(total)
    else:
        picks = rng.choice(total, size=n_params, replace=False)
    base = predictor.params.copy()
    worst = 0.0
    for i in picks:
        probe = base.copy()
        probe[i] = base[i] + delta
        up = predictor.loss(window, target, probe)
        probe[i] = base[i] - delta
        down = predictor.loss(window, target, probe)
        numeric = (up - down) / (2.0 * delta)
        analytic = grad[i]
        err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-12)
        worst = max(worst, err)
    return worst


def save_predictor(predictor: Predictor, path: str) -> None:
    cfg = predictor.config
    lines = [CHECKPOINT_MAGIC]
    for key in ("seq_len", "horizon", "fcn_dim", "epochs", "batch_size", "seed"):
        lines.append(f"{key}={getattr(cfg, key)}")
    lines.append(f"learning_rate={cfg.learning_rate!r}")
    lines.append(f"feature_count={predictor.feature_count}")
    ns = predictor.norm_stats
    if ns is None:
        lines.append("norm=none")
    else:
        lines.append("norm=" + ",".join(ns.feature_names))
        lines.append("mean=" + ",".join(repr(float(v)) for v in ns.mean))
        lines.append("std=" + ",".join(repr(float(v)) for v in ns.std))
    hist = ";".join(
        f"{s.train_mse!r}:{'' if s.val_mse is None else repr(s.val_mse)}"
        for s in predictor.history
    )
    lines.append("history=" + hist)
    lines.append(f"params={predictor.params.size}")
    lines.extend(repr(float(v)) for v in predictor.params)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_predictor(path: str) -> Predictor:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path} is not a predictor checkpoint")
    # Header keys nothing reads, such as older checkpoints' model_dim, are ignored.
    fields: dict[str, str] = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("params="):
        key, _, value = lines[i].partition("=")
        fields[key] = value
        i += 1
    if i == len(lines):
        raise ConfigError("checkpoint is missing its parameter block")
    try:
        cfg = PredictorConfig(
            seq_len=int(fields["seq_len"]),
            horizon=int(fields["horizon"]),
            fcn_dim=int(fields["fcn_dim"]),
            epochs=int(fields["epochs"]),
            learning_rate=float(fields["learning_rate"]),
            batch_size=int(fields["batch_size"]),
            seed=int(fields["seed"]),
        )
        feature_count = int(fields["feature_count"])
        n_params = int(lines[i].partition("=")[2])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed checkpoint header: {exc}") from exc
    values = lines[i + 1 : i + 1 + n_params]
    if len(values) != n_params:
        raise ConfigError(
            f"checkpoint declares {n_params} parameters but holds {len(values)}"
        )
    params = np.array([float(v) for v in values], dtype=np.float64)
    norm_stats = None
    if fields.get("norm", "none") != "none":
        names = tuple(fields["norm"].split(","))
        mean = np.array([float(v) for v in fields["mean"].split(",")])
        std = np.array([float(v) for v in fields["std"].split(",")])
        norm_stats = NormStats(feature_names=names, mean=mean, std=std)
    history: list[EpochStats] = []
    if fields.get("history"):
        for item in fields["history"].split(";"):
            t, _, v = item.partition(":")
            history.append(EpochStats(train_mse=float(t), val_mse=float(v) if v else None))
    return Predictor(
        config=cfg,
        feature_count=feature_count,
        params=params,
        norm_stats=norm_stats,
        history=tuple(history),
    )
