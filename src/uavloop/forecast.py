"""Trainable window predictor: a two-layer MLP over flattened windows.

The network maps a flattened (seq_len, D) window to a flattened
(horizon, D) output through one ReLU hidden layer.  Parameters live in a
single flat float64 vector laid out as [W1, b1, W2, b2] so checkpointing,
perturbation and gradient checking all operate on one array.

Training is plain mini-batch gradient descent on the mean squared error,
with the mean taken over every output element of the batch.  Gradients are
hand-derived and validated against central finite differences.  An epoch's
train_mse is the size-weighted mean of its batch losses, as Keras reports it.

``Predictor._forward`` is the one forward body, for an SGD batch in
``loss_and_grad`` and for each row block of ``Predictor.blocks``, the one
loop of every full-set pass (``predict_batch``, ``loss`` and
``detect.record_losses``), whose blocks are ``telemetry.row_blocks``.
Blocks equal one pass over the whole set bit for bit, but ``loss`` sums each
block's squared errors as it goes, so on more than one block its last bit
can differ from ``np.mean`` over the whole set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DimensionError, DivergenceError, NumericError
from .telemetry import BLOCK_ROWS, NormStats, WindowedDataset, read_text, row_blocks, write_text

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

    @property
    def mode(self) -> str:
        """The window mode: a horizon of seq_len rows is the window itself, reconstructed."""
        return "reconstruction" if self.horizon == self.seq_len else "forecast"


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

    def _unpack(self, params=None):
        """W1, b1, W2, b2 as views of params, or of the predictor's own when None."""
        params = self.params if params is None else np.asarray(params, dtype=np.float64)
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

    def _checked(self, windows, targets=None):
        """windows as (W, seq_len, D) float64 and targets, when given, as (W, horizon, D).

        A 2-D window or target stands for a set of one.
        """
        checked = []
        for name, a, steps in (
            ("windows", windows, self.config.seq_len),
            ("targets", targets, self.config.horizon),
        ):
            if a is not None:
                a = np.asarray(a, dtype=np.float64)
                if a.ndim == 2:
                    a = a[None]
                if a.ndim != 3 or a.shape[1:] != (steps, self.feature_count):
                    raise DimensionError(
                        f"expected {name} of shape (W, {steps}, {self.feature_count}), "
                        f"got {a.shape}"
                    )
            checked.append(a)
        x, y = checked
        if y is not None and x.shape[0] != y.shape[0]:
            raise DimensionError("window and target counts differ")
        return x, y

    def _forward(self, x: np.ndarray, params=None, y=None, hidden=None, out=None):
        """Hidden layer and flat outputs of (W, seq_len, D) windows, less targets y if given.

        hidden and out, when given, are the (W, fcn_dim) and (W, n_out) arrays to fill.
        """
        w1, b1, w2, b2 = self._unpack(params)
        hidden = np.matmul(x.reshape(x.shape[0], self.n_in), w1, out=hidden)
        hidden += b1
        np.maximum(hidden, 0.0, out=hidden)
        out = np.matmul(hidden, w2, out=out)
        out += b2
        if y is not None:
            out -= y.reshape(y.shape[0], self.n_out)
        return hidden, out

    def blocks(self, windows, targets=None, params=None):
        """Yield (rows, block) for each row block of the windows, in row order.

        block is the rows' flat (rows, n_out) outputs or, with targets, their
        squared errors, in one output buffer that the next block overwrites.
        """
        x, y = self._checked(windows, targets)
        # Buffers reused by every block: a fresh one per block is freed and
        # faulted in again whenever glibc trims the heap in between.
        size = min(x.shape[0], BLOCK_ROWS + 1)
        hidden = np.empty((size, self.config.fcn_dim))
        out = np.empty((size, self.n_out))
        for rows in row_blocks(x.shape[0]):
            n = rows.stop - rows.start
            _, o = self._forward(
                x[rows], params, None if y is None else y[rows], hidden[:n], out[:n]
            )
            if y is not None:
                np.square(o, out=o)
            yield rows, o

    def predict_batch(self, windows) -> np.ndarray:
        x, _ = self._checked(windows)
        out = np.empty((x.shape[0], self.n_out))
        for rows, block in self.blocks(x):
            out[rows] = block
        return out.reshape(x.shape[0], self.config.horizon, self.feature_count)

    def loss(self, windows, targets, params=None) -> float:
        """Mean squared error over every output element of every window."""
        total = 0.0
        count = 0
        for rows, sq in self.blocks(windows, targets, params):
            total += float(np.sum(sq))
            count = rows.stop
        if count == 0:
            raise DimensionError("cannot take the loss of zero windows")
        return total / (count * self.n_out)

    def loss_and_grad(self, windows, targets, params=None):
        x, y = self._checked(windows, targets)
        hidden, diff = self._forward(x, params, y)
        loss = float(np.mean(diff**2))
        # MSE over all elements: d loss / d out = 2 * diff / diff.size.
        diff *= 2.0
        diff /= diff.size
        grad = np.empty(self.params.size)
        dw1, db1, dw2, db2 = self._unpack(grad)
        w2 = self._unpack(params)[2]
        np.matmul(hidden.T, diff, out=dw2)
        np.sum(diff, axis=0, out=db2)
        dpre = diff @ w2.T
        # ReLU: no gradient where the pre-activation was not positive.
        np.copyto(dpre, 0.0, where=hidden <= 0.0)
        np.matmul(x.reshape(x.shape[0], self.n_in).T, dpre, out=dw1)
        np.sum(dpre, axis=0, out=db1)
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
    """train_mse: size-weighted mean of the epoch's batch losses, each taken
    before its step.  val_mse: validation-set MSE after the epoch's last step."""

    train_mse: float
    val_mse: float | None = None


def train(
    predictor: Predictor,
    train_data: WindowedDataset,
    val_data: WindowedDataset | None = None,
) -> Predictor:
    """Mini-batch gradient descent; returns a new predictor with history.

    Batch order is reshuffled each epoch from a dedicated seeded stream.  A
    non-finite loss raises DivergenceError naming the epoch and batch.  No
    forward pass runs over the whole training set (see EpochStats).
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
            total = 0.0
            for start in range(0, n, cfg.batch_size):
                batch = order[start : start + cfg.batch_size]
                xb = x[batch]
                # A reconstruction batch is its own target: gather it once.
                loss, grad = predictor.loss_and_grad(xb, xb if y is x else y[batch], params)
                if not math.isfinite(loss):
                    raise DivergenceError(
                        f"training diverged at epoch {epoch}, batch {start // cfg.batch_size}"
                    )
                total += loss * batch.size
                grad *= cfg.learning_rate
                params -= grad
            train_mse = total / n
            # No batch loss sees the parameters of an epoch's last step.
            if not (math.isfinite(train_mse) and np.isfinite(params).all()):
                raise DivergenceError(f"training diverged at epoch {epoch} (end of epoch)")
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
    """Squared and absolute errors over all windows, and per horizon step.

    Weights that overflow the forward pass raise NumericError.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        diff = predictor.predict_batch(data.inputs)
        diff -= data.targets
        sq = np.square(diff)
        err = np.abs(diff, out=diff)
        mse_h = np.mean(sq, axis=(0, 2))
        mae_h = np.mean(err, axis=(0, 2))
        mse, mae = float(np.mean(sq)), float(np.mean(err))
    # Errors are non-negative, so finite totals mean finite per-step values.
    if not (math.isfinite(mse) and math.isfinite(mae)):
        raise NumericError("forecast produced non-finite errors")
    return EvalReport(
        mse=mse,
        mae=mae,
        per_horizon_mse=tuple(float(v) for v in mse_h),
        per_horizon_mae=tuple(float(v) for v in mae_h),
    )


def persistence_predictions(data: WindowedDataset) -> np.ndarray:
    """Hold-last-value baseline: repeat each window's final row horizon times."""
    last = data.inputs[:, -1, :]
    h = data.targets.shape[1]
    return np.repeat(last[:, None, :], h, axis=1)


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
    write_text(path, "\n".join(lines) + "\n")


def _checkpoint_number(path: str, line: int, text: str) -> float:
    """A checkpoint value as a finite float, else a ConfigError naming its line."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ConfigError(f"{path} line {line}: expected a finite number, got {text!r}")
    return value


def load_predictor(path: str) -> Predictor:
    lines = read_text(path).splitlines()
    if not lines or lines[0] != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path} is not a predictor checkpoint")
    # Header keys nothing reads, such as older checkpoints' model_dim, are ignored.
    fields: dict[str, str] = {}
    line_of: dict[str, int] = {}
    i = 1
    while i < len(lines) and not lines[i].startswith("params="):
        key, _, value = lines[i].partition("=")
        fields[key] = value
        line_of[key] = i + 1
        i += 1
    if i == len(lines):
        raise ConfigError(f"{path}: checkpoint is missing its parameter block")
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
        raise ConfigError(f"{path}: malformed checkpoint header: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    values = lines[i + 1 : i + 1 + n_params]
    if len(values) != n_params:
        raise ConfigError(
            f"{path}: checkpoint declares {n_params} parameters but holds {len(values)}"
        )
    params = np.array(
        [_checkpoint_number(path, i + 2 + k, v) for k, v in enumerate(values)],
        dtype=np.float64,
    )
    names, stats = (), None
    if fields.get("norm", "none") != "none":
        names = tuple(fields["norm"].split(","))
        stats = []
        for key in ("mean", "std"):
            if key not in fields:
                raise ConfigError(f"{path}: checkpoint has norm= but no {key}= line")
            at = line_of[key]
            stats.append(np.array([_checkpoint_number(path, at, v) for v in fields[key].split(",")]))
    history: list[EpochStats] = []
    if fields.get("history"):
        at = line_of["history"]
        for item in fields["history"].split(";"):
            t, _, v = item.partition(":")
            history.append(
                EpochStats(
                    train_mse=_checkpoint_number(path, at, t),
                    val_mse=_checkpoint_number(path, at, v) if v else None,
                )
            )
    try:
        return Predictor(
            config=cfg,
            feature_count=feature_count,
            params=params,
            norm_stats=None if stats is None else NormStats(names, *stats),
            history=tuple(history),
        )
    except (DimensionError, NumericError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
