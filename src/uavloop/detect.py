"""Anomaly detection: scorer losses, threshold, flags, metrics.

A scorer is any object with a ``losses(matrix)`` method that maps an
``(N, D)`` feature matrix to ``(N,)`` finite per-record losses, such as
``tiersim.PersistenceDetector`` or ``tiersim.PredictorDetector``.
``detect`` is the one decision rule: score every record, pick a loss
threshold as the (100 - anomaly_ratio) nearest-rank percentile of a
reference loss pool, flag records whose loss strictly exceeds it, and score
the flags against ground truth with a standard confusion matrix.

``record_losses`` folds the squared-error row blocks of
``forecast.Predictor.blocks`` into each record's mean over its windows, one
strided slice-add per target offset, so no record-index array is built.

The metric names live here alone.  ``METRIC_NAMES`` holds every metric key
of ``metrics.json`` (each null when a run has no labels) and of the
``metrics`` object in ``report.jsonl`` and ``stats.json``; ``sweep_csv``
writes the ``RATIO_NAMES`` columns of both ``sweep.csv`` tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .telemetry import WindowedDataset, table_blocks

# anomaly_ratio is read at micro-percent resolution so the nearest-rank index
# can be computed in exact integer arithmetic; ceil(0.8 * 4000) = 3201 in
# float, so a naive implementation drifts off by one at some sizes.
_RATIO_SCALE = 10**6

THRESHOLD_SOURCES = ("train", "eval")
RATIO_NAMES = ("accuracy", "precision", "recall", "f_score")
METRIC_NAMES = (*RATIO_NAMES, "tp", "tn", "fp", "fn")


def pointwise_loss(predicted, truth) -> np.ndarray:
    """Per-record loss: mean over features of the squared error."""
    p = np.asarray(predicted, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape:
        raise DimensionError(f"shape mismatch: predicted {p.shape} vs truth {t.shape}")
    if p.ndim == 1:
        p = p[:, None]
        t = t[:, None]
    if p.ndim != 2:
        raise DimensionError(f"expected (N, D) matrices, got shape {p.shape}")
    return np.mean((p - t) ** 2, axis=1)


def percentile_threshold(losses, anomaly_ratio: float) -> float:
    """Nearest-rank (100 - anomaly_ratio) percentile of the losses.

    Sort ascending and take the 1-based element at ceil((100 - A)/100 * N),
    clamped to [1, N].
    """
    values = np.asarray(losses, dtype=np.float64).ravel()
    if values.size == 0:
        raise NumericError("cannot take a percentile of an empty loss vector")
    a = float(anomaly_ratio)
    if not (0.0 < a < 100.0):
        raise ConfigError(f"anomaly_ratio must be in (0, 100), got {anomaly_ratio}")
    n = values.size
    keep = 100 * _RATIO_SCALE - round(a * _RATIO_SCALE)
    rank = -((-keep * n) // (100 * _RATIO_SCALE))
    rank = min(max(int(rank), 1), n)
    return float(np.sort(values)[rank - 1])


def flag(losses, threshold: float) -> np.ndarray:
    """Strictly-greater-than comparison per record."""
    values = np.asarray(losses, dtype=np.float64)
    if not np.isfinite(threshold):
        raise NumericError(f"threshold must be finite, got {threshold}")
    return values > threshold


@dataclass(frozen=True)
class Metrics:
    """Confusion counts and the derived ratios.

    accuracy is (tp + tn) / total.  Ratios whose denominator is zero are
    reported as 0.0 and listed by name in ``undefined``.
    """

    tp: int
    tn: int
    fp: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f_score: float
    undefined: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def evaluate(predicted, truth) -> Metrics:
    p = np.asarray(predicted, dtype=bool).ravel()
    t = np.asarray(truth, dtype=bool).ravel()
    if p.shape != t.shape:
        raise DimensionError(f"label length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise DimensionError("cannot evaluate empty label vectors")
    tp = int(np.count_nonzero(p & t))
    tn = int(np.count_nonzero(~p & ~t))
    fp = int(np.count_nonzero(p & ~t))
    fn = int(np.count_nonzero(~p & t))
    undefined: list[str] = []

    def ratio(name: str, numerator, denominator) -> float:
        if denominator > 0:
            return numerator / denominator
        undefined.append(name)
        return 0.0

    precision = ratio("precision", tp, tp + fp)
    recall = ratio("recall", tp, tp + fn)
    f_score = ratio("f_score", 2.0 * precision * recall, precision + recall)
    return Metrics(
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
        accuracy=(tp + tn) / p.size,
        precision=precision,
        recall=recall,
        f_score=f_score,
        undefined=tuple(undefined),
    )


def record_losses(predictor, dataset: WindowedDataset) -> np.ndarray:
    """Per-record losses, in record order, of every record a window covers.

    A record covered by several windows gets the mean of its per-window
    squared errors.  predictor.blocks(inputs, targets) yields each row block
    of windows with its (rows, horizon * D) squared errors, as
    ``forecast.Predictor.blocks`` does.  Each block's (rows, horizon) per-row
    errors are added into the record sums before the next block is scored,
    so no (W, horizon) array is built.  Target offset k of windows w0, w0 + 1,
    ... lands on records spaced ``stride`` apart, so each offset is one
    strided slice-add.  Offsets go in descending order and blocks in window
    order, so every sum gets its terms in window order.
    """
    count, horizon, stride = len(dataset), dataset.horizon, dataset.stride
    if count == 0:
        raise DimensionError("cannot take the loss of zero windows")
    # The last window's last target row is the last record any window covers.
    sums = np.zeros((count - 1) * stride + dataset.target_offset + horizon)
    counts = np.zeros(sums.size)
    # Weights that overflow the forward pass show up in the check below.
    with np.errstate(over="ignore", invalid="ignore"):
        for block, sq in predictor.blocks(dataset.inputs, dataset.targets):
            per_row = np.mean(sq.reshape(sq.shape[0], horizon, -1), axis=2)
            first = block.start * stride + dataset.target_offset
            for k in range(horizon - 1, -1, -1):
                sums[first + k :: stride][: per_row.shape[0]] += per_row[:, k]
    for k in range(horizon):
        counts[dataset.target_offset + k :: stride][:count] += 1.0
    covered = counts > 0
    losses = sums[covered] / counts[covered]
    if not np.isfinite(losses).all():
        raise NumericError("predictor produced non-finite losses")
    return losses


@dataclass(frozen=True)
class DetectionResult:
    losses: np.ndarray
    threshold: float
    predicted: np.ndarray
    truth: np.ndarray | None
    metrics: Metrics | None
    anomaly_ratio: float

    def __post_init__(self) -> None:
        losses = np.asarray(self.losses, dtype=np.float64)
        predicted = np.asarray(self.predicted, dtype=bool)
        if losses.shape != predicted.shape:
            raise DimensionError("losses and predictions must have equal length")
        if not np.array_equal(predicted, losses > self.threshold):
            raise NumericError("predicted labels are inconsistent with losses > threshold")
        if self.truth is not None:
            truth = np.asarray(self.truth, dtype=bool)
            if truth.shape != predicted.shape:
                raise DimensionError("truth length does not match predictions")
            truth.setflags(write=False)
            object.__setattr__(self, "truth", truth)
        for arr in (losses, predicted):
            arr.setflags(write=False)
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "predicted", predicted)


def detect(
    scorer,
    matrix,
    train_losses=None,
    anomaly_ratio: float = 20.0,
    *,
    labels=None,
    threshold_source: str = "train",
) -> DetectionResult:
    """Score every record of matrix, pick the threshold, flag, and evaluate.

    threshold_source selects which loss pool feeds the percentile: "train"
    uses train_losses, "eval" the evaluation losses themselves.  With labels
    (one per record) the flags are scored against them.
    """
    if threshold_source not in THRESHOLD_SOURCES:
        raise ConfigError(f"unknown threshold source {threshold_source!r}")
    n = len(matrix)
    losses = np.asarray(scorer.losses(matrix), dtype=np.float64)
    if losses.shape != (n,):
        raise DimensionError(f"scorer returned {losses.shape}, expected ({n},)")
    if not np.isfinite(losses).all():
        raise NumericError("scorer produced non-finite losses")
    pool = losses
    if threshold_source == "train":
        pool = None if train_losses is None else np.asarray(train_losses, dtype=np.float64).ravel()
        if pool is None or pool.size == 0:
            raise ConfigError("threshold_source='train' needs non-empty train_losses")
        if not np.isfinite(pool).all():
            raise NumericError("train_losses hold non-finite values")
    threshold = percentile_threshold(pool, anomaly_ratio)
    predicted = flag(losses, threshold)
    truth = None if labels is None else np.asarray(labels, dtype=bool).ravel()
    metrics = None if truth is None else evaluate(predicted, truth)
    return DetectionResult(
        losses=losses,
        threshold=threshold,
        predicted=predicted,
        truth=truth,
        metrics=metrics,
        anomaly_ratio=float(anomaly_ratio),
    )


def metrics_json(result: DetectionResult) -> str:
    m = result.metrics
    payload = dict.fromkeys(METRIC_NAMES) if m is None else m.as_dict()
    payload["threshold"] = result.threshold
    payload["anomaly_ratio"] = result.anomaly_ratio
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def records_csv(result: DetectionResult):
    """Per-record dump: index, loss, predicted, truth (truth blank if unknown).

    The text comes in ``table_blocks``' row blocks.
    """
    n = result.losses.size
    truth = np.full(n, np.nan) if result.truth is None else result.truth
    return table_blocks(
        ("index", "loss", "predicted", "truth"),
        (np.arange(n), result.losses, result.predicted, truth),
        frozenset(("index", "predicted", "truth")),
    )


def sweep_csv(columns: tuple[str, ...], cells, int_columns: frozenset[str], metrics):
    """CSV blocks of a sweep, one row per entry of metrics.

    The caller's columns and cells come first, then one column per ratio,
    blank in a row whose metrics are None.
    """
    ratios = ([np.nan if m is None else getattr(m, name) for m in metrics] for name in RATIO_NAMES)
    return table_blocks((*columns, *RATIO_NAMES), (*cells, *ratios), int_columns)
