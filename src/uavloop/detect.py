"""Anomaly detection: scorer losses, threshold, flags, metrics.

A scorer is any object with a ``losses(matrix)`` method that maps an
``(N, D)`` feature matrix to ``(N,)`` finite per-record losses, such as
``tiersim.PersistenceDetector`` or ``tiersim.PredictorDetector``.
``detect`` is the one decision rule: score every record, pick a loss
threshold as the (100 - anomaly_ratio) nearest-rank percentile of a
reference loss pool, flag records whose loss strictly exceeds it, and score
the flags against ground truth with a standard confusion matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .telemetry import WindowedDataset

# anomaly_ratio is read at micro-percent resolution so the nearest-rank index
# can be computed in exact integer arithmetic; ceil(0.8 * 4000) = 3201 in
# float, so a naive implementation drifts off by one at some sizes.
_RATIO_SCALE = 10**6

THRESHOLD_SOURCES = ("train", "eval", "pooled")


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
    anomaly_ratio: float | None = None
    undefined: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f_score": self.f_score,
            "tp": self.tp,
            "tn": self.tn,
            "fp": self.fp,
            "fn": self.fn,
        }


def evaluate(predicted, truth, anomaly_ratio: float | None = None) -> Metrics:
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
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision = 0.0
        undefined.append("precision")
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall = 0.0
        undefined.append("recall")
    if precision + recall > 0:
        f_score = 2.0 * precision * recall / (precision + recall)
    else:
        f_score = 0.0
        undefined.append("f_score")
    return Metrics(
        tp=tp,
        tn=tn,
        fp=fp,
        fn=fn,
        accuracy=(tp + tn) / p.size,
        precision=precision,
        recall=recall,
        f_score=f_score,
        anomaly_ratio=None if anomaly_ratio is None else float(anomaly_ratio),
        undefined=tuple(undefined),
    )


def record_losses(predictor, dataset: WindowedDataset) -> tuple[np.ndarray, np.ndarray]:
    """Per-record losses aggregated over every window covering each record.

    Returns (record_indices, losses); a record covered by several windows gets
    the mean of its per-window squared errors.
    """
    preds = predictor.predict_batch(dataset.inputs)
    if preds.shape != dataset.targets.shape:
        raise DimensionError(
            f"predictor output {preds.shape} does not match targets {dataset.targets.shape}"
        )
    width = dataset.feature_count
    per_row = pointwise_loss(preds.reshape(-1, width), dataset.targets.reshape(-1, width))
    rows = dataset.target_record_indices()
    size = int(rows.max()) + 1
    sums = np.zeros(size)
    counts = np.zeros(size)
    np.add.at(sums, rows.ravel(), per_row)
    np.add.at(counts, rows.ravel(), 1.0)
    covered = counts > 0
    indices = np.nonzero(covered)[0]
    losses = sums[covered] / counts[covered]
    if not np.isfinite(losses).all():
        raise NumericError("predictor produced non-finite losses")
    return indices.astype(np.int64), losses


@dataclass(frozen=True)
class DetectionResult:
    record_indices: np.ndarray
    losses: np.ndarray
    threshold: float
    predicted: np.ndarray
    truth: np.ndarray | None
    metrics: Metrics | None
    anomaly_ratio: float
    threshold_source: str

    def __post_init__(self) -> None:
        losses = np.asarray(self.losses, dtype=np.float64)
        predicted = np.asarray(self.predicted, dtype=bool)
        indices = np.asarray(self.record_indices, dtype=np.int64)
        if not (losses.shape == predicted.shape == indices.shape):
            raise DimensionError("losses, predictions and indices must have equal length")
        if not np.array_equal(predicted, losses > self.threshold):
            raise NumericError("predicted labels are inconsistent with losses > threshold")
        if self.truth is not None:
            truth = np.asarray(self.truth, dtype=bool)
            if truth.shape != predicted.shape:
                raise DimensionError("truth length does not match predictions")
            truth.setflags(write=False)
            object.__setattr__(self, "truth", truth)
        for arr in (losses, predicted, indices):
            arr.setflags(write=False)
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "predicted", predicted)
        object.__setattr__(self, "record_indices", indices)


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
    uses train_losses, "eval" the evaluation losses themselves, "pooled" the
    concatenation of both.  With labels (one per record) the flags are
    scored against them.
    """
    if threshold_source not in THRESHOLD_SOURCES:
        raise ConfigError(f"unknown threshold source {threshold_source!r}")
    n = len(matrix)
    losses = np.asarray(scorer.losses(matrix), dtype=np.float64)
    if losses.shape != (n,):
        raise DimensionError(f"scorer returned {losses.shape}, expected ({n},)")
    if not np.isfinite(losses).all():
        raise NumericError("scorer produced non-finite losses")
    if threshold_source in ("train", "pooled"):
        ref = None if train_losses is None else np.asarray(train_losses, dtype=np.float64).ravel()
        if ref is None or ref.size == 0:
            raise ConfigError(f"threshold_source={threshold_source!r} needs non-empty train_losses")
        pool = ref if threshold_source == "train" else np.concatenate([ref, losses])
    else:
        pool = losses
    threshold = percentile_threshold(pool, anomaly_ratio)
    predicted = flag(losses, threshold)
    truth = None if labels is None else np.asarray(labels, dtype=bool).ravel()
    metrics = None if truth is None else evaluate(predicted, truth, anomaly_ratio)
    return DetectionResult(
        record_indices=np.arange(n, dtype=np.int64),
        losses=losses,
        threshold=threshold,
        predicted=predicted,
        truth=truth,
        metrics=metrics,
        anomaly_ratio=float(anomaly_ratio),
        threshold_source=threshold_source,
    )


def metrics_json(result: DetectionResult) -> str:
    m = result.metrics
    payload: dict = {
        "accuracy": None,
        "precision": None,
        "recall": None,
        "f_score": None,
        "tp": None,
        "tn": None,
        "fp": None,
        "fn": None,
    }
    if m is not None:
        payload.update(m.as_dict())
    payload["threshold"] = result.threshold
    payload["anomaly_ratio"] = result.anomaly_ratio
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def records_csv(result: DetectionResult) -> str:
    """Per-record dump: index, loss, predicted, truth (truth blank if unknown)."""
    lines = ["index,loss,predicted,truth"]
    truth = result.truth
    for i in range(result.losses.size):
        t = "" if truth is None else str(int(truth[i]))
        lines.append(
            f"{int(result.record_indices[i])},{float(result.losses[i])!r},"
            f"{int(result.predicted[i])},{t}"
        )
    return "\n".join(lines) + "\n"
