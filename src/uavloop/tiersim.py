"""Tiered deployment simulation: scorers, batch latency, reports.

Execution locations (onboard, edge, cloud) trade per-record compute cost
against link latency; the CLI's --tier picks the one that runs detection.
A logical-clock simulator streams a telemetry series through a scorer in
batches, charging each batch a fixed overhead, a per-record cost scaled by
the tier's compute factor, and one link traversal.  The flags do not depend
on the batch size, so the stream is scored once and the batch size only
sets the clock: a batch sweep runs detection once for all its sizes.
Elapsed time for a stream therefore follows t = a + (b + link) * ceil(N/B)
+ c * N * factor, which amortizes toward t = a' + b'/B for large batches;
that two-parameter form is also what fit_latency_model recovers from
measured (batch size, elapsed) pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .detect import DetectionResult, Metrics, detect, pointwise_loss, record_losses, sweep_csv

# Not called here: benchmark/tracing.py looks both names up on this module.
from .detect import evaluate, percentile_threshold  # noqa: F401
from .errors import ConfigError, DimensionError
from .inject import LabeledSeries
from .telemetry import TelemetrySeries, row_blocks, window_matrix

TIER_NAMES = ("onboard", "edge", "cloud")


@dataclass(frozen=True)
class Tier:
    name: str
    compute_factor: float
    link_latency_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.name not in TIER_NAMES:
            raise ConfigError(f"tier name must be one of {TIER_NAMES}, got {self.name!r}")
        if not (self.compute_factor > 0 and math.isfinite(self.compute_factor)):
            raise ConfigError(f"compute_factor must be positive, got {self.compute_factor!r}")
        if not (self.link_latency_ms >= 0 and math.isfinite(self.link_latency_ms)):
            raise ConfigError(
                f"link_latency_ms must be non-negative, got {self.link_latency_ms!r}"
            )


def validate_tiers(tiers: dict) -> None:
    missing = [name for name in TIER_NAMES if name not in tiers]
    if missing:
        raise ConfigError(f"tier set is missing {missing}")
    if not (
        tiers["cloud"].compute_factor
        <= tiers["edge"].compute_factor
        <= tiers["onboard"].compute_factor
    ):
        raise ConfigError("per-record cost must not increase moving from onboard to cloud")


@dataclass(frozen=True)
class LatencyModel:
    """t = a (once) + b (per batch) + c (per record); all in seconds."""

    a: float
    b: float
    c: float

    def __post_init__(self) -> None:
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not (v >= 0 and math.isfinite(v)):
                raise ConfigError(f"latency coefficient {name} must be >= 0, got {v!r}")

    def batch_cost(self, n_records, compute_factor: float = 1.0, link_latency_ms: float = 0.0):
        """Cost of one batch of n_records; elementwise for an array of counts."""
        return self.b + self.c * n_records * compute_factor + link_latency_ms / 1000.0


@dataclass(frozen=True)
class LatencyFit:
    """Least-squares fit of measured elapsed times to t = a' + b'/B."""

    a_prime: float
    b_prime: float
    residuals: tuple


def fit_latency_model(batch_sizes, elapsed_s) -> LatencyFit:
    b = np.asarray(batch_sizes, dtype=np.float64).ravel()
    t = np.asarray(elapsed_s, dtype=np.float64).ravel()
    if b.shape != t.shape:
        raise DimensionError(f"batch sizes {b.shape} and timings {t.shape} differ in length")
    if np.unique(b).size < 2:
        raise ConfigError("need at least 2 distinct batch sizes to fit a latency model")
    if (b < 1).any():
        raise ConfigError("batch sizes must be >= 1")
    if (t <= 0).any():
        raise ConfigError("elapsed times must be positive")
    design = np.column_stack([np.ones_like(b), 1.0 / b])
    coef, *_ = np.linalg.lstsq(design, t, rcond=None)
    pred = design @ coef
    residuals = tuple(float(abs(p - m) / m) for p, m in zip(pred, t))
    return LatencyFit(
        a_prime=float(coef[0]),
        b_prime=float(coef[1]),
        residuals=residuals,
    )


class PersistenceDetector:
    """Scores each record by its mean squared jump from the previous record.

    Needs no training, so it suits latency experiments where the scorer
    itself should not vary.  The first record of a stream scores 0.  The
    jumps are taken one row block at a time into the one (N,) output, so
    scoring holds the output and a block's temporaries, never an (N, D)
    difference; each record's loss has the same bits as in one pass.
    """

    def losses(self, matrix: np.ndarray) -> np.ndarray:
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] < 1:
            raise DimensionError(f"expected a non-empty (N, D) matrix, got shape {m.shape}")
        out = np.zeros(m.shape[0])
        jumps = out[1:]
        # A jump that overflows stays infinite, for detect to refuse.
        with np.errstate(over="ignore", invalid="ignore"):
            for rows in row_blocks(jumps.size):
                jumps[rows] = pointwise_loss(m[1:][rows], m[:-1][rows])
        return out


class PredictorDetector:
    """Scores records by stride-1 reconstruction loss under a trained predictor."""

    def __init__(self, predictor):
        cfg = predictor.config
        if cfg.mode != "reconstruction":
            raise ConfigError(
                f"detection needs a reconstruction predictor (horizon == seq_len), "
                f"got horizon={cfg.horizon}, seq_len={cfg.seq_len}"
            )
        self.predictor = predictor

    def losses(self, matrix: np.ndarray) -> np.ndarray:
        # Stride-1 reconstruction windows cover every record, so there is
        # one loss per record.
        data = window_matrix(matrix, self.predictor.config.seq_len, stride=1, mode="reconstruction")
        return record_losses(self.predictor, data)


def flag_runs(flags) -> list[tuple[int, int]]:
    """Contiguous True runs as inclusive (start, end) index pairs."""
    indices = np.nonzero(np.asarray(flags, dtype=bool).ravel())[0]
    if indices.size == 0:
        return []
    breaks = np.diff(indices) > 1
    starts = indices[np.concatenate([[True], breaks])]
    ends = indices[np.concatenate([breaks, [True]])]
    return [(int(s), int(e)) for s, e in zip(starts, ends)]


@dataclass(frozen=True)
class AnomalyReport:
    mission_id: str
    tier: str
    ranges: tuple
    threshold: float
    metrics: Metrics | None
    timestamp: float

    def to_json(self) -> str:
        payload = {
            "mission_id": self.mission_id,
            "tier": self.tier,
            "ranges": [[int(s), int(e)] for s, e in self.ranges],
            "threshold": self.threshold,
            "metrics": None if self.metrics is None else self.metrics.as_dict(),
            "timestamp": self.timestamp,
        }
        return json.dumps(payload, sort_keys=True)


def emit_report(
    detection: DetectionResult,
    mission_id: str,
    tier: str = "edge",
    timestamp: float = 0.0,
) -> AnomalyReport:
    """One report covering a whole detection pass; empty range list is valid."""
    return AnomalyReport(
        mission_id=mission_id,
        tier=tier,
        ranges=tuple(flag_runs(detection.predicted)),
        threshold=detection.threshold,
        metrics=detection.metrics,
        timestamp=timestamp,
    )


@dataclass(frozen=True)
class StreamStats:
    batch_size: int
    records: int
    n_batches: int
    elapsed_s: float
    metrics: Metrics | None


def _detect_stream(data, scorer, anomaly_ratio: float) -> DetectionResult:
    """Score a whole series once, thresholding on its own losses."""
    labels = None
    if isinstance(data, LabeledSeries):
        labels = data.labels
        series = data.series
    elif isinstance(data, TelemetrySeries):
        series = data
    else:
        raise ConfigError(f"cannot stream a {type(data).__name__}")
    return detect(
        scorer,
        series.features(),
        anomaly_ratio=anomaly_ratio,
        labels=labels,
        threshold_source="eval",
    )


def _batch_end_clock(n: int, batch_size: int, tier: Tier, latency_model: LatencyModel):
    """Logical clock at the end of each batch of an n-record stream.

    A sequential cumulative sum starting from the one-off cost a, so each
    value is the same float a batch-by-batch loop would reach.
    """
    counts = np.minimum(batch_size, n - np.arange(0, n, batch_size))
    with np.errstate(over="ignore"):
        costs = latency_model.batch_cost(counts, tier.compute_factor, tier.link_latency_ms)
        clock = np.cumsum(np.concatenate([[latency_model.a], costs]))[1:]
    # Costs are non-negative, so the clock never falls: a finite end is a finite clock.
    if not np.isfinite(clock[-1]):
        keys = f"latency_a, latency_b, latency_c, {tier.name}_factor or {tier.name}_link_ms"
        raise ConfigError(f"stream clock over {n} records is not finite: {keys} is too large")
    return clock


def _stream_stats(result: DetectionResult, batch_size: int, clock: np.ndarray) -> StreamStats:
    return StreamStats(
        batch_size=int(batch_size),
        records=result.losses.size,
        n_batches=clock.size,
        elapsed_s=float(clock[-1]),
        metrics=result.metrics,
    )


def simulate_stream(
    data,
    tier: Tier,
    batch_size: int,
    latency_model: LatencyModel,
    scorer,
    anomaly_ratio: float = 20.0,
    mission_id: str = "mission",
) -> tuple[StreamStats, list[AnomalyReport]]:
    """Stream a series through the scorer in order, batch by batch.

    Flags come from ``detect`` thresholding on the full stream's losses, so
    the set of flagged records is a property of the data, not of the batch
    size; batching only moves the logical clock.  One report is emitted per
    contiguous flagged run, stamped with the clock at the end of the batch
    that carried the run's last record.
    """
    if batch_size < 1:
        raise ConfigError(f"batch_size must be positive, got {batch_size}")
    result = _detect_stream(data, scorer, anomaly_ratio)
    clock = _batch_end_clock(result.losses.size, batch_size, tier, latency_model)
    reports = [
        AnomalyReport(
            mission_id=mission_id,
            tier=tier.name,
            ranges=((s, e),),
            threshold=result.threshold,
            metrics=None,
            timestamp=float(clock[e // batch_size]),
        )
        for s, e in flag_runs(result.predicted)
    ]
    return _stream_stats(result, batch_size, clock), reports


def run_batch_experiment(
    data,
    batch_sizes,
    tier: Tier,
    latency_model: LatencyModel,
    scorer,
    anomaly_ratio: float = 20.0,
) -> list[StreamStats]:
    """Stream stats for each batch size; the stream is scored once for all."""
    sizes = [int(b) for b in batch_sizes]
    if not sizes:
        raise ConfigError("batch size list is empty")
    if any(b < 1 for b in sizes):
        raise ConfigError("batch sizes must be >= 1")
    result = _detect_stream(data, scorer, anomaly_ratio)
    n = result.losses.size
    return [_stream_stats(result, b, _batch_end_clock(n, b, tier, latency_model)) for b in sizes]


def batch_experiment_csv(results):
    """CSV blocks for a batch sweep, one line per batch size."""
    cells = ([s.batch_size for s in results], [s.elapsed_s for s in results])
    metrics = [s.metrics for s in results]
    return sweep_csv(("batch_size", "elapsed_s"), cells, frozenset(("batch_size",)), metrics)
