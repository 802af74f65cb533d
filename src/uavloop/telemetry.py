"""Sensor telemetry ingestion: parse, impute, normalize, split, and window.

The on-disk format is a plain CSV whose column layout follows PX4-style
combined gyro/accelerometer exports (see ``COLUMNS``).  In memory a mission is
an ``(N, 11)`` float64 matrix; missing cells are NaN and are only legal in the
six sensor-axis columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    ImputationError,
    NumericError,
    OrderingError,
    ParseError,
    SizingError,
)

COLUMNS = (
    "timestamp",
    "gyro_rad_0",
    "gyro_rad_1",
    "gyro_rad_2",
    "gyro_integral_dt",
    "accelerometer_timestamp_relative",
    "accelerometer_m_s2_0",
    "accelerometer_m_s2_1",
    "accelerometer_m_s2_2",
    "accelerometer_integral_dt",
    "accelerometer_clipping",
)
HEADER = ",".join(COLUMNS)

# Default modeling features: the six sensor axes.  The timing and clipping
# columns ride along as metadata and are never normalized or windowed.
DEFAULT_FEATURES = (
    "gyro_rad_0",
    "gyro_rad_1",
    "gyro_rad_2",
    "accelerometer_m_s2_0",
    "accelerometer_m_s2_1",
    "accelerometer_m_s2_2",
)

# Integer-valued on disk; an empty cell here is a parse error, not "missing".
INT_COLUMNS = frozenset(
    (
        "timestamp",
        "gyro_integral_dt",
        "accelerometer_timestamp_relative",
        "accelerometer_integral_dt",
        "accelerometer_clipping",
    )
)

_COL_INDEX = {name: i for i, name in enumerate(COLUMNS)}
_STD_EPS = 1e-12


def column_index(name: str) -> int:
    if name not in _COL_INDEX:
        raise ConfigError(f"unknown column {name!r}")
    return _COL_INDEX[name]


@dataclass(frozen=True)
class TelemetrySeries:
    """A mission's records as a read-only ``(N, 11)`` matrix in COLUMNS order."""

    values: np.ndarray
    feature_names: tuple[str, ...] = DEFAULT_FEATURES

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(COLUMNS):
            raise DimensionError(
                f"expected an (N, {len(COLUMNS)}) value matrix, got shape {values.shape}"
            )
        names = tuple(self.feature_names)
        for name in names:
            if name not in _COL_INDEX or name == "timestamp":
                raise ConfigError(f"{name!r} cannot be used as a modeling feature")
        ts = values[:, 0]
        if np.isnan(ts).any():
            raise ParseError("timestamp cells may not be missing")
        steps = np.diff(ts)
        bad = np.nonzero(steps <= 0)[0]
        if bad.size:
            i = int(bad[0])
            raise OrderingError(
                f"timestamp {int(ts[i + 1])} at record {i + 1} is not greater "
                f"than predecessor {int(ts[i])}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "feature_names", names)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def timestamps(self) -> np.ndarray:
        return self.values[:, 0].astype(np.int64)

    @property
    def feature_indices(self) -> tuple[int, ...]:
        return tuple(_COL_INDEX[n] for n in self.feature_names)

    def column(self, name: str) -> np.ndarray:
        return self.values[:, column_index(name)]

    def features(self) -> np.ndarray:
        """The (N, D) modeling-feature matrix, as a writable copy."""
        return self.values[:, list(self.feature_indices)].copy()

    def with_values(self, values: np.ndarray) -> "TelemetrySeries":
        return TelemetrySeries(values, self.feature_names)

    def with_features(self, matrix: np.ndarray) -> "TelemetrySeries":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (len(self), len(self.feature_names)):
            raise DimensionError(
                f"feature matrix shape {matrix.shape} does not match "
                f"({len(self)}, {len(self.feature_names)})"
            )
        out = np.array(self.values)
        out[:, list(self.feature_indices)] = matrix
        return self.with_values(out)

    def has_missing(self) -> bool:
        return bool(np.isnan(self.values).any())


def _parse_table(
    text: str, columns: tuple[str, ...], header: str, int_columns: frozenset[str]
) -> tuple[np.ndarray, list[int]]:
    """Parse strict numeric CSV into a matrix plus per-row source line numbers."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input: missing header row", line=1)
    if lines[0].strip() != header:
        raise ParseError(f"expected header {header!r}, got {lines[0].strip()!r}", line=1)
    n_cols = len(columns)
    rows: list[list[float]] = []
    locs: list[int] = []
    prev_ts: float | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"expected {n_cols} fields, got {len(parts)}", line=lineno)
        row: list[float] = []
        for name, token in zip(columns, parts):
            token = token.strip()
            if token == "":
                if name in int_columns:
                    raise ParseError(f"column {name} may not be empty", line=lineno)
                row.append(float("nan"))
                continue
            try:
                value = float(token)
            except ValueError:
                raise ParseError(
                    f"non-numeric value {token!r} in column {name}", line=lineno
                ) from None
            if name in int_columns and value != int(value):
                raise ParseError(f"column {name} must be an integer, got {token!r}", line=lineno)
            row.append(value)
        if prev_ts is not None and row[0] <= prev_ts:
            raise OrderingError(
                f"timestamp {int(row[0])} is not greater than predecessor {int(prev_ts)}",
                line=lineno,
            )
        prev_ts = row[0]
        rows.append(row)
        locs.append(lineno)
    if not rows:
        return np.empty((0, n_cols)), locs
    return np.array(rows, dtype=np.float64), locs


def _check_physical(values: np.ndarray, locs: list[int]) -> None:
    for name in ("gyro_integral_dt", "accelerometer_integral_dt"):
        bad = np.nonzero(values[:, _COL_INDEX[name]] <= 0)[0]
        if bad.size:
            raise ParseError(f"column {name} must be positive", line=locs[int(bad[0])])
    clip = values[:, _COL_INDEX["accelerometer_clipping"]]
    bad = np.nonzero(clip < 0)[0]
    if bad.size:
        raise ParseError("column accelerometer_clipping must be non-negative", line=locs[int(bad[0])])


def _format_cell(name: str, value: float) -> str:
    if np.isnan(value):
        return ""
    if name in INT_COLUMNS:
        return str(int(value))
    # repr() is the shortest round-trip form, so parse(serialize(x)) is bit-exact.
    return repr(float(value))


def _serialize_table(values: np.ndarray, columns: tuple[str, ...]) -> str:
    lines = [",".join(columns)]
    for row in values:
        lines.append(",".join(_format_cell(name, v) for name, v in zip(columns, row)))
    return "\n".join(lines) + "\n"


def parse_sensor_csv(
    raw: str | bytes, feature_names: tuple[str, ...] = DEFAULT_FEATURES
) -> TelemetrySeries:
    text = raw.decode("utf-8") if isinstance(raw, (bytes, bytearray)) else raw
    values, locs = _parse_table(text, COLUMNS, HEADER, INT_COLUMNS)
    _check_physical(values, locs)
    return TelemetrySeries(values, feature_names)


def serialize_sensor_csv(series: TelemetrySeries) -> str:
    return _serialize_table(series.values, COLUMNS)


def load_sensor_csv(path, feature_names: tuple[str, ...] = DEFAULT_FEATURES) -> TelemetrySeries:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_sensor_csv(fh.read(), feature_names)


def save_sensor_csv(series: TelemetrySeries, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_sensor_csv(series))


def impute_missing(series: TelemetrySeries, policy: str = "linear") -> TelemetrySeries:
    """Fill NaN cells column by column.

    ``forward-fill`` carries the previous observed value and fails when the
    first record is missing.  ``linear`` interpolates between observed
    neighbours and holds the nearest observed value at the boundaries.
    """
    if policy not in ("linear", "forward-fill"):
        raise ConfigError(f"unknown imputation policy {policy!r}")
    if not series.has_missing():
        return series
    values = np.array(series.values)
    for j, name in enumerate(COLUMNS):
        col = values[:, j]
        mask = np.isnan(col)
        if not mask.any():
            continue
        valid = np.nonzero(~mask)[0]
        if valid.size == 0:
            raise ImputationError(f"column {name} has no observed values to impute from")
        if policy == "forward-fill":
            if mask[0]:
                raise ImputationError(
                    f"column {name}: first record is missing, forward-fill has no predecessor"
                )
            carry = np.maximum.accumulate(np.where(mask, -1, np.arange(col.size)))
            values[:, j] = col[carry]
        else:
            col[mask] = np.interp(np.nonzero(mask)[0], valid, col[valid])
    return series.with_values(values)


@dataclass(frozen=True)
class NormStats:
    """Per-feature z-scoring parameters (population standard deviation)."""

    feature_names: tuple[str, ...]
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self) -> None:
        mean = np.array(self.mean, dtype=np.float64).ravel()
        std = np.array(self.std, dtype=np.float64).ravel()
        names = tuple(self.feature_names)
        if not (mean.size == std.size == len(names)):
            raise DimensionError("mean/std lengths must equal the feature count")
        if not (np.isfinite(mean).all() and np.isfinite(std).all()):
            raise NumericError("normalization statistics must be finite")
        if (std < 0).any():
            raise NumericError("standard deviations must be non-negative")
        mean.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        x = np.asarray(matrix, dtype=np.float64)
        degenerate = self.std < _STD_EPS
        z = (x - self.mean) / np.where(degenerate, 1.0, self.std)
        z[:, degenerate] = 0.0
        return z


def fit_normalize(series: TelemetrySeries) -> NormStats:
    if len(series) == 0:
        raise NumericError("cannot fit normalization statistics on an empty series")
    x = series.features()
    if np.isnan(x).any():
        raise ImputationError("impute missing cells before fitting normalization")
    return NormStats(series.feature_names, x.mean(axis=0), x.std(axis=0))


def apply_normalize(series: TelemetrySeries, stats: NormStats) -> TelemetrySeries:
    if stats.feature_names != series.feature_names:
        raise DimensionError("normalization statistics were fitted for different features")
    return series.with_features(stats.transform(series.features()))


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous train/val/test ratios; each in (0, 1), summing to 1."""

    train: float = 0.6
    val: float = 0.2
    test: float = 0.2

    def __post_init__(self) -> None:
        for name in ("train", "val", "test"):
            r = getattr(self, name)
            if not (0.0 < r < 1.0):
                raise ConfigError(f"split ratio {name}={r} must be in (0, 1)")
        total = self.train + self.val + self.test
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"split ratios must sum to 1, got {total}")


@dataclass(frozen=True)
class SplitResult:
    train: TelemetrySeries
    val: TelemetrySeries
    test: TelemetrySeries


def split(series: TelemetrySeries, spec: SplitSpec = SplitSpec()) -> SplitResult:
    """Cut the series into contiguous train/val/test pieces, in time order.

    Val and test get floor(N * ratio) records (ratios read at 1e-9 tolerance
    so exact decimals are not hostage to float rounding); train absorbs the
    remainder.  An empty piece is a configuration error.
    """
    n = len(series)
    if n < 3:
        raise ConfigError(f"need at least 3 records to split, got {n}")
    n_val = int(math.floor(n * spec.val + 1e-9))
    n_test = int(math.floor(n * spec.test + 1e-9))
    n_train = n - n_val - n_test
    if min(n_train, n_val, n_test) < 1:
        raise ConfigError(
            f"split sizes ({n_train}, {n_val}, {n_test}) for N={n} leave an empty subset"
        )
    v = series.values
    return SplitResult(
        train=series.with_values(v[:n_train]),
        val=series.with_values(v[n_train : n_train + n_val]),
        test=series.with_values(v[n_train + n_val :]),
    )


@dataclass(frozen=True)
class WindowedDataset:
    """Fixed-length windows over a feature matrix.

    ``targets`` holds the window itself in reconstruction mode and the
    ``horizon`` following rows in forecast mode; ``horizon`` is therefore the
    number of target rows in both modes (equal to ``seq_len`` for
    reconstruction).
    """

    inputs: np.ndarray
    targets: np.ndarray
    start_indices: np.ndarray
    seq_len: int
    stride: int
    mode: str
    horizon: int

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        starts = np.asarray(self.start_indices, dtype=np.int64)
        if inputs.ndim != 3 or targets.ndim != 3:
            raise DimensionError("inputs and targets must be (W, rows, D) arrays")
        if inputs.shape[1] != self.seq_len:
            raise DimensionError("every window must have exactly seq_len rows")
        if targets.shape != (inputs.shape[0], self.horizon, inputs.shape[2]):
            raise DimensionError("target block shape does not match (W, horizon, D)")
        if starts.shape != (inputs.shape[0],):
            raise DimensionError("start_indices length must equal the window count")
        for arr in (inputs, targets, starts):
            arr.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "start_indices", starts)

    def __len__(self) -> int:
        return int(self.inputs.shape[0])

    @property
    def feature_count(self) -> int:
        return int(self.inputs.shape[2])

    def target_record_indices(self) -> np.ndarray:
        """Absolute record row of every target cell, shape (W, horizon)."""
        offset = 0 if self.mode == "reconstruction" else self.seq_len
        steps = np.arange(self.horizon, dtype=np.int64) + offset
        return self.start_indices[:, None] + steps[None, :]


def window_matrix(
    matrix: np.ndarray,
    seq_len: int,
    stride: int = 1,
    mode: str = "reconstruction",
    horizon: int = 1,
) -> WindowedDataset:
    x = np.asarray(matrix, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise DimensionError(f"expected a 2-D feature matrix, got shape {x.shape}")
    if seq_len < 1:
        raise ConfigError(f"seq_len must be at least 1, got {seq_len}")
    if stride < 1:
        raise ConfigError(f"stride must be at least 1, got {stride}")
    if mode not in ("reconstruction", "forecast"):
        raise ConfigError(f"unknown window mode {mode!r}")
    h = 0
    if mode == "forecast":
        if horizon < 1:
            raise ConfigError(f"forecast horizon must be at least 1, got {horizon}")
        h = int(horizon)
    n = x.shape[0]
    span = seq_len + h
    if n < span:
        raise SizingError(
            f"need at least {span} records for seq_len={seq_len}"
            + (f" plus horizon={h}" if h else "")
            + f", got {n}"
        )
    count = (n - span) // stride + 1
    starts = np.arange(count, dtype=np.int64) * stride
    inputs = np.stack([x[s : s + seq_len] for s in starts])
    if mode == "reconstruction":
        targets = inputs
        t_rows = seq_len
    else:
        targets = np.stack([x[s + seq_len : s + span] for s in starts])
        t_rows = h
    return WindowedDataset(
        inputs=inputs,
        targets=targets,
        start_indices=starts,
        seq_len=int(seq_len),
        stride=int(stride),
        mode=mode,
        horizon=t_rows,
    )


def window(
    series: TelemetrySeries,
    seq_len: int,
    stride: int = 1,
    mode: str = "reconstruction",
    horizon: int = 1,
) -> WindowedDataset:
    return window_matrix(series.features(), seq_len, stride, mode, horizon)
