"""Sensor telemetry and the package's one numeric CSV format.

Every numeric CSV uavloop reads or writes goes through ``format_table`` and
``parse_table``: a header of column names, integer columns as integers,
other values by ``repr`` (the shortest text that parses back to the same
float), and a blank cell, the only non-finite value, for a missing one.
``parse_table`` converts the cells with numpy's C reader, which uses
``float``'s own string-to-double routine.  A number is written with ASCII
digits, sign, decimal point and exponent (``0-9 + - . e E``); spaces around
a cell and any line break ``str.splitlines`` knows are allowed, and a blank
cell is the only missing value.  ``read_text`` reads every input file.

A sensor log's columns follow PX4 gyro/accelerometer exports (``COLUMNS``);
in memory a mission is an ``(N, 11)`` float64 matrix whose NaN cells may sit
only in the six sensor-axis columns.  The rest of the module imputes,
normalizes, splits and windows it.  Windows are read-only strided views
over one private copy of the feature matrix, so a dataset of W windows
costs the matrix's memory, not W * seq_len rows.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import NoReturn

import numpy as np

from .errors import (
    ConfigError,
    DimensionError,
    ImputationError,
    InputError,
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
_FEATURE_INDICES = tuple(_COL_INDEX[name] for name in DEFAULT_FEATURES)
_STD_EPS = 1e-12

# The characters of a number in a numeric CSV cell; with the delimiter and the
# line break they are the only bytes parse_table hands to numpy's reader.
_NUMBER_CHARS = "0123456789+-.eE"
_PLAIN_BYTES = (_NUMBER_CHARS + ",\n").encode()


def column_index(name: str) -> int:
    if name not in _COL_INDEX:
        raise ConfigError(f"unknown column {name!r}")
    return _COL_INDEX[name]


@dataclass(frozen=True)
class TelemetrySeries:
    """A mission's records as a read-only ``(N, 11)`` matrix in COLUMNS order.

    The modeling features are always ``DEFAULT_FEATURES``.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(COLUMNS):
            raise DimensionError(
                f"expected an (N, {len(COLUMNS)}) value matrix, got shape {values.shape}"
            )
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

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def feature_indices(self) -> tuple[int, ...]:
        return _FEATURE_INDICES

    def column(self, name: str) -> np.ndarray:
        return self.values[:, column_index(name)]

    def features(self) -> np.ndarray:
        """The (N, D) modeling-feature matrix, as a writable copy."""
        return self.values[:, list(self.feature_indices)].copy()

    def with_values(self, values: np.ndarray) -> "TelemetrySeries":
        return TelemetrySeries(values)

    def with_features(self, matrix: np.ndarray) -> "TelemetrySeries":
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape != (len(self), len(DEFAULT_FEATURES)):
            raise DimensionError(
                f"feature matrix shape {matrix.shape} does not match "
                f"({len(self)}, {len(DEFAULT_FEATURES)})"
            )
        out = np.array(self.values)
        out[:, list(self.feature_indices)] = matrix
        return self.with_values(out)

    def has_missing(self) -> bool:
        return bool(np.isnan(self.values).any())


def read_text(path) -> str:
    """The text of a UTF-8 input file; any failure is an InputError naming it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        return data.decode("utf-8")
    except OSError as exc:
        raise InputError(f"cannot read input file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        bad = f"byte 0x{data[exc.start]:02x}"
        raise InputError(f"{path} line {line}: not UTF-8 text ({bad})") from None


def read_parsed(path, parse):
    """``parse(read_text(path))``, with path in front of a ParseError's message."""
    text = read_text(path)
    try:
        return parse(text)
    except ParseError as exc:
        raise exc.in_file(path) from None


def format_table(columns: tuple[str, ...], cells, int_columns: frozenset[str]) -> str:
    """Numeric CSV text from one value sequence per column, built column-wise.

    ``int_columns`` cells are written as integers and every other cell by
    ``repr``, so ``parse_table`` reads back the same floats; NaN is a blank.
    """
    rendered = []
    for name, column in zip(columns, cells, strict=True):
        values = np.asarray(column, dtype=np.float64).tolist()
        if name in int_columns:
            rendered.append(["" if v != v else str(int(v)) for v in values])
        else:
            rendered.append(["" if v != v else repr(v) for v in values])
    lines = [",".join(columns)]
    lines.extend(map(",".join, zip(*rendered, strict=True)))
    return "\n".join(lines) + "\n"


def parse_table(
    text: str, columns: tuple[str, ...], int_columns: frozenset[str]
) -> tuple[np.ndarray, list[int]]:
    """Parse numeric CSV into a matrix plus each row's source line number.

    The header must list ``columns``.  A blank cell is NaN, except in
    ``int_columns``, where it is an error; every other cell must be a finite
    number written with ASCII digits, sign, point and exponent, and a whole
    number in ``int_columns``.  The first column must strictly increase.
    numpy's C reader converts the cells (``float``'s own string-to-double
    routine, so values are bit-identical); any failure is reported by
    ``_raise_first_error`` with the first bad line.
    """
    cut = text.find("\n")
    head = text if cut < 0 else text[:cut]
    first = (head.splitlines() or [""])[0]
    if first.strip() != ",".join(columns):
        _raise_first_error(text, columns, int_columns)
    cells = text[len(head) + 1 :].encode()
    if head.removesuffix("\r") != first or cells.translate(None, _PLAIN_BYTES):
        # Line breaks other than "\n", or spaces or other text in the cells:
        # split the lines as str.splitlines does and strip each cell as float does.
        lines = [",".join(map(str.strip, line.split(","))) for line in text.splitlines()[1:]]
        cells = "\n".join(lines).encode()
        if cells.translate(None, _PLAIN_BYTES):
            _raise_first_error(text, columns, int_columns)
    if not cells or cells.isspace():
        return np.empty((0, len(columns))), []
    values = _read_cells(cells)
    if values is None:
        # numpy's reader rejects an empty cell.  No cell can read "nan" yet,
        # so a written "nan" marks exactly the blanks; then read once more.
        # One rebinding per replace, so at most two body-sized buffers are alive.
        cells = cells.replace(b",,", b",nan,")
        cells = cells.replace(b",,", b",nan,")
        cells = cells.replace(b"\n,", b"\nnan,")
        cells = cells.replace(b",\n", b",nan\n")
        if cells.startswith(b","):
            cells = b"nan" + cells
        if cells.endswith(b","):
            cells += b"nan"
        values = _read_cells(cells)
        if values is None:
            _raise_first_error(text, columns, int_columns)
    if values.shape[1] != len(columns):
        _raise_first_error(text, columns, int_columns)
    # Checks on the whole matrix: NaN here is a blank cell, inf an overflow.
    whole = values[:, [j for j, name in enumerate(columns) if name in int_columns]]
    lead = values[:, 0]
    if (
        np.isinf(values).any()
        or (np.trunc(whole) != whole).any()
        or (lead[1:] <= lead[:-1]).any()
    ):
        _raise_first_error(text, columns, int_columns)
    if b"\n\n" in cells or cells.startswith(b"\n"):
        ends = np.flatnonzero(np.frombuffer(cells, dtype=np.uint8) == ord("\n"))
        lengths = np.diff(np.concatenate(([-1], ends, [len(cells)]))) - 1
        return values, (np.flatnonzero(lengths > 0) + 2).tolist()
    return values, list(range(2, len(values) + 2))


def _read_cells(cells: bytes) -> np.ndarray | None:
    """numpy's reading of CSV body bytes, or None where its reader raises ValueError."""
    try:
        return np.loadtxt(
            io.BytesIO(cells), delimiter=",", comments=None, ndmin=2, dtype=np.float64
        )
    except ValueError:
        return None


def _raise_first_error(
    text: str, columns: tuple[str, ...], int_columns: frozenset[str]
) -> NoReturn:
    """Raise the error of the first bad line of a table ``parse_table`` rejected.

    Lines and cells are checked in order, as ``str.splitlines`` and ``float``
    see them, so the message and line are those of the first fault.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input: missing header row", line=1)
    header = ",".join(columns)
    if lines[0].strip() != header:
        raise ParseError(f"expected header {header!r}, got {lines[0].strip()!r}", line=1)
    n_cols = len(columns)
    is_int = [name in int_columns for name in columns]
    prev: float | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"expected {n_cols} fields, got {len(parts)}", line=lineno)
        row: list[float] = []
        for name, integral, token in zip(columns, is_int, parts):
            cell = token.strip()
            try:
                value = float(token)
            except ValueError:
                if cell:
                    raise ParseError(
                        f"non-numeric value {cell!r} in column {name}", line=lineno
                    ) from None
                if integral:
                    raise ParseError(f"column {name} may not be empty", line=lineno) from None
                row.append(math.nan)
                continue
            if not math.isfinite(value):
                raise ParseError(f"non-finite value {cell!r} in column {name}", line=lineno)
            if cell.strip(_NUMBER_CHARS):
                raise ParseError(
                    f"unsupported number {cell!r} in column {name}: use ASCII digits "
                    "without '_'",
                    line=lineno,
                )
            if integral and value != int(value):
                raise ParseError(f"column {name} must be an integer, got {cell!r}", line=lineno)
            row.append(value)
        if prev is not None and row[0] <= prev:
            raise OrderingError(
                f"{columns[0]} {int(row[0])} is not greater than predecessor {int(prev)}",
                line=lineno,
            )
        prev = row[0]
    raise ParseError("numeric table could not be read")


def check_physical(values: np.ndarray, locs: list[int]) -> None:
    """Reject sensor rows with a non-positive integration step or negative clipping."""
    for name in ("gyro_integral_dt", "accelerometer_integral_dt"):
        bad = np.nonzero(values[:, _COL_INDEX[name]] <= 0)[0]
        if bad.size:
            raise ParseError(f"column {name} must be positive", line=locs[int(bad[0])])
    clip = values[:, _COL_INDEX["accelerometer_clipping"]]
    bad = np.nonzero(clip < 0)[0]
    if bad.size:
        raise ParseError("column accelerometer_clipping must be non-negative", line=locs[int(bad[0])])


def parse_sensor_csv(text: str) -> TelemetrySeries:
    values, locs = parse_table(text, COLUMNS, INT_COLUMNS)
    check_physical(values, locs)
    return TelemetrySeries(values)


def serialize_sensor_csv(series: TelemetrySeries) -> str:
    return format_table(COLUMNS, series.values.T, INT_COLUMNS)


def load_sensor_csv(path) -> TelemetrySeries:
    return read_parsed(path, parse_sensor_csv)


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
    return NormStats(DEFAULT_FEATURES, x.mean(axis=0), x.std(axis=0))


def apply_normalize(series: TelemetrySeries, stats: NormStats) -> TelemetrySeries:
    if stats.feature_names != DEFAULT_FEATURES:
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
    reconstruction).  ``window_matrix`` builds both as views that share one
    buffer; reshaping one to flat rows copies it, so consumers flatten a
    block at a time.
    """

    inputs: np.ndarray
    targets: np.ndarray
    start_indices: np.ndarray
    seq_len: int
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

    def target_record_indices(self, block: slice = slice(None)) -> np.ndarray:
        """Absolute record row of every target cell, one row per window in block."""
        offset = 0 if self.mode == "reconstruction" else self.seq_len
        steps = np.arange(self.horizon, dtype=np.int64) + offset
        return self.start_indices[block, None] + steps[None, :]


def _window_view(base: np.ndarray, first: int, count: int, rows: int, stride: int) -> np.ndarray:
    """(count, rows, D) view of base whose window k starts at row first + k * stride.

    Built on base's own buffer, so the view's ``.base`` is base and its
    memory is base's, not count * rows * D cells (a ``sliding_window_view``
    hides base behind a shim object, where ``.base`` stops).
    """
    row_bytes = base.strides[0]
    return np.ndarray(
        (count, rows, base.shape[1]),
        dtype=base.dtype,
        buffer=base,
        offset=first * row_bytes,
        strides=(stride * row_bytes, row_bytes, base.strides[1]),
    )


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
    # One private read-only copy, so a later write to the caller's matrix
    # cannot reach the windows, which are strided views over it.
    base = np.array(x, order="C")
    base.setflags(write=False)
    inputs = _window_view(base, 0, count, seq_len, stride)
    if mode == "reconstruction":
        targets = inputs
        t_rows = seq_len
    else:
        targets = _window_view(base, seq_len, count, h, stride)
        t_rows = h
    return WindowedDataset(
        inputs=inputs,
        targets=targets,
        start_indices=starts,
        seq_len=int(seq_len),
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
