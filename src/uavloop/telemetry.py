"""Sensor telemetry and the package's one numeric CSV format.

Every numeric CSV uavloop reads or writes goes through ``format_table`` and
``parse_table``: a header of column names, integer columns as integers,
other values by ``repr`` (the shortest text that parses back to the same
float), and a blank cell, the only non-finite value, for a missing one.
``parse_table`` has two paths.  Text in ``format_table``'s layout, with LF
or CRLF line ends, is read in line-aligned chunks of about 1 MiB by numpy's
C reader, which uses ``float``'s own string-to-double routine, and each
chunk's rows are checked and copied into one preallocated matrix.  Any other
text (other line breaks, blank lines, spaces around cells), and every fault,
goes to a line reader, which alone reports errors, with the first bad line.
Each format passes in its row rules, such as a positive sensor step dt or a
0/1 label.  ``load_table`` reads a numeric CSV file the same way, so a file
in the exact layout is never held whole: a load costs its matrix and a few
chunk-sized buffers.  ``read_text`` reads every other input file.

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
_LF = ord("\n")
# Bytes a numeric CSV file is read in; each chunk runs on to the end of its last line.
_CHUNK_BYTES = 1 << 20


def column_index(name: str) -> int:
    if name not in _COL_INDEX:
        raise ConfigError(f"unknown column {name!r}")
    return _COL_INDEX[name]


@dataclass(frozen=True)
class TelemetrySeries:
    """A mission's records as a read-only ``(N, 11)`` matrix in COLUMNS order.

    The modeling features are always ``DEFAULT_FEATURES``.  A read-only
    C-ordered float64 matrix that no writable array shares, such as the one
    ``load_table`` returns, is kept as it is; any other matrix is copied.
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = self.values if _sealed(self.values) else np.array(self.values, dtype=np.float64)
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
        """The (N, D) modeling-feature matrix, as a writable C-ordered copy."""
        # values[:, cols] would be Fortran-ordered, and matrix products round differently on it.
        return self.values.take(self.feature_indices, axis=1)

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


def _sealed(values) -> bool:
    """Whether values is a read-only C-ordered float64 array that no writable array shares."""
    if type(values) is not np.ndarray or values.dtype != np.float64:
        return False
    if not values.flags.c_contiguous:
        return False
    while isinstance(values, np.ndarray):
        if values.flags.writeable:
            return False
        values = values.base
    return values is None


def _read_bytes(path) -> bytes:
    """The bytes of a UTF-8 input file; any failure is an InputError naming it."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if not data.isascii():  # ASCII is UTF-8; other bytes are decoded to check them
            data.decode("utf-8")
        return data
    except OSError as exc:
        raise InputError(f"cannot read input file {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        bad = f"byte 0x{data[exc.start]:02x}"
        raise InputError(f"{path} line {line}: not UTF-8 text ({bad})") from None


def read_text(path) -> str:
    """The text of a UTF-8 input file; any failure is an InputError naming it."""
    return _read_bytes(path).decode()


def read_parsed(path, parse):
    """``parse(read_text(path))``, with path in front of a ParseError's message."""
    try:
        return parse(read_text(path))
    except ParseError as exc:
        raise exc.in_file(path) from None


def load_table(
    path, columns: tuple[str, ...], int_columns: frozenset[str], rules=()
) -> np.ndarray:
    """``parse_table`` of a numeric CSV file; path prefixes a ParseError.

    A file in ``format_table``'s layout is read in chunks and never held
    whole; any other file is read whole for the line reader.
    """
    try:
        try:
            with open(path, "rb") as fh:
                values = _read_exact(fh, columns, int_columns, rules)
        except OSError as exc:
            raise InputError(f"cannot read input file {path}: {exc.strerror}") from None
        if values is None:
            values = _read_lines(_read_bytes(path), columns, int_columns, rules)
        return values
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
    data: bytes, columns: tuple[str, ...], int_columns: frozenset[str], rules=()
) -> np.ndarray:
    """Parse UTF-8 numeric CSV into a read-only matrix with one row per non-blank line.

    The header must list ``columns``.  A blank cell is NaN, except in
    ``int_columns``, where it is an error; every other cell must be a finite
    number written with ASCII digits, sign, point and exponent, and a whole
    number in ``int_columns``.  The first column must strictly increase.
    Then each ``(column, bad, message)`` rule, in order, rejects with
    ``message`` the first row where ``bad``, applied elementwise to the
    column's values, is true.

    Text in ``format_table``'s layout, with LF or CRLF line ends, is read in
    chunks by ``_read_exact``; any other text (other line breaks, blank
    lines, spaces, a padded header), and any fault, goes to the line reader
    ``_read_lines``, which alone raises errors.
    """
    values = _read_exact(io.BytesIO(data), columns, int_columns, rules)
    return _read_lines(data, columns, int_columns, rules) if values is None else values


def _chunks(fh):
    """The rest of binary file fh in pieces of about _CHUNK_BYTES, each cut at a line end."""
    while chunk := fh.read(_CHUNK_BYTES):
        yield chunk if chunk.endswith(b"\n") else chunk + fh.readline()


def _read_exact(
    fh, columns: tuple[str, ...], int_columns: frozenset[str], rules
) -> np.ndarray | None:
    """``parse_table`` of binary file fh in ``format_table``'s layout, else None.

    A first pass counts the rows.  A second pass reads each chunk with
    numpy's C reader, checks its rows, and copies them into one matrix, so
    no buffer but that matrix grows with the file.
    """
    if fh.readline().replace(b"\r\n", b"\n") != (",".join(columns) + "\n").encode():
        return None
    body = fh.tell()
    rows = 0
    for chunk in _chunks(fh):
        # numpy counts line breaks about three times as fast as bytes.count.
        # Only the last chunk can end without one.
        rows += np.count_nonzero(np.frombuffer(chunk, np.uint8) == _LF)
        rows += not chunk.endswith(b"\n")
    if not rows:
        return None
    fh.seek(body)
    values = np.empty((rows, len(columns)))
    whole = [j for j, name in enumerate(columns) if name in int_columns]
    ruled = [(columns.index(name), bad) for name, bad, _ in rules]
    done = 0
    for chunk in _chunks(fh):
        if b"\r" in chunk:
            chunk = chunk.replace(b"\r\n", b"\n")
        # The checks run on the bytes numpy reads, which would take "nan",
        # "inf" or spaces around a number.  numpy skips a blank line, which
        # leaves the rows short of the count, and warns on a chunk of blank
        # lines only, which starts with one.
        if chunk.translate(None, _PLAIN_BYTES) or chunk.startswith(b"\n"):
            return None
        cells = _read_cells(chunk)
        if cells is None:
            cells = _read_cells(_fill_blanks(chunk))
        # NaN here is a blank cell and inf an overflow.
        if (
            cells is None
            or cells.shape[1] != len(columns)
            or len(cells) > rows - done
            or np.isinf(cells).any()
            or (cells[1:, 0] <= cells[:-1, 0]).any()
            or (done and cells[0, 0] <= values[done - 1, 0])
            or any((np.trunc(cells[:, j]) != cells[:, j]).any() for j in whole)
            or any(bad(cells[:, j]).any() for j, bad in ruled)
        ):
            return None
        values[done : done + len(cells)] = cells
        done += len(cells)
    if done != rows:  # a blank line, or the file changed between the passes
        return None
    values.setflags(write=False)
    return values


def _fill_blanks(chunk: bytes) -> bytes:
    """chunk, whole lines of plain bytes, with "nan" written in every blank cell.

    numpy's reader rejects an empty cell.  No cell can read "nan" before,
    so the written ones mark exactly the blanks.  Each replace scans the
    whole chunk, so this runs only on a chunk numpy could not read.
    """
    if chunk.startswith(b","):
        chunk = b"nan" + chunk
    # Two passes, since the cell between two adjacent blanks overlaps both matches.
    chunk = chunk.replace(b",,", b",nan,").replace(b",,", b",nan,")
    chunk = chunk.replace(b"\n,", b"\nnan,").replace(b",\n", b",nan\n")
    return chunk + b"nan" if chunk.endswith(b",") else chunk


def _read_cells(chunk: bytes) -> np.ndarray | None:
    """numpy's reading of chunk's rows, or None where it raises ValueError."""
    try:
        return np.loadtxt(
            io.BytesIO(chunk), delimiter=",", comments=None, ndmin=2, dtype=np.float64
        )
    except ValueError:
        return None


def _read_lines(
    data: bytes, columns: tuple[str, ...], int_columns: frozenset[str], rules
) -> np.ndarray:
    """``parse_table`` of any text, one line at a time; raises the first error.

    Lines and cells are read in order, as ``str.splitlines`` and ``float``
    see them, so a fault's message and line are those of its first bad
    line.  The rules are checked only once every line has parsed.
    """
    lines = data.decode().splitlines()
    if not lines:
        raise ParseError("empty input: missing header row", line=1)
    header = ",".join(columns)
    if lines[0].strip() != header:
        raise ParseError(f"expected header {header!r}, got {lines[0].strip()!r}", line=1)
    n_cols = len(columns)
    is_int = [name in int_columns for name in columns]
    values = np.empty((len(lines) - 1, n_cols))
    count = 0
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
        values[count] = row
        count += 1
    values.setflags(write=False)
    values = values[:count]
    for name, bad, message in rules:
        rows = np.flatnonzero(bad(values[:, columns.index(name)]))
        if rows.size:
            linenos = [n for n, line in enumerate(lines[1:], start=2) if line.strip()]
            raise ParseError(message, line=linenos[rows[0]])
    return values


def _positive(name: str) -> tuple:
    return (name, lambda c: c <= 0, f"column {name} must be positive")


# A sensor row's step dt must be positive and its clipping count non-negative.
SENSOR_RULES = (
    _positive("gyro_integral_dt"),
    _positive("accelerometer_integral_dt"),
    ("accelerometer_clipping", lambda c: c < 0, "column accelerometer_clipping must be non-negative"),
)


def serialize_sensor_csv(series: TelemetrySeries) -> str:
    return format_table(COLUMNS, series.values.T, INT_COLUMNS)


def load_sensor_csv(path) -> TelemetrySeries:
    return TelemetrySeries(load_table(path, COLUMNS, INT_COLUMNS, SENSOR_RULES))


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
