"""Sensor telemetry and the package's one numeric CSV format.

Every numeric CSV uavloop reads or writes goes through ``table_blocks`` and
``parse_table``: a header of column names, integer columns as integers,
other values by ``repr`` (the shortest text that parses back to the same
float), and a blank cell, the only non-finite value, for a missing one.
``table_blocks`` renders one row block at a time, so no artifact is held
whole as text.  ``parse_table`` reads text in ``table_blocks``' layout, with
LF or CRLF line ends, in line-aligned chunks of about 1 MiB with numpy's C
reader, which uses ``float``'s own string-to-double routine; each chunk's
rows are checked and copied into preallocated matrices.  Any other text
(other line breaks, blank lines, spaces around cells), and every fault, goes
to a line reader, which alone reports errors, with the first bad line.  Each
format passes in its row rules, such as a positive sensor step dt or a 0/1
label.  ``load_table`` reads a file the same way, into one matrix per group
of columns, so a load costs its matrices and a few chunk-sized buffers,
never the file or the whole table.  ``read_text`` reads every other input
file, and ``write_text`` writes every artifact atomically.

A sensor log's columns follow PX4 gyro/accelerometer exports (``COLUMNS``).
In memory a mission is two read-only C-ordered matrices: the ``(N, 6)``
sensor axes, whose NaN cells are the blanks, and the ``(N, 5)`` integer
columns, which no step changes.  The rest of the module imputes,
normalizes, splits and windows the features, building a new feature matrix
and sharing the other.  Windows are read-only strided views over the feature
matrix, so a dataset of W windows costs no more than that matrix, not
W * seq_len rows.  A dataset keeps only its two views, the stride between
windows and the row where each window's targets start.  ``row_blocks`` cuts
every full-set pass over rows or windows into blocks of ``BLOCK_ROWS``.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
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
    PipelineError,
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

# The other columns, in COLUMNS order: a series' meta matrix.  They are
# integer-valued on disk, where an empty one is a parse error, not "missing".
META_COLUMNS = tuple(name for name in COLUMNS if name not in DEFAULT_FEATURES)
INT_COLUMNS = frozenset(META_COLUMNS)
_FEATURE_INDICES = tuple(map(COLUMNS.index, DEFAULT_FEATURES))
_META_INDICES = tuple(map(COLUMNS.index, META_COLUMNS))
_STD_EPS = 1e-12

# The characters of a number in a numeric CSV cell; with the delimiter and the
# line break they are the only bytes parse_table hands to numpy's reader.
_NUMBER_CHARS = "0123456789+-.eE"
_PLAIN_BYTES = (_NUMBER_CHARS + ",\n").encode()
_LF = ord("\n")
# A byte's weight as a cell edge: a delimiter 3, a line break 1, else 0.  Two
# adjacent bytes weigh 4 or more exactly where a blank cell sits between them.
_EDGE_WEIGHTS = bytes(3 if byte == ord(",") else 1 if byte == _LF else 0 for byte in range(256))
# Bytes a numeric CSV file is read in; each chunk runs on to the end of its last line.
_CHUNK_BYTES = 1 << 20

# Rows per block of a full-set pass.  gemm computes an output row the same
# way whatever the row count, so blocks of two or more rows give the bits of
# one pass over the whole set (tests/test_forecast.py holds it).
BLOCK_ROWS = 4096


def row_blocks(n: int):
    """Slices of at most BLOCK_ROWS + 1 rows that cover range(n) in order.

    A block holds a single row only when n is 1: numpy hands a 1-row matmul
    to gemv, whose sums can differ in the last bit from gemm's, so a 1-row
    tail joins the block before it.
    """
    start = 0
    while start < n:
        stop = min(start + BLOCK_ROWS, n)
        if n - stop == 1:
            stop = n
        yield slice(start, stop)
        start = stop


@dataclass(frozen=True)
class TelemetrySeries:
    """A mission as ``features()``, the ``(N, 6)`` ``DEFAULT_FEATURES`` (NaN
    where blank), and ``meta``, the ``(N, 5)`` ``META_COLUMNS``.  A read-only
    C-ordered matrix that no writable array shares is kept; others are copied."""

    _features: np.ndarray
    meta: np.ndarray

    def __post_init__(self) -> None:
        features, meta = _sealed(self._features), _sealed(self.meta)
        n = meta.shape[:1]
        if (features.shape, meta.shape) != (n + (len(DEFAULT_FEATURES),), n + (len(META_COLUMNS),)):
            raise DimensionError(
                f"expected (N, {len(DEFAULT_FEATURES)}) feature and (N, {len(META_COLUMNS)}) "
                f"meta matrices, got shapes {features.shape} and {meta.shape}"
            )
        for name, col in zip(META_COLUMNS, meta.T):
            if np.isnan(col).any():
                raise ParseError(f"{name} cells may not be missing")
        ts = meta[:, 0]
        bad = np.nonzero(np.diff(ts) <= 0)[0]
        if bad.size:
            i = int(bad[0])
            raise OrderingError(
                f"timestamp {int(ts[i + 1])} at record {i + 1} is not greater "
                f"than predecessor {int(ts[i])}"
            )
        object.__setattr__(self, "_features", features)
        object.__setattr__(self, "meta", meta)

    @classmethod
    def from_values(cls, values: np.ndarray) -> "TelemetrySeries":
        """The series of an ``(N, 11)`` matrix in COLUMNS order."""
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] != len(COLUMNS):
            raise DimensionError(
                f"expected an (N, {len(COLUMNS)}) value matrix, got shape {values.shape}"
            )
        # take, not values[:, group], so each copy is C-ordered and kept as it is.
        return cls(*(_frozen(values.take(g, axis=1)) for g in (_FEATURE_INDICES, _META_INDICES)))

    def __len__(self) -> int:
        return int(self.meta.shape[0])

    @property
    def feature_indices(self) -> tuple[int, ...]:
        return _FEATURE_INDICES

    @property
    def values(self) -> np.ndarray:
        """A read-only ``(N, 11)`` matrix in COLUMNS order, assembled on each read."""
        return _frozen(np.column_stack([self.column(name) for name in COLUMNS]))

    def column(self, name: str) -> np.ndarray:
        for names, matrix in ((DEFAULT_FEATURES, self._features), (META_COLUMNS, self.meta)):
            if name in names:
                return matrix[:, names.index(name)]
        raise ConfigError(f"unknown column {name!r}")

    def features(self) -> np.ndarray:
        """The stored (N, D) modeling-feature matrix, read-only and C-ordered."""
        # Kept C-ordered: matrix products round differently on a Fortran-ordered input.
        return self._features

    # The same for a caller that holds a series.
    with_values = from_values

    def with_features(self, matrix: np.ndarray) -> "TelemetrySeries":
        return TelemetrySeries(matrix, self.meta)

    def has_missing(self) -> bool:
        return bool(np.isnan(self._features).any())


def _frozen(array: np.ndarray) -> np.ndarray:
    """array, made read-only."""
    array.setflags(write=False)
    return array


def _sealed(values) -> np.ndarray:
    """values if a read-only C-ordered float64 array no writable array shares, else such a copy."""
    array = values
    if type(array) is np.ndarray and array.dtype == np.float64 and array.flags.c_contiguous:
        while isinstance(array, np.ndarray) and not array.flags.writeable:
            array = array.base
        if array is None:
            return values
    return _frozen(np.array(values, dtype=np.float64, order="C"))


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


def write_text(path, text) -> None:
    """Write text, a string or an iterable of string blocks, to path as UTF-8.

    Line ends are written as given on every platform.  The blocks go to a
    temporary file beside path, which replaces path only once the last block
    is written, so path is never left holding part of the text.  On any
    failure the temporary file is removed; an OSError becomes a
    PipelineError naming path.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise PipelineError(f"cannot write {path}: {exc.strerror or exc}") from None
        raise


def read_parsed(path, parse):
    """``parse(read_text(path))``; a ParseError or SizingError gets path in front of its message."""
    try:
        return parse(read_text(path))
    except ParseError as exc:
        raise exc.in_file(path) from None
    except SizingError as exc:
        raise SizingError(f"{path}: {exc}") from None


def load_table(
    path, columns: tuple[str, ...], int_columns: frozenset[str], groups, rules=()
) -> tuple[np.ndarray, ...]:
    """``parse_table`` of a numeric CSV file, as one matrix per column group.

    For each tuple of column names in ``groups``, the result holds a
    read-only C-ordered matrix of those columns in that order.  path
    prefixes a ParseError.
    """
    picks = [[columns.index(name) for name in group] for group in groups]
    try:
        try:
            with open(path, "rb") as fh:
                tables = _read_exact(fh, columns, int_columns, rules, picks)
        except OSError as exc:
            raise InputError(f"cannot read input file {path}: {exc.strerror}") from None
        if tables is None:
            values = _read_lines(_read_bytes(path), columns, int_columns, rules)
            tables = tuple(_frozen(values.take(pick, axis=1)) for pick in picks)
    except ParseError as exc:
        raise exc.in_file(path) from None
    return tables


def table_blocks(columns: tuple[str, ...], cells, int_columns: frozenset[str]):
    """Numeric CSV text from one value sequence per column, in ``row_blocks``' blocks.

    The first block is the header.  ``int_columns`` cells are written as
    integers and every other cell by ``repr``, so ``parse_table`` reads back
    the same floats; NaN is a blank.  Each block converts only its own rows.
    """
    cells = list(cells)
    if len(cells) != len(columns) or len(set(map(len, cells))) > 1:
        raise ValueError(f"expected {len(columns)} columns of one length")
    integral = [name in int_columns for name in columns]
    yield ",".join(columns) + "\n"
    for rows in row_blocks(len(cells[0])):
        rendered = []
        for column, whole in zip(cells, integral):
            values = np.asarray(column[rows], dtype=np.float64).tolist()
            if whole:
                rendered.append(["" if v != v else str(int(v)) for v in values])
            else:
                rendered.append(["" if v != v else repr(v) for v in values])
        yield "\n".join(map(",".join, zip(*rendered))) + "\n"


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
    """
    tables = _read_exact(io.BytesIO(data), columns, int_columns, rules, [range(len(columns))])
    return _read_lines(data, columns, int_columns, rules) if tables is None else tables[0]


def _chunks(fh):
    """The rest of binary file fh in pieces of about _CHUNK_BYTES, each cut at a line end."""
    while chunk := fh.read(_CHUNK_BYTES):
        if not chunk.endswith(b"\n"):
            chunk += fh.readline()  # rebound, so the piece read is freed before the yield
        yield chunk


def _read_exact(
    fh, columns: tuple[str, ...], int_columns: frozenset[str], rules, picks
) -> tuple | None:
    """``parse_table`` of binary file fh in ``table_blocks``' layout, else None.

    The result holds one matrix per sequence of column indices in ``picks``.
    A first pass counts the rows.  A second pass reads each chunk with
    numpy's C reader, checks its rows on every column, and copies the picked
    columns into the matrices, so no buffer but those grows with the file.
    """
    if fh.readline().replace(b"\r\n", b"\n") != (",".join(columns) + "\n").encode():
        return None
    body = fh.tell()
    # numpy counts line breaks about three times as fast as bytes.count.
    # Only the last chunk can end without one.  In a generator expression
    # the last chunk is not left bound through the second pass.
    rows = sum(
        np.count_nonzero(np.frombuffer(chunk, np.uint8) == _LF) + (not chunk.endswith(b"\n"))
        for chunk in _chunks(fh)
    )
    if not rows:
        return None
    fh.seek(body)
    tables = tuple(np.empty((rows, len(pick))) for pick in picks)
    whole = [j for j, name in enumerate(columns) if name in int_columns]
    ruled = [(columns.index(name), bad) for name, bad, _ in rules]
    done, last = 0, -math.inf
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
            or cells[0, 0] <= last
            or any((np.trunc(cells[:, j]) != cells[:, j]).any() for j in whole)
            or any(bad(cells[:, j]).any() for j, bad in ruled)
        ):
            return None
        for table, pick in zip(tables, picks):
            # Valid picks need no bounds check, and a checked take buffers its output.
            cells.take(pick, axis=1, out=table[done : done + len(cells)], mode="clip")
        done, last = done + len(cells), cells[-1, 0]
        # Freed before _chunks reads the next chunk beside its own copy.
        del chunk, cells
    if done != rows:  # a blank line, or the file changed between the passes
        return None
    for table in tables:
        table.setflags(write=False)
    return tables


def _fill_blanks(chunk: bytes) -> bytes:
    """chunk, whole lines of plain bytes, with "nan" written in every blank cell.

    numpy's reader rejects an empty cell.  No cell can read "nan" before, so
    the written ones mark exactly the blanks.  This runs only on a chunk
    numpy could not read.
    """
    # The chunk's two ends weigh as line breaks: edges, but no delimiters.
    weights = np.frombuffer(b"".join((b"\x01", chunk.translate(_EDGE_WEIGHTS), b"\x01")), np.uint8)
    pairs = weights[:-1] + weights[1:]
    del weights
    # Gap i, before byte i of chunk, lies between padded bytes i and i + 1;
    # its "nan" starts 3 bytes later in the output for each gap before it.
    at = np.flatnonzero(pairs >= 4)
    del pairs
    at += np.arange(0, 3 * len(at), 3)
    out = np.empty(len(chunk) + 3 * len(at), np.uint8)
    kept = np.ones(len(out), dtype=bool)
    for byte in b"nan":
        out[at] = byte
        kept[at] = False
        at += 1
    out[kept] = np.frombuffer(chunk, np.uint8)
    del kept
    return out.tobytes()


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


def serialize_sensor_csv(series: TelemetrySeries):
    return table_blocks(COLUMNS, map(series.column, COLUMNS), INT_COLUMNS)


def load_sensor_csv(path) -> TelemetrySeries:
    groups = (DEFAULT_FEATURES, META_COLUMNS)
    return TelemetrySeries(*load_table(path, COLUMNS, INT_COLUMNS, groups, SENSOR_RULES))


def save_sensor_csv(series: TelemetrySeries, path) -> None:
    write_text(path, serialize_sensor_csv(series))


def impute_missing(series: TelemetrySeries, policy: str = "linear") -> TelemetrySeries:
    """Fill NaN cells feature by feature; the result shares the series' meta.

    ``forward-fill`` carries the previous observed value and fails when the
    first record is missing.  ``linear`` interpolates between observed
    neighbours and holds the nearest observed value at the boundaries.
    """
    if policy not in ("linear", "forward-fill"):
        raise ConfigError(f"unknown imputation policy {policy!r}")
    if not series.has_missing():
        return series
    values = np.array(series.features())
    for j, name in enumerate(DEFAULT_FEATURES):
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
    return series.with_features(_frozen(values))


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
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "mean", _frozen(mean))
        object.__setattr__(self, "std", _frozen(std))

    def transform(self, matrix: np.ndarray) -> np.ndarray:
        """A new read-only matrix of matrix's z-scores; an overflow is a NumericError."""
        x = np.asarray(matrix, dtype=np.float64)
        degenerate = self.std < _STD_EPS
        with np.errstate(over="ignore", invalid="ignore"):
            z = x - self.mean
            z /= np.where(degenerate, 1.0, self.std)
        z[:, degenerate] = 0.0
        if not np.isfinite(z).all():
            raise NumericError("normalized features are not finite: a value is too far from its mean")
        return _frozen(z)


def fit_normalize(series: TelemetrySeries) -> NormStats:
    if len(series) == 0:
        raise NumericError("cannot fit normalization statistics on an empty series")
    x = series.features()
    if np.isnan(x).any():
        raise ImputationError("impute missing cells before fitting normalization")
    # Sums that overflow give infinite statistics, which NormStats rejects.
    with np.errstate(over="ignore", invalid="ignore"):
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
    cuts = (slice(0, n_train), slice(n_train, n_train + n_val), slice(n_train + n_val, n))
    return SplitResult(*(TelemetrySeries(series.features()[c], series.meta[c]) for c in cuts))


@dataclass(frozen=True)
class WindowedDataset:
    """Fixed-length windows over a feature matrix, and where their targets sit.

    Window k's inputs start at record ``k * stride`` and its targets at record
    ``k * stride + target_offset``: 0 in reconstruction mode, where
    ``targets`` is the window itself, and ``seq_len`` in forecast mode, where
    it is the ``horizon`` following rows.  ``window_matrix`` builds both as
    read-only views that share one buffer; reshaping one to flat rows copies
    it, so consumers flatten a block at a time.
    """

    inputs: np.ndarray
    targets: np.ndarray
    stride: int
    target_offset: int

    def __post_init__(self) -> None:
        for name in ("inputs", "targets"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return int(self.inputs.shape[0])

    @property
    def feature_count(self) -> int:
        return int(self.inputs.shape[2])

    @property
    def horizon(self) -> int:
        """Target rows per window: seq_len when reconstructing."""
        return int(self.targets.shape[1])


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
    if mode == "reconstruction":
        offset, rows = 0, seq_len
    elif mode == "forecast":
        if horizon < 1:
            raise ConfigError(f"forecast horizon must be at least 1, got {horizon}")
        offset, rows = seq_len, int(horizon)
    else:
        raise ConfigError(f"unknown window mode {mode!r}")
    n = x.shape[0]
    span = offset + rows
    if n < span:
        raise SizingError(
            f"need at least {span} records for seq_len={seq_len}"
            + (f" plus horizon={rows}" if offset else "")
            + f", got {n}"
        )
    count = (n - span) // stride + 1
    # Views over a sealed matrix, such as a series' features, else over a private copy.
    base = _sealed(x)
    inputs = _window_view(base, 0, count, seq_len, stride)
    targets = _window_view(base, offset, count, rows, stride) if offset else inputs
    return WindowedDataset(inputs, targets, int(stride), int(offset))


def window(
    series: TelemetrySeries,
    seq_len: int,
    stride: int = 1,
    mode: str = "reconstruction",
    horizon: int = 1,
) -> WindowedDataset:
    return window_matrix(series.features(), seq_len, stride, mode, horizon)
