"""Helpers and reference implementations that only the tests use.

``reference_parse_table`` is the line-by-line numeric CSV parser that
``uavloop.telemetry.parse_table`` replaced; the differential tests hold the
package's reader to it.  ``reference_forward``, ``reference_loss`` and
``reference_record_losses`` are the one-pass forms of the blocked full-set
passes, which must match them bit for bit.  ``reference_parse_dataset`` is the
line-by-line packet dataset reader that ``uavloop.packetset.parse_dataset``
replaced; it must return equal samples, or raise the same ``ParseError``
message and line.  ``reference_parse_packet_csv`` is the column-wise packet
CSV reader, with its row-by-row error pass, that
``uavloop.packetset.parse_packet_csv`` replaced; the same contract holds for
records.  ``gradient_check`` and ``ar1_series`` serve the forecast
and acceptance tests.
"""

from __future__ import annotations

import math
from itertools import repeat
from typing import NoReturn

import numpy as np

from uavloop.errors import ConfigError, OrderingError, ParseError
from uavloop.packetset import (
    KEY_FIELDS,
    PACKET_COLUMNS,
    PACKET_HEADER,
    FinetuneSample,
    PacketRecord,
    canonical_flags,
    diff_fields,
)


def reference_parse_table(
    text: str, columns: tuple[str, ...], int_columns: frozenset[str]
) -> tuple[np.ndarray, list[int]]:
    """Parse numeric CSV into a matrix plus each row's source line number.

    The header must list ``columns``.  A blank cell is NaN, except in
    ``int_columns``, where it is an error; every other cell must be a finite
    number, and a whole number in ``int_columns``.  The first column must
    strictly increase.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input: missing header row", line=1)
    header = ",".join(columns)
    if lines[0].strip() != header:
        raise ParseError(f"expected header {header!r}, got {lines[0].strip()!r}", line=1)
    n_cols = len(columns)
    is_int = [name in int_columns for name in columns]
    rows: list[list[float]] = []
    locs: list[int] = []
    prev: float | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"expected {n_cols} fields, got {len(parts)}", line=lineno)
        row: list[float] = []
        for name, integral, token in zip(columns, is_int, parts):
            try:
                value = float(token)
            except ValueError:
                token = token.strip()
                if token:
                    raise ParseError(
                        f"non-numeric value {token!r} in column {name}", line=lineno
                    ) from None
                if integral:
                    raise ParseError(f"column {name} may not be empty", line=lineno) from None
                row.append(math.nan)
                continue
            if not math.isfinite(value):
                raise ParseError(
                    f"non-finite value {token.strip()!r} in column {name}", line=lineno
                )
            if integral and value != int(value):
                raise ParseError(
                    f"column {name} must be an integer, got {token.strip()!r}", line=lineno
                )
            row.append(value)
        if prev is not None and row[0] <= prev:
            raise OrderingError(
                f"{columns[0]} {int(row[0])} is not greater than predecessor {int(prev)}",
                line=lineno,
            )
        prev = row[0]
        rows.append(row)
        locs.append(lineno)
    if not rows:
        return np.empty((0, n_cols)), locs
    return np.array(rows, dtype=np.float64), locs


def reference_forward(predictor, windows, params=None) -> np.ndarray:
    """Flat (W, n_out) outputs of every window in one pass over the whole set."""
    w1, b1, w2, b2 = predictor._unpack(predictor.params if params is None else params)
    windows = np.asarray(windows, dtype=np.float64)
    xf = windows.reshape(windows.shape[0], predictor.n_in)
    pre = xf @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    return hidden @ w2 + b2


def reference_loss(predictor, windows, targets, params=None) -> float:
    out = reference_forward(predictor, windows, params)
    yf = np.asarray(targets, dtype=np.float64).reshape(out.shape)
    return float(np.mean((out - yf) ** 2))


def reference_record_losses(predictor, dataset) -> np.ndarray:
    """Per-record mean squared error over every window covering the record."""
    preds = reference_forward(predictor, dataset.inputs)
    width = dataset.feature_count
    diff = preds.reshape(-1, width) - dataset.targets.reshape(-1, width)
    per_row = np.mean(diff**2, axis=1)
    rows = dataset.target_record_indices()
    size = int(rows.max()) + 1
    sums = np.zeros(size)
    counts = np.zeros(size)
    np.add.at(sums, rows.ravel(), per_row)
    np.add.at(counts, rows.ravel(), 1.0)
    covered = counts > 0
    return sums[covered] / counts[covered]


def gradient_check(
    predictor,
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


def ar1_series(
    n: int, phi: float = 0.9, sigma: float = 1.0, seed: int = 0
) -> np.ndarray:
    """First-order autoregressive sequence, x[t] = phi * x[t-1] + noise."""
    if not (0 <= abs(phi) < 1):
        raise ConfigError(f"phi must satisfy |phi| < 1, got {phi}")
    rng = np.random.default_rng([seed, 4])
    # Start from the stationary distribution so variance is flat end to end.
    prev = float(rng.normal(0.0, sigma / np.sqrt(1.0 - phi * phi)))
    noise = rng.normal(0.0, sigma, size=n)
    out = np.empty(n)
    for i in range(n):
        prev = phi * prev + noise[i]
        out[i] = prev
    return out


_INT_LIMITS = {"sport": 2**16, "dport": 2**16, "seq": 2**32, "ack": 2**32, "length": math.inf}


def _in_range(name: str, value: int) -> int:
    if not 0 <= value < _INT_LIMITS[name]:
        raise ParseError(f"{name} out of range: {value}")
    return value


def _parse_block(lines: list[str], pos: int) -> tuple[dict, int]:
    if pos >= len(lines) or lines[pos] != "#BLOCK":
        raise ParseError("expected #BLOCK", line=pos + 1)
    pos += 1
    values: dict = {}
    for name in KEY_FIELDS:
        if pos >= len(lines):
            raise ParseError(f"truncated block, missing {name}", line=pos)
        key, sep, raw = lines[pos].partition(":")
        if not sep or key != name:
            raise ParseError(f"expected field {name!r}, got {lines[pos]!r}", line=pos + 1)
        try:
            values[name] = canonical_flags(raw) if name == "flags" else _in_range(name, int(raw))
        except (ValueError, ParseError) as exc:
            raise ParseError(f"bad {name!r} field: {exc}", line=pos + 1) from exc
        pos += 1
    return values, pos


_BLOCK_LINES = 1 + len(KEY_FIELDS)


def _block_at(lines: list[str], pos: int, packets: dict) -> tuple[PacketRecord, int]:
    key = tuple(lines[pos : pos + _BLOCK_LINES])
    packet = packets.get(key)
    if packet is not None:
        return packet, pos + _BLOCK_LINES
    values, end = _parse_block(lines, pos)
    packet = packets[key] = PacketRecord(timestamp=0.0, src="", dst="", **values)
    return packet, end


def _parse_document(lines: list[str], pos: int, packets: dict):
    if pos >= len(lines) or lines[pos] != "#Context":
        raise ParseError("expected #Context", line=pos + 1)
    pos += 1
    context: list[PacketRecord] = []
    while pos < len(lines) and lines[pos] == "#BLOCK":
        packet, pos = _block_at(lines, pos, packets)
        context.append(packet)
    if not context:
        raise ParseError("document has an empty context", line=pos + 1)
    if pos >= len(lines) or lines[pos] != "#Previous_Packet":
        raise ParseError("expected #Previous_Packet", line=pos + 1)
    prompt, pos = _block_at(lines, pos + 1, packets)
    if pos >= len(lines) or lines[pos] != "#Predicted_Packet":
        raise ParseError("expected #Predicted_Packet", line=pos + 1)
    predicted, pos = _block_at(lines, pos + 1, packets)
    return tuple(context), prompt, predicted, pos


def reference_parse_dataset(text: str) -> list[FinetuneSample]:
    """Samples of a rendered packet dataset, read one line at a time.

    Whitespace-only lines between documents are skipped; each block is
    range-checked field by field, and identical block lines share one record.
    """
    docs: list[tuple] = []
    lines = text.splitlines()
    packets: dict = {}
    pos = 0
    while pos < len(lines):
        if not lines[pos].strip():
            pos += 1
            continue
        context, prompt, predicted, pos = _parse_document(lines, pos, packets)
        docs.append((context, prompt, predicted))
    if len(docs) % 2 != 0:
        raise ParseError(f"dataset holds {len(docs)} documents, expected an even count")
    samples: list[FinetuneSample] = []
    for k in range(0, len(docs), 2):
        c_ctx, c_prompt, chosen = docs[k]
        r_ctx, r_prompt, rejected = docs[k + 1]
        if c_ctx != r_ctx or c_prompt != r_prompt:
            raise ParseError(f"pair {k // 2} has mismatched context or prompt blocks")
        try:
            samples.append(FinetuneSample(c_ctx, c_prompt, chosen, rejected))
        except ConfigError:
            diffs = diff_fields(chosen, rejected)
            raise ParseError(
                f"pair {k // 2} differs in {len(diffs)} fields, expected exactly 1"
            ) from None
    return samples


def reference_parse_packet_csv(text: str) -> list[PacketRecord]:
    """Records of a packet CSV; blank and whitespace-only lines are skipped.

    Cells are converted a column at a time.  On any fault the rows are read
    again one at a time by _raise_first_row_error, which names the first bad
    line.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != PACKET_HEADER:
        raise ParseError(f"expected header {PACKET_HEADER!r}", line=1)
    rows = [line for line in lines[1:] if line.strip()]
    if not rows:
        return []
    if set(map(str.count, rows, repeat(","))) == {len(PACKET_COLUMNS) - 1}:
        cells = ",".join(rows).split(",")
        ts, src, dst, sport, dport, flags, seq, ack, length = (
            cells[j :: len(PACKET_COLUMNS)] for j in range(len(PACKET_COLUMNS))
        )
        try:
            return list(
                map(
                    PacketRecord,
                    map(float, ts),
                    src,
                    dst,
                    map(int, sport),
                    map(int, dport),
                    flags,
                    map(int, seq),
                    map(int, ack),
                    map(int, length),
                )
            )
        except (ValueError, ParseError):
            pass
    _raise_first_row_error(lines)


def _raise_first_row_error(lines: list[str]) -> NoReturn:
    """Raise the error of the first bad row of a packet CSV the reference rejected."""
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != len(PACKET_COLUMNS):
            raise ParseError(
                f"expected {len(PACKET_COLUMNS)} fields, got {len(cells)}", line=lineno
            )
        try:
            PacketRecord(
                timestamp=float(cells[0]),
                src=cells[1],
                dst=cells[2],
                sport=int(cells[3]),
                dport=int(cells[4]),
                flags=cells[5],
                seq=int(cells[6]),
                ack=int(cells[7]),
                length=int(cells[8]),
            )
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        except ValueError as exc:
            raise ParseError(f"bad packet row: {exc}", line=lineno) from exc
    raise ParseError("packet CSV could not be read")
