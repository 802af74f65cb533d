"""Helpers and reference implementations that only the tests use.

``reference_parse_table`` is the line-by-line numeric CSV parser that
``uavloop.telemetry.parse_table`` replaced; the differential tests hold the
package's reader to it.  ``reference_format_table`` is the one-string CSV
writer that ``uavloop.telemetry.table_blocks`` replaced; the blocks must join
to its bytes.  ``reference_fill_blanks`` is the replace chain that
``uavloop.telemetry._fill_blanks`` replaced; the vectorised fill must return
its bytes.  ``reference_forward``, ``reference_loss``,
``reference_record_losses`` and ``reference_persistence_losses`` are the
one-pass forms of the blocked full-set passes and of the blocked
``tiersim.PersistenceDetector``, which must match them bit for bit.
``reference_loss_and_grad`` is the allocating form of the in-place SGD step,
and ``reference_train`` the training loop on it that also records every batch
loss; ``forecast.train`` must match its parameters and validation losses bit
for bit.  ``reference_parse_dataset`` is the
line-by-line packet dataset reader that ``uavloop.packetset.parse_dataset``
replaced; it must return equal samples, or raise the same ``ParseError``
message and line.  ``reference_parse_packet_csv`` is the column-wise packet
CSV reader, with its row-by-row error pass, that
``uavloop.packetset.parse_packet_csv`` replaced; the same contract holds for
records.  ``reference_build_text`` is the record-by-record path from packet CSV
text to a rendered dataset that ``uavloop.packetset.build_samples_text``
replaced: sessions grouped by endpoint set, one ``make_pair`` per window, and
each sample rendered from its records; ``reference_build_dataset``,
``reference_sessions`` and ``reference_score_fields`` are its steps and the
record scorer, and the package must return equal records and the same bytes.
``gradient_check`` and ``ar1_series`` serve the forecast and acceptance tests.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import attrgetter
from typing import NoReturn, Sequence

import numpy as np

from uavloop.detect import pointwise_loss
from uavloop.errors import ConfigError, OrderingError, ParseError
from uavloop.packetset import (
    FLAG_ALPHABET,
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


def reference_format_table(columns: tuple[str, ...], cells, int_columns: frozenset[str]) -> str:
    """Numeric CSV text from one value sequence per column, built whole, column-wise."""
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


def reference_fill_blanks(chunk: bytes) -> bytes:
    """chunk with "nan" in every blank cell, by four ``bytes.replace`` scans."""
    if chunk.startswith(b","):
        chunk = b"nan" + chunk
    # Two passes, since the cell between two adjacent blanks overlaps both matches.
    chunk = chunk.replace(b",,", b",nan,").replace(b",,", b",nan,")
    chunk = chunk.replace(b"\n,", b"\nnan,").replace(b",\n", b",nan\n")
    return chunk + b"nan" if chunk.endswith(b",") else chunk


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
    # Target cell (w, k) is record w * stride + target_offset + k.
    windows = np.arange(len(dataset))[:, None]
    rows = windows * dataset.stride + dataset.target_offset + np.arange(dataset.horizon)
    size = int(rows.max()) + 1
    sums = np.zeros(size)
    counts = np.zeros(size)
    np.add.at(sums, rows.ravel(), per_row)
    np.add.at(counts, rows.ravel(), 1.0)
    covered = counts > 0
    return sums[covered] / counts[covered]


def reference_persistence_losses(matrix) -> np.ndarray:
    """Each record's mean squared jump from the previous record, in one pass; the first is 0."""
    m = np.asarray(matrix, dtype=np.float64)
    return np.concatenate([[0.0], pointwise_loss(m[1:], m[:-1])])


def reference_loss_and_grad(predictor, windows, targets, params):
    """Batch MSE and gradient, one new array per expression and one concatenate."""
    w1, b1, w2, b2 = predictor._unpack(params)
    xf = np.asarray(windows, dtype=np.float64).reshape(len(windows), predictor.n_in)
    yf = np.asarray(targets, dtype=np.float64).reshape(len(targets), predictor.n_out)
    pre = xf @ w1 + b1
    hidden = np.maximum(pre, 0.0)
    out = hidden @ w2 + b2
    diff = out - yf
    loss = float(np.mean(diff**2))
    dout = 2.0 * diff / diff.size
    dw2 = hidden.T @ dout
    db2 = dout.sum(axis=0)
    dhidden = dout @ w2.T
    dpre = np.where(pre > 0.0, dhidden, 0.0)
    dw1 = xf.T @ dpre
    db1 = dpre.sum(axis=0)
    return loss, np.concatenate([dw1.ravel(), db1, dw2.ravel(), db2])


def reference_train(predictor, train_data, val_data=None):
    """``forecast.train``'s batches and steps on ``reference_loss_and_grad``.

    Returns the final parameters, each epoch's list of (batch loss, batch
    size) pairs, and each epoch's validation loss (``Predictor.loss`` after
    the epoch's last step; an empty list without val_data).
    """
    cfg = predictor.config
    x, y = train_data.inputs, train_data.targets
    n = len(x)
    rng = np.random.default_rng([cfg.seed, 1])
    params = predictor.params.copy()
    batch_losses, val_losses = [], []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        epoch = []
        for start in range(0, n, cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            loss, grad = reference_loss_and_grad(predictor, x[batch], y[batch], params)
            epoch.append((loss, batch.size))
            params -= cfg.learning_rate * grad
        batch_losses.append(epoch)
        if val_data is not None:
            val_losses.append(predictor.loss(val_data.inputs, val_data.targets, params))
    return params, batch_losses, val_losses


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


def reference_sessions(packets, idle_timeout_s: float = 60.0) -> list[list[PacketRecord]]:
    """Sessions of packets: grouped by endpoint set, sorted by time, cut on F/R or idle gaps."""
    if idle_timeout_s <= 0:
        raise ConfigError(f"idle_timeout_s must be positive, got {idle_timeout_s}")
    groups: dict[frozenset, list[PacketRecord]] = {}
    for rec in packets:
        groups.setdefault(rec.endpoints(), []).append(rec)
    sessions: list[list[PacketRecord]] = []
    for flow in groups.values():
        flow = sorted(flow, key=lambda r: r.timestamp)
        current: list[PacketRecord] = []
        for rec in flow:
            boundary = bool(current) and (
                rec.timestamp - current[-1].timestamp > idle_timeout_s
            )
            if boundary:
                sessions.append(current)
                current = []
            current.append(rec)
            if "F" in rec.flags or "R" in rec.flags:
                sessions.append(current)
                current = []
        if current:
            sessions.append(current)
    return sessions


_key_values = attrgetter(*KEY_FIELDS)


def reference_perturb_field(packet: PacketRecord, fld: str, rng) -> PacketRecord:
    if fld not in KEY_FIELDS:
        raise ConfigError(f"unknown packet field {fld!r}")
    old = getattr(packet, fld)
    if fld in ("sport", "dport"):
        step = int(rng.integers(1, 1001)) * (1 if rng.random() < 0.5 else -1)
        new = (old + step) % 65536
    elif fld in ("seq", "ack"):
        step = int(rng.integers(1, 1000001)) * (1 if rng.random() < 0.5 else -1)
        new = (old + step) % 2**32
    elif fld == "length":
        new = old
        while new == old:
            new = int(rng.integers(0, 1501))
    else:
        letter = FLAG_ALPHABET[int(rng.integers(0, len(FLAG_ALPHABET)))]
        new = old.replace(letter, "") if letter in old else old + letter
    values = list(_key_values(packet))
    values[KEY_FIELDS.index(fld)] = new
    return PacketRecord(packet.timestamp, packet.src, packet.dst, *values)


def reference_make_pair(context, prompt, next_packet, rng) -> FinetuneSample:
    fld = KEY_FIELDS[int(rng.integers(0, len(KEY_FIELDS)))]
    rejected = reference_perturb_field(next_packet, fld, rng)
    return FinetuneSample(tuple(context), prompt, next_packet, rejected)


def reference_build_dataset(
    packets, context: int = 3, seed: int = 0, idle_timeout_s: float = 60.0
) -> list[FinetuneSample]:
    """Pairs of every window of every session, drawn from one generator seeded with seed."""
    sessions = reference_sessions(packets, idle_timeout_s=idle_timeout_s)
    if context < 1:
        raise ConfigError(f"context must be positive, got {context}")
    rng = np.random.default_rng(seed)
    return [
        reference_make_pair(sess[i - context : i], sess[i], sess[i + 1], rng)
        for sess in sessions
        for i in range(context, len(sess) - 1)
    ]


def _render_block(p: PacketRecord) -> str:
    return (
        f"#BLOCK\nsport:{p.sport}\ndport:{p.dport}\nflags:{p.flags}\n"
        f"seq:{p.seq}\nack:{p.ack}\nlength:{p.length}"
    )


def _render_sample(sample: FinetuneSample, blocks: dict) -> str:
    parts = ["#Context", *[blocks[id(p)] for p in sample.context]]
    parts += ("#Previous_Packet", blocks[id(sample.prompt)], "#Predicted_Packet", "")
    prefix = "\n".join(parts)
    rejected = _render_block(sample.rejected)
    return f"{prefix}{blocks[id(sample.chosen)]}\n\n{prefix}{rejected}\n"


def reference_render_dataset(samples: Sequence[FinetuneSample]) -> str:
    if not samples:
        raise ConfigError("cannot render an empty sample list")
    packets = {id(p): p for s in samples for p in (*s.context, s.prompt, s.chosen)}
    blocks = {key: _render_block(p) for key, p in packets.items()}
    return "\n".join(_render_sample(s, blocks) for s in samples)


def reference_build_text(
    text: str, context: int = 3, seed: int = 0, idle_timeout_s: float = 60.0
) -> str:
    """The dataset of a packet CSV, built and rendered one record at a time."""
    packets = reference_parse_packet_csv(text)
    return reference_render_dataset(
        reference_build_dataset(packets, context, seed, idle_timeout_s)
    )


def reference_score_fields(predictions, truths) -> tuple[dict, dict, int]:
    """(field accuracy, error histogram, sample count), counted one field at a time."""
    n = len(predictions)
    correct = {name: 0 for name in KEY_FIELDS}
    histogram = {bucket: 0 for bucket in ("0", "1", "2", "3", "4+")}
    for pred, truth in zip(predictions, truths):
        wrong = 0
        for name in KEY_FIELDS:
            if getattr(pred, name) == getattr(truth, name):
                correct[name] += 1
            else:
                wrong += 1
        histogram[str(wrong) if wrong < 4 else "4+"] += 1
    return (
        {k: round(100.0 * v / n, 2) for k, v in correct.items()},
        {k: round(100.0 * v / n, 2) for k, v in histogram.items()},
        n,
    )
