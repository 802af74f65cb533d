"""Packet-log sessionization and preference-pair dataset construction.

A parsed capture is grouped into sessions (bidirectional endpoint pairs, split
on FIN/RST or idle gaps).  A window slides over each session: n context
packets, the prompt, and the packet that actually followed it.  Every window
yields a ``FinetuneSample``: the true next packet as the chosen continuation
and a single-field corruption of it as the rejected one.  One generator,
seeded once per build, draws every pair's corruption in order.  Pairs render
to a plain-text format with one key:value line per field and parse back
losslessly into the same type.

Each packet is written once per window it appears in, so a dataset repeats
most blocks many times.  Within one call, ``render_dataset`` renders each
distinct packet's block once, and ``parse_dataset`` parses and validates each
distinct block text once: identical blocks return one shared frozen
``PacketRecord``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ParseError
from .telemetry import read_text

PACKET_COLUMNS = (
    "timestamp",
    "src",
    "dst",
    "sport",
    "dport",
    "flags",
    "seq",
    "ack",
    "length",
)
PACKET_HEADER = ",".join(PACKET_COLUMNS)

# Fields rendered into documents and eligible for corruption, in render order.
KEY_FIELDS = ("sport", "dport", "flags", "seq", "ack", "length")

# Canonical flag letters; parsed and rendered in this order.
FLAG_ALPHABET = "FSRPAUEC"

SESSION_IDLE_TIMEOUT_S = 60.0

_CONTEXT_TAG = "#Context"
_PREVIOUS_TAG = "#Previous_Packet"
_PREDICTED_TAG = "#Predicted_Packet"
_BLOCK_TAG = "#BLOCK"


@lru_cache(maxsize=256)
def canonical_flags(flags: str) -> str:
    """Deduplicate and order flag letters by the canonical alphabet."""
    present = set(flags)
    unknown = present - set(FLAG_ALPHABET)
    if unknown:
        raise ParseError(f"unknown TCP flag letters: {''.join(sorted(unknown))}")
    return "".join(c for c in FLAG_ALPHABET if c in present)


# Exclusive upper bound of each integer key field; all are non-negative.
_INT_LIMITS = {"sport": 2**16, "dport": 2**16, "seq": 2**32, "ack": 2**32, "length": math.inf}


def _in_range(name: str, value: int) -> int:
    """value, if it is in range for the integer key field name; else ParseError."""
    if not 0 <= value < _INT_LIMITS[name]:
        raise ParseError(f"{name} out of range: {value}")
    return value


@dataclass(frozen=True)
class PacketRecord:
    timestamp: float
    src: str
    dst: str
    sport: int
    dport: int
    flags: str
    seq: int
    ack: int
    length: int

    def __post_init__(self) -> None:
        if not math.isfinite(self.timestamp):
            raise ParseError(f"timestamp must be finite: {self.timestamp}")
        for name in _INT_LIMITS:
            _in_range(name, getattr(self, name))
        object.__setattr__(self, "flags", canonical_flags(self.flags))

    def key_values(self) -> dict:
        return {name: getattr(self, name) for name in KEY_FIELDS}

    def endpoints(self) -> frozenset:
        return frozenset(((self.src, self.sport), (self.dst, self.dport)))


def parse_packet_csv(text: str) -> list[PacketRecord]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != PACKET_HEADER:
        raise ParseError(f"expected header {PACKET_HEADER!r}", line=1)
    records: list[PacketRecord] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != len(PACKET_COLUMNS):
            raise ParseError(
                f"expected {len(PACKET_COLUMNS)} fields, got {len(cells)}", line=lineno
            )
        try:
            records.append(
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
            )
        except ParseError as exc:
            if exc.line is None:
                raise ParseError(str(exc), line=lineno) from exc
            raise
        except ValueError as exc:
            raise ParseError(f"bad packet row: {exc}", line=lineno) from exc
    return records


def load_packet_csv(path: str) -> list[PacketRecord]:
    text = read_text(path)
    try:
        return parse_packet_csv(text)
    except ParseError as exc:
        raise exc.in_file(path) from None


def extract_sessions(
    packets: Sequence[PacketRecord],
    idle_timeout_s: float = SESSION_IDLE_TIMEOUT_S,
) -> list[list[PacketRecord]]:
    """Group packets into per-conversation sessions.

    Packets that share a bidirectional (address, port) endpoint pair belong
    to the same conversation; conversations keep first-appearance order, and
    packets within one are ordered by timestamp (stable for ties).  A session
    ends after a packet carrying F or R, or before a gap longer than the idle
    timeout.
    """
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


def perturb_field(packet: PacketRecord, fld: str, rng: np.random.Generator) -> PacketRecord:
    """Corrupt one field, guaranteed to differ from the original value."""
    values = packet.key_values()
    if fld in ("sport", "dport"):
        step = int(rng.integers(1, 1001)) * (1 if rng.random() < 0.5 else -1)
        values[fld] = (values[fld] + step) % 65536
    elif fld in ("seq", "ack"):
        step = int(rng.integers(1, 1000001)) * (1 if rng.random() < 0.5 else -1)
        values[fld] = (values[fld] + step) % 2**32
    elif fld == "length":
        new = values[fld]
        while new == values[fld]:
            new = int(rng.integers(0, 1501))
        values[fld] = new
    elif fld == "flags":
        letter = FLAG_ALPHABET[int(rng.integers(0, len(FLAG_ALPHABET)))]
        present = set(values[fld])
        present.symmetric_difference_update(letter)
        values[fld] = "".join(c for c in FLAG_ALPHABET if c in present)
    else:
        raise ConfigError(f"unknown packet field {fld!r}")
    return PacketRecord(
        timestamp=packet.timestamp,
        src=packet.src,
        dst=packet.dst,
        **values,
    )


@dataclass(frozen=True)
class FinetuneSample:
    """One preference pair: context packets, the prompt, and two continuations.

    chosen is the packet that followed the prompt; rejected differs from it
    in exactly one key field.
    """

    context: tuple
    prompt: PacketRecord
    chosen: PacketRecord
    rejected: PacketRecord

    def __post_init__(self) -> None:
        if len(self.context) < 1:
            raise ConfigError("context must hold at least one packet")
        diffs = diff_fields(self.chosen, self.rejected)
        if len(diffs) != 1:
            raise ConfigError(
                f"rejected packet must differ in exactly one field, differs in {len(diffs)}"
            )


def diff_fields(a: PacketRecord, b: PacketRecord) -> tuple:
    return tuple(f for f in KEY_FIELDS if getattr(a, f) != getattr(b, f))


def make_pair(
    context: Sequence[PacketRecord],
    prompt: PacketRecord,
    next_packet: PacketRecord,
    rng: np.random.Generator,
) -> FinetuneSample:
    """The pair preferring next_packet to a copy of it with one field corrupted.

    rng picks the field and draws the corruption.
    """
    fld = KEY_FIELDS[int(rng.integers(0, len(KEY_FIELDS)))]
    rejected = perturb_field(next_packet, fld, rng)
    return FinetuneSample(tuple(context), prompt, next_packet, rejected)


def _render_block(packet: PacketRecord) -> str:
    lines = [_BLOCK_TAG]
    for name in KEY_FIELDS:
        lines.append(f"{name}:{getattr(packet, name)}")
    return "\n".join(lines)


def _cached_block(packet: PacketRecord, blocks: dict) -> str:
    """The block of packet, rendered once per blocks dict: equal packets render equal blocks."""
    text = blocks.get(packet)
    if text is None:
        text = blocks[packet] = _render_block(packet)
    return text


def _document_prefix(context: Sequence[PacketRecord], prompt: PacketRecord, blocks: dict) -> str:
    """Every line of a document up to and including the predicted tag."""
    parts = [_CONTEXT_TAG]
    parts.extend(_cached_block(p, blocks) for p in context)
    parts.append(_PREVIOUS_TAG)
    parts.append(_cached_block(prompt, blocks))
    parts.append(_PREDICTED_TAG)
    parts.append("")
    return "\n".join(parts)


def _render_sample(sample: FinetuneSample, blocks: dict) -> str:
    # A rejected packet is a fresh corruption, so its block is not kept.
    prefix = _document_prefix(sample.context, sample.prompt, blocks)
    chosen = prefix + _cached_block(sample.chosen, blocks)
    rejected = prefix + _render_block(sample.rejected)
    return chosen + "\n\n" + rejected + "\n"


def render_dataset(samples: Sequence[FinetuneSample]) -> str:
    """Each sample as its chosen document, a blank line and its rejected one."""
    if not samples:
        raise ConfigError("cannot render an empty sample list")
    blocks: dict = {}
    return "\n".join(_render_sample(s, blocks) for s in samples)


def _parse_block(lines: list[str], pos: int) -> tuple[dict, int]:
    if pos >= len(lines) or lines[pos] != _BLOCK_TAG:
        raise ParseError(f"expected {_BLOCK_TAG}", line=pos + 1)
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
    """The packet of the block at lines[pos], and the position after it.

    packets maps the exact lines of every block parsed so far to its record,
    so a repeated block reuses the record; anything else, malformed blocks
    included, goes through _parse_block.
    """
    key = tuple(lines[pos : pos + _BLOCK_LINES])
    packet = packets.get(key)
    if packet is not None:
        return packet, pos + _BLOCK_LINES
    values, end = _parse_block(lines, pos)
    packet = packets[key] = PacketRecord(timestamp=0.0, src="", dst="", **values)
    return packet, end


def _parse_document(lines: list[str], pos: int, packets: dict):
    """Parse the document at pos; returns (context, prompt, predicted, next pos)."""
    if pos >= len(lines) or lines[pos] != _CONTEXT_TAG:
        raise ParseError(f"expected {_CONTEXT_TAG}", line=pos + 1)
    pos += 1
    context: list[PacketRecord] = []
    while pos < len(lines) and lines[pos] == _BLOCK_TAG:
        packet, pos = _block_at(lines, pos, packets)
        context.append(packet)
    if not context:
        raise ParseError("document has an empty context", line=pos + 1)
    if pos >= len(lines) or lines[pos] != _PREVIOUS_TAG:
        raise ParseError(f"expected {_PREVIOUS_TAG}", line=pos + 1)
    prompt, pos = _block_at(lines, pos + 1, packets)
    if pos >= len(lines) or lines[pos] != _PREDICTED_TAG:
        raise ParseError(f"expected {_PREDICTED_TAG}", line=pos + 1)
    predicted, pos = _block_at(lines, pos + 1, packets)
    return tuple(context), prompt, predicted, pos


def parse_dataset(text: str) -> list[FinetuneSample]:
    """Inverse of render_dataset; validates pairing and the one-field rule."""
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
            # _parse_document rejects an empty context, so the one-field rule failed.
            diffs = diff_fields(chosen, rejected)
            raise ParseError(
                f"pair {k // 2} differs in {len(diffs)} fields, expected exactly 1"
            ) from None
    return samples


def build_dataset(
    packets: Sequence[PacketRecord],
    context: int = 3,
    seed: int = 0,
    idle_timeout_s: float = SESSION_IDLE_TIMEOUT_S,
) -> list[FinetuneSample]:
    """Capture to pairs: sessionize, slide a window over each session, corrupt.

    A session of m packets yields max(0, m - context - 1) pairs, in session
    order.  One generator seeded with seed draws every pair's corruption.
    """
    sessions = extract_sessions(packets, idle_timeout_s=idle_timeout_s)
    if context < 1:
        raise ConfigError(f"context must be positive, got {context}")
    rng = np.random.default_rng(seed)
    return [
        make_pair(sess[i - context : i], sess[i], sess[i + 1], rng)
        for sess in sessions
        for i in range(context, len(sess) - 1)
    ]


_HISTOGRAM_BUCKETS = ("0", "1", "2", "3", "4+")


@dataclass(frozen=True)
class FieldScoreReport:
    """Per-field accuracy (percent) and a histogram of per-sample error counts."""

    field_accuracy: dict
    error_histogram: dict
    samples: int

    def to_text(self) -> str:
        lines = []
        for name in KEY_FIELDS:
            lines.append(f"{name}: {self.field_accuracy[name]:.2f}")
        for bucket in _HISTOGRAM_BUCKETS:
            label = f"{bucket} errors" if bucket != "1" else "1 error"
            lines.append(f"{label}: {self.error_histogram[bucket]:.2f}")
        return "\n".join(lines) + "\n"


def score_fields(
    predictions: Sequence[PacketRecord], truths: Sequence[PacketRecord]
) -> FieldScoreReport:
    """Compare predicted packets to ground truth field by field.

    field_accuracy[f] is the percentage of samples whose field f matched;
    error_histogram buckets samples by how many of their six fields were
    wrong.  Percentages are rounded to two decimals.
    """
    if len(predictions) != len(truths):
        raise DimensionError(
            f"prediction count {len(predictions)} does not match truth count {len(truths)}"
        )
    if not predictions:
        raise DimensionError("cannot score an empty prediction list")
    n = len(predictions)
    correct = {name: 0 for name in KEY_FIELDS}
    histogram = {bucket: 0 for bucket in _HISTOGRAM_BUCKETS}
    for pred, truth in zip(predictions, truths):
        wrong = 0
        for name in KEY_FIELDS:
            if getattr(pred, name) == getattr(truth, name):
                correct[name] += 1
            else:
                wrong += 1
        bucket = str(wrong) if wrong < 4 else "4+"
        histogram[bucket] += 1
    return FieldScoreReport(
        field_accuracy={k: round(100.0 * v / n, 2) for k, v in correct.items()},
        error_histogram={k: round(100.0 * v / n, 2) for k, v in histogram.items()},
        samples=n,
    )
