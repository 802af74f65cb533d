"""Packet-log sessionization and preference-pair dataset construction.

A parsed capture is grouped into sessions (bidirectional endpoint pairs, split
on FIN/RST or idle gaps).  A window slides over each session: n context
packets, the prompt, and the packet that actually followed it.  Every window
yields a ``FinetuneSample``: the true next packet as the chosen continuation
and a single-field corruption of it as the rejected one.  One generator,
seeded once per build, draws every pair's corruption in order.  Pairs render
to a plain-text format with one key:value line per field and parse back
losslessly into the same type.

``PacketRecord``'s own constructor is the only range and flag check, so each
distinct packet is validated once, when its record is built.  Each packet is
written once per window it appears in, so a dataset repeats most blocks many
times.  Within one call, ``render_dataset`` renders each distinct packet's
block once, and ``parse_dataset`` converts each distinct block text once:
identical blocks return one shared frozen ``PacketRecord``.  Text in
``render_dataset``'s exact layout is cut into documents and field columns
with string methods; any other text (other line breaks, extra or missing
blank lines, any fault) goes to a line reader, which alone reports errors
and their line numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from operator import attrgetter, ne
from typing import NoReturn, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ParseError, PipelineError
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
_U16, _U32 = 2**16, 2**32
_INT_LIMITS = {"sport": _U16, "dport": _U16, "seq": _U32, "ack": _U32, "length": math.inf}


def _field_fault(name: str, value) -> str | None:
    """Why value is not valid for the PacketRecord field name, or None if it is."""
    if name == "timestamp":
        return None if math.isfinite(value) else f"timestamp must be finite: {value}"
    if name == "flags":
        try:
            canonical_flags(value)
        except ParseError as exc:
            return str(exc)
        return None
    return None if 0 <= value < _INT_LIMITS[name] else f"{name} out of range: {value}"


@dataclass(frozen=True, slots=True)
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
        # The one check of every record: NaN and infinities fail the first test.
        if not (
            -math.inf < self.timestamp < math.inf
            and 0 <= self.sport < _U16
            and 0 <= self.dport < _U16
            and 0 <= self.seq < _U32
            and 0 <= self.ack < _U32
            and 0 <= self.length
        ):
            for name in ("timestamp", *_INT_LIMITS):
                fault = _field_fault(name, getattr(self, name))
                if fault is not None:
                    raise ParseError(fault)
        object.__setattr__(self, "flags", canonical_flags(self.flags))

    def key_values(self) -> dict:
        return {name: getattr(self, name) for name in KEY_FIELDS}

    def endpoints(self) -> frozenset:
        return frozenset(((self.src, self.sport), (self.dst, self.dport)))


def parse_packet_csv(text: str) -> list[PacketRecord]:
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
    """Raise the error of the first bad row of a packet CSV parse_packet_csv rejected."""
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


_key_values = attrgetter(*KEY_FIELDS)


def perturb_field(packet: PacketRecord, fld: str, rng: np.random.Generator) -> PacketRecord:
    """Corrupt one field, guaranteed to differ from the original value."""
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
        present = set(old)
        present.symmetric_difference_update(letter)
        new = "".join(c for c in FLAG_ALPHABET if c in present)
    values = list(_key_values(packet))
    values[KEY_FIELDS.index(fld)] = new
    return PacketRecord(packet.timestamp, packet.src, packet.dst, *values)


@dataclass(frozen=True, slots=True)
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
        differ = sum(map(ne, _key_values(self.chosen), _key_values(self.rejected)))
        if differ != 1:
            raise ConfigError(
                f"rejected packet must differ in exactly one field, differs in {differ}"
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


def _render_block(p: PacketRecord) -> str:
    # KEY_FIELDS in order.
    return (
        f"{_BLOCK_TAG}\nsport:{p.sport}\ndport:{p.dport}\nflags:{p.flags}\n"
        f"seq:{p.seq}\nack:{p.ack}\nlength:{p.length}"
    )


def _render_sample(sample: FinetuneSample, blocks: dict) -> str:
    parts = [_CONTEXT_TAG, *[blocks[id(p)] for p in sample.context]]
    parts += (_PREVIOUS_TAG, blocks[id(sample.prompt)], _PREDICTED_TAG, "")
    prefix = "\n".join(parts)
    rejected = _render_block(sample.rejected)
    return f"{prefix}{blocks[id(sample.chosen)]}\n\n{prefix}{rejected}\n"


def render_dataset(samples: Sequence[FinetuneSample]) -> str:
    """Each sample as its chosen document, a blank line and its rejected one.

    Every distinct packet object is rendered once; a rejected packet is a
    fresh corruption, so its block is rendered where it is written.
    """
    if not samples:
        raise ConfigError("cannot render an empty sample list")
    # packets holds every packet until the call returns, so no id is reused.
    packets = {id(p): p for s in samples for p in (*s.context, s.prompt, s.chosen)}
    blocks = {key: _render_block(p) for key, p in packets.items()}
    return "\n".join(_render_sample(s, blocks) for s in samples)


def parse_dataset(text: str) -> list[FinetuneSample]:
    """Inverse of render_dataset; validates pairing and the one-field rule.

    Text exactly as render_dataset writes it is read by _parse_rendered; any
    other text (other line breaks, extra blank lines, any fault) goes to the
    line reader, _parse_lines, which alone reports errors.
    """
    samples = _parse_rendered(text)
    return _parse_lines(text) if samples is None else samples


# Separators of render_dataset's layout, each ending with the next block's tag.
_NEXT_DOCUMENT = f"\n\n{_CONTEXT_TAG}\n{_BLOCK_TAG}\n"
_NEXT_BLOCK = f"\n{_BLOCK_TAG}\n"
_PROMPT_BLOCK = f"\n{_PREVIOUS_TAG}\n{_BLOCK_TAG}\n"
_PREDICTED_BLOCK = f"\n{_PREDICTED_TAG}\n{_BLOCK_TAG}\n"


def _parse_rendered(text: str) -> list[FinetuneSample] | None:
    """parse_dataset of text in render_dataset's exact layout, else None.

    Documents are cut out with str.split, and each block is keyed by its six
    field lines.  A rejected document must repeat the text of its chosen
    document up to the predicted block, and shares its context and prompt.  Each
    distinct block text is converted once, a field column at a time, and
    identical blocks share one record, as in the line reader.  Field values
    must be plain ASCII digits or flag letters, so no other line break can
    hide in them and the line reader would see the same lines.
    """
    docs = text.split(_NEXT_DOCUMENT)
    start = f"{_CONTEXT_TAG}\n{_BLOCK_TAG}\n"
    if len(docs) % 2 or not (docs[0].startswith(start) and docs[-1].endswith("\n")):
        return None
    docs[0] = docs[0][len(start) :]
    docs[-1] = docs[-1][:-1]
    # Every block's key: each pair's context in turn, then all prompts, chosen and
    # rejected blocks; sizes[k] is the context length of pair k.
    order: list[str] = []
    sizes: list[int] = []
    prompts: list[str] = []
    chosens: list[str] = []
    rejecteds: list[str] = []
    for chosen, rejected in zip(docs[::2], docs[1::2]):
        prefix, sep, predicted = chosen.rpartition(_PREDICTED_BLOCK)
        r_prefix, r_sep, r_predicted = rejected.rpartition(_PREDICTED_BLOCK)
        context, p_sep, prompt = prefix.rpartition(_PROMPT_BLOCK)
        if not (sep and r_sep and p_sep and r_prefix == prefix):
            return None
        context = context.split(_NEXT_BLOCK)
        order += context
        sizes.append(len(context))
        prompts.append(prompt)
        chosens.append(predicted)
        rejecteds.append(r_predicted)
    order += prompts
    order += chosens
    order += rejecteds
    keys = list(dict.fromkeys(order))
    if set(map(str.count, keys, repeat("\n"))) != {len(KEY_FIELDS) - 1}:
        return None
    lines = "\n".join(keys).split("\n")
    columns = []
    for j, name in enumerate(KEY_FIELDS):
        head = f"{name}:"
        column = "\n".join(lines[j :: len(KEY_FIELDS)])
        if not column.startswith(head) or column.count("\n" + head) != len(keys) - 1:
            return None
        raws = column[len(head) :].split("\n" + head)
        if name == "flags":
            # PacketRecord rejects any letter outside FLAG_ALPHABET.
            columns.append(raws)
            continue
        digits = "".join(raws)
        if not (digits.isascii() and digits.isdigit()):
            return None
        columns.append(map(int, raws))
    try:
        records = map(PacketRecord, repeat(0.0), repeat(""), repeat(""), *columns)
        packet = dict(zip(keys, records)).__getitem__
        contexts = map(packet, order)
        return list(
            map(
                FinetuneSample,
                [tuple(islice(contexts, n)) for n in sizes],
                map(packet, prompts),
                map(packet, chosens),
                map(packet, rejecteds),
            )
        )
    except (ValueError, PipelineError):
        return None


def _parse_block(lines: list[str], pos: int) -> tuple[PacketRecord, int]:
    """The record of the block at lines[pos], and the position after it.

    The first fault in line order raises: a field value PacketRecord rejects
    is reported at its own line, before a fault on any later line.
    """
    if pos >= len(lines) or lines[pos] != _BLOCK_TAG:
        raise ParseError(f"expected {_BLOCK_TAG}", line=pos + 1)
    start = pos + 1
    values: dict = {}
    try:
        for pos, name in enumerate(KEY_FIELDS, start=start):
            if pos >= len(lines):
                raise ParseError(f"truncated block, missing {name}", line=pos)
            key, sep, raw = lines[pos].partition(":")
            if not sep or key != name:
                raise ParseError(f"expected field {name!r}, got {lines[pos]!r}", line=pos + 1)
            try:
                values[name] = raw if name == "flags" else int(raw)
            except ValueError as exc:
                raise ParseError(f"bad {name!r} field: {exc}", line=pos + 1) from exc
        return PacketRecord(timestamp=0.0, src="", dst="", **values), pos + 1
    except ParseError:
        for line, (name, value) in enumerate(values.items(), start=start + 1):
            fault = _field_fault(name, value)
            if fault is not None:
                raise ParseError(f"bad {name!r} field: {fault}", line=line) from None
        raise


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
    packet, end = _parse_block(lines, pos)
    packets[key] = packet
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


def _parse_lines(text: str) -> list[FinetuneSample]:
    """parse_dataset one line at a time, as str.splitlines splits them.

    Whitespace-only lines between documents are skipped.  The first fault
    raises a ParseError naming its line.
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
