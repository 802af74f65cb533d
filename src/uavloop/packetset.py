"""Packet-log sessionization and preference-pair dataset construction.

A packet CSV is read one row at a time, and its first bad row raises a
ParseError naming the line.  The parsed capture is grouped into sessions
(bidirectional endpoint pairs, split on FIN/RST or idle gaps).  A window
slides over each session: n context packets, the prompt, and the packet that
actually followed it.  Every window yields a ``FinetuneSample``: the true
next packet as the chosen continuation and a single-field corruption of it
as the rejected one.  One generator, seeded once per build, draws every
pair's corruption in order.  Pairs render to a plain-text format with one
key:value line per field and parse back losslessly into the same type.

Sessions and windows are computed on the capture's nine columns: one stable
sort of the rows by flow and timestamp, then index arithmetic.
``build_samples_text`` goes from CSV text to the rendered dataset on those
columns and builds no sample; ``extract_sessions``, ``build_dataset`` and
``render_dataset`` use the same helpers and block format.
``build_samples_text`` parses, sessionizes and raises every error first, then
returns the text as an iterator of blocks of ``_PAIRS_PER_BLOCK`` pairs, which
``telemetry.write_text`` writes one at a time, so the dataset is never held
as one string.

``PacketRecord`` and ``FinetuneSample`` are immutable named tuples.  Each
one's ``__new__`` is its only range, flag and pairing check, so each distinct
packet is validated once, when its record is built.  Each packet is
written once per window it appears in, so a dataset repeats most blocks many
times.  ``render_dataset`` renders every block where it writes it;
within one call, ``parse_dataset`` converts each distinct block text once:
identical blocks return one shared ``PacketRecord``.  Text in
``render_dataset``'s exact layout is cut into documents and field columns
with string methods; any other text (other line breaks, extra or missing
blank lines, any fault) goes to a line reader, which alone reports errors
and their line numbers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, repeat
from operator import add, itemgetter, ne
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, DimensionError, ParseError, PipelineError, SizingError
from .telemetry import read_parsed

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

# Fields rendered into documents and eligible for corruption, in render order:
# a record's last six.
_KEY0 = 3
KEY_FIELDS = PACKET_COLUMNS[_KEY0:]

# Canonical flag letters; parsed and rendered in this order.
FLAG_ALPHABET = "FSRPAUEC"

SESSION_IDLE_TIMEOUT_S = 60.0

_CONTEXT_TAG = "#Context"
_PREVIOUS_TAG = "#Previous_Packet"
_PREDICTED_TAG = "#Predicted_Packet"
_BLOCK_TAG = "#BLOCK"
# A block of the six key values, in KEY_FIELDS order.
_BLOCK = "\n".join([_BLOCK_TAG, *(f"{name}:{{}}" for name in KEY_FIELDS)])


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


_TYPES = (float, str, str, int, int, str, int, int, int)
# namedtuple's _replace builds through _make, so a replaced record is checked too.
_checked_make = classmethod(lambda cls, values: cls(*values))


class PacketRecord(NamedTuple("_Packet", zip(PACKET_COLUMNS, _TYPES))):
    """One packet, immutable; flags are stored in canonical order."""

    __slots__ = ()

    def __new__(cls, timestamp, src, dst, sport, dport, flags, seq, ack, length):
        # The one check of every record: NaN and infinities fail the first test.
        if not (
            -math.inf < timestamp < math.inf
            and 0 <= sport < _U16
            and 0 <= dport < _U16
            and 0 <= seq < _U32
            and 0 <= ack < _U32
            and 0 <= length
        ):
            values = (timestamp, sport, dport, seq, ack, length)
            for name, value in zip(("timestamp", *_INT_LIMITS), values):
                fault = _field_fault(name, value)
                if fault is not None:
                    raise ParseError(fault)
        flags = canonical_flags(flags)
        return tuple.__new__(cls, (timestamp, src, dst, sport, dport, flags, seq, ack, length))

    _make = _checked_make

    def key_values(self) -> dict:
        return {name: getattr(self, name) for name in KEY_FIELDS}

    def endpoints(self) -> frozenset:
        return frozenset(((self.src, self.sport), (self.dst, self.dport)))


def parse_packet_csv(text: str) -> list[PacketRecord]:
    """Records of a packet CSV, read one row at a time.

    Blank and whitespace-only lines are skipped.  Each row's cells convert
    left to right into a PacketRecord; the first bad row raises a ParseError
    naming its line.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != PACKET_HEADER:
        raise ParseError(f"expected header {PACKET_HEADER!r}", line=1)
    records = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        cells = raw.split(",")
        if len(cells) != len(PACKET_COLUMNS):
            raise ParseError(
                f"expected {len(PACKET_COLUMNS)} fields, got {len(cells)}", line=lineno
            )
        ts, src, dst, sport, dport, flags, seq, ack, length = cells
        try:
            record = PacketRecord(
                float(ts), src, dst, int(sport), int(dport), flags, int(seq), int(ack), int(length)
            )
        except ParseError as exc:
            raise ParseError(str(exc), line=lineno) from exc
        except ValueError as exc:
            raise ParseError(f"bad packet row: {exc}", line=lineno) from exc
        records.append(record)
    return records


def load_packet_csv(path: str) -> list[PacketRecord]:
    return read_parsed(path, parse_packet_csv)


def _columns(packets: Sequence[PacketRecord]) -> list:
    """The nine columns of a capture, in PACKET_COLUMNS order."""
    return list(zip(*packets)) or [()] * len(PACKET_COLUMNS)


def _check_settings(idle_timeout_s: float, context: int = 1) -> None:
    if idle_timeout_s <= 0:
        raise ConfigError(f"idle_timeout_s must be positive, got {idle_timeout_s}")
    if context < 1:
        raise ConfigError(f"context must be positive, got {context}")


def _sessions(columns: list, idle_timeout_s: float) -> tuple[list, list]:
    """Rows in session order, and each session's (start, end) in that order.

    Flows are numbered by first appearance, and a stable sort by (flow,
    timestamp) keeps ties in capture order.  A session ends where the flow
    changes, after a packet carrying F or R, or before a longer idle gap.
    """
    ts, src, dst, sport, dport, flags = columns[:6]
    flows: dict = {}
    endpoints = map(frozenset, zip(zip(src, sport), zip(dst, dport)))
    flow = np.array([flows.setdefault(key, len(flows)) for key in endpoints], dtype=np.int64)
    order = np.lexsort((ts, flow))
    closes = np.array(["F" in f or "R" in f for f in flags], dtype=bool)[order]
    stamps = np.asarray(ts, dtype=np.float64)[order]
    cut = (np.diff(flow[order]) != 0) | closes[:-1] | (np.diff(stamps) > idle_timeout_s)
    # An empty capture has no edge but 0, so no session.
    edges = sorted({0, order.size, *(np.flatnonzero(cut) + 1).tolist()})
    return order.tolist(), list(zip(edges, edges[1:]))


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
    _check_settings(idle_timeout_s)
    order, sessions = _sessions(_columns(packets), idle_timeout_s)
    return [[packets[i] for i in order[start:end]] for start, end in sessions]


def _windows(columns: list, context: int, idle_timeout_s: float) -> tuple[list, list]:
    """Rows in session order, and the position in it of every window's prompt.

    The window with its prompt at p has context order[p - context : p] and next
    packet order[p + 1]; a session of m packets holds max(0, m - context - 1).
    """
    order, sessions = _sessions(columns, idle_timeout_s)
    return order, [p for start, end in sessions for p in range(start + context, end - 1)]


def _perturbed(fld: str, old, rng: np.random.Generator):
    """A new value for the key field fld, guaranteed to differ from old."""
    if fld == "length":
        new = old
        while new == old:
            new = int(rng.integers(0, 1501))
        return new
    if fld == "flags":
        # Toggle one letter, keeping the canonical order.
        letter = FLAG_ALPHABET[int(rng.integers(0, len(FLAG_ALPHABET)))]
        return canonical_flags(old.replace(letter, "") if letter in old else old + letter)
    span, modulus = (1000, _U16) if fld in ("sport", "dport") else (1000000, _U32)
    step = int(rng.integers(1, span + 1)) * (1 if rng.random() < 0.5 else -1)
    return (old + step) % modulus


def _corrupted(keys: Sequence, rng: np.random.Generator) -> list:
    """A pair's rejected key values: keys with one field, picked by rng, corrupted."""
    values = list(keys)
    k = int(rng.integers(0, len(KEY_FIELDS)))
    values[k] = _perturbed(KEY_FIELDS[k], keys[k], rng)
    return values


_Pair = NamedTuple("_Pair", [("context", tuple), ("prompt", PacketRecord),
                             ("chosen", PacketRecord), ("rejected", PacketRecord)])


class FinetuneSample(_Pair):
    """One preference pair: context packets, the prompt, and two continuations.

    chosen is the packet that followed the prompt; rejected differs from it
    in exactly one key field.
    """

    __slots__ = ()

    def __new__(cls, context, prompt, chosen, rejected):
        if len(context) < 1:
            raise ConfigError("context must hold at least one packet")
        differ = sum(map(ne, chosen[_KEY0:], rejected[_KEY0:]))
        if differ != 1:
            raise ConfigError(
                f"rejected packet must differ in exactly one field, differs in {differ}"
            )
        return tuple.__new__(cls, (context, prompt, chosen, rejected))

    _make = _checked_make


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
    rejected = PacketRecord(*next_packet[:_KEY0], *_corrupted(next_packet[_KEY0:], rng))
    return FinetuneSample(tuple(context), prompt, next_packet, rejected)


def _pair_text(context: list, prompt: str, chosen: str, rejected: str) -> str:
    """A pair, given as block texts: its chosen document, a blank line, its rejected one."""
    prefix = "\n".join([_CONTEXT_TAG, *context, _PREVIOUS_TAG, prompt, _PREDICTED_TAG, ""])
    return f"{prefix}{chosen}\n\n{prefix}{rejected}\n"


def render_dataset(samples: Sequence[FinetuneSample]) -> str:
    """Each sample as its chosen document, a blank line and its rejected one."""
    if not samples:
        raise ConfigError("cannot render an empty sample list")
    return "\n".join(
        _pair_text([_BLOCK.format(*p[_KEY0:]) for p in s.context],
                   *(_BLOCK.format(*p[_KEY0:]) for p in (s.prompt, s.chosen, s.rejected)))
        for s in samples
    )


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
    identical blocks share one record, as in the line reader; equal integer
    values share one int.  Field values must be plain ASCII digits or flag
    letters, so no other line break can hide in them and the line reader
    would see the same lines.
    """
    docs = text.split(_NEXT_DOCUMENT)
    start = f"{_CONTEXT_TAG}\n{_BLOCK_TAG}\n"
    if len(docs) % 2 or not (docs[0].startswith(start) and docs[-1].endswith("\n")):
        return None
    docs[0] = docs[0][len(start) :]
    docs[-1] = docs[-1][:-1]
    # The result is made before the intermediates, so the memory they free
    # stays in one piece for the caller's next large allocation.
    samples: list = [None] * (len(docs) // 2)
    # Each pair's context blocks in turn; sizes[k] is the context length of
    # pair k.  seen holds one string per distinct block text, which every
    # list shares.
    order: list[str] = []
    sizes: list[int] = []
    prompts: list[str] = []
    chosens: list[str] = []
    rejecteds: list[str] = []
    seen: dict[str, str] = {}
    block = seen.setdefault
    for chosen, rejected in zip(docs[::2], docs[1::2]):
        prefix, sep, predicted = chosen.rpartition(_PREDICTED_BLOCK)
        r_prefix, r_sep, r_predicted = rejected.rpartition(_PREDICTED_BLOCK)
        context, p_sep, prompt = prefix.rpartition(_PROMPT_BLOCK)
        if not (sep and r_sep and p_sep and r_prefix == prefix):
            return None
        context = context.split(_NEXT_BLOCK)
        order += map(block, context, context)
        sizes.append(len(context))
        prompts.append(block(prompt, prompt))
        chosens.append(block(predicted, predicted))
        rejecteds.append(block(r_predicted, r_predicted))
    del docs
    keys = list(seen)
    del seen, block
    if set(map(str.count, keys, repeat("\n"))) != {len(KEY_FIELDS) - 1}:
        return None
    # Each intermediate is dropped once the next exists: the documents, the
    # block lines once cut into field columns, each field's raw values once
    # converted.
    lines = "\n".join(keys).split("\n")
    fields = ["\n".join(lines[j :: len(KEY_FIELDS)]) for j in range(len(KEY_FIELDS))]
    del lines
    columns = []
    as_int = lru_cache(maxsize=None)(int)
    for name, column in zip(KEY_FIELDS, fields):
        head = f"{name}:"
        if not column.startswith(head) or column.count("\n" + head) != len(keys) - 1:
            return None
        raws = column[len(head) :].split("\n" + head)
        # PacketRecord rejects any flag letter outside FLAG_ALPHABET.
        if name != "flags":
            digits = "".join(raws)
            if not (digits.isascii() and digits.isdigit()):
                return None
            # An empty value passes the digit test, and int("") raises.
            try:
                raws = list(map(as_int, raws))
            except ValueError:
                return None
        columns.append(raws)
    try:
        records = map(PacketRecord, repeat(0.0), repeat(""), repeat(""), *columns)
        packet = dict(zip(keys, records)).__getitem__
        contexts = map(packet, order)
        samples[:] = map(
            FinetuneSample,
            [tuple(islice(contexts, n)) for n in sizes],
            map(packet, prompts),
            map(packet, chosens),
            map(packet, rejecteds),
        )
        return samples
    except PipelineError:
        return None


def _parse_block(lines: list[str], pos: int) -> tuple[PacketRecord, int]:
    """The record of the block at lines[pos], and the position after it.

    Each field is checked as it is read, so the first fault in line order raises.
    """
    if pos >= len(lines) or lines[pos] != _BLOCK_TAG:
        raise ParseError(f"expected {_BLOCK_TAG}", line=pos + 1)
    values = []
    for pos, name in enumerate(KEY_FIELDS, start=pos + 1):
        if pos >= len(lines):
            raise ParseError(f"truncated block, missing {name}", line=pos)
        key, sep, raw = lines[pos].partition(":")
        if not sep or key != name:
            raise ParseError(f"expected field {name!r}, got {lines[pos]!r}", line=pos + 1)
        try:
            value = raw if name == "flags" else int(raw)
        except ValueError as exc:
            raise ParseError(f"bad {name!r} field: {exc}", line=pos + 1) from exc
        fault = _field_fault(name, value)
        if fault is not None:
            raise ParseError(f"bad {name!r} field: {fault}", line=pos + 1)
        values.append(value)
    return PacketRecord(0.0, "", "", *values), pos + 1


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
    _check_settings(idle_timeout_s, context)
    order, prompts = _windows(_columns(packets), context, idle_timeout_s)
    rng = np.random.default_rng(seed)
    ranked = [packets[i] for i in order]
    return [make_pair(ranked[p - context : p], ranked[p], ranked[p + 1], rng) for p in prompts]


# Pairs per block of build_samples_text's output.
_PAIRS_PER_BLOCK = 512


def build_samples_text(
    text: str,
    context: int = 3,
    seed: int = 0,
    idle_timeout_s: float = SESSION_IDLE_TIMEOUT_S,
) -> Iterator[str]:
    """render_dataset(build_dataset(parse_packet_csv(text), ...)), run on columns, in blocks.

    The blocks, each of _PAIRS_PER_BLOCK pairs but the last, join to the
    same text, and the same errors are raised before this returns, but no
    sample and no rejected record is built.  A capture with no window raises
    SizingError.
    """
    _check_settings(idle_timeout_s, context)
    columns = _columns(parse_packet_csv(text))
    order, prompts = _windows(columns, context, idle_timeout_s)
    if not prompts:
        raise SizingError(f"no session holds more than context + 1 = {context + 1} packets")
    return _pair_blocks(columns[_KEY0:], order, prompts, context, seed)


def _pair_blocks(keys: list, order: list, prompts: list, context: int, seed: int):
    ranked = [_BLOCK.format(*[column[i] for column in keys]) for i in order]
    rng = np.random.default_rng(seed)
    sep = ""
    for start in range(0, len(prompts), _PAIRS_PER_BLOCK):
        pairs = []
        for p in prompts[start : start + _PAIRS_PER_BLOCK]:
            rejected = _BLOCK.format(*_corrupted([column[order[p + 1]] for column in keys], rng))
            pairs.append(_pair_text(ranked[p - context : p], ranked[p], ranked[p + 1], rejected))
        yield sep + "\n".join(pairs)
        sep = "\n"


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
    wrong = [0] * n
    accuracy = {}
    for j, name in enumerate(KEY_FIELDS, start=_KEY0):
        misses = list(map(ne, map(itemgetter(j), predictions), map(itemgetter(j), truths)))
        wrong = list(map(add, wrong, misses))
        accuracy[name] = round(100.0 * (n - sum(misses)) / n, 2)
    histogram = Counter(_HISTOGRAM_BUCKETS[min(w, 4)] for w in wrong)
    return FieldScoreReport(
        field_accuracy=accuracy,
        error_histogram={k: round(100.0 * histogram[k] / n, 2) for k in _HISTOGRAM_BUCKETS},
        samples=n,
    )
