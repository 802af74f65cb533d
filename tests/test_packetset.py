import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    reference_build_dataset,
    reference_build_text,
    reference_make_pair,
    reference_parse_dataset,
    reference_parse_packet_csv,
    reference_score_fields,
    reference_sessions,
)
from uavloop import packetset
from uavloop.errors import ConfigError, DimensionError, ParseError, SizingError
from uavloop.packetset import (
    FLAG_ALPHABET,
    KEY_FIELDS,
    PACKET_COLUMNS,
    PACKET_HEADER,
    FinetuneSample,
    PacketRecord,
    build_dataset,
    build_samples_text,
    canonical_flags,
    diff_fields,
    extract_sessions,
    make_pair,
    parse_dataset,
    parse_packet_csv,
    render_dataset,
    score_fields,
)
from uavloop.synthetic import synth_packet_log


def pkt(ts=1.0, src="10.0.0.1", dst="10.0.0.2", sport=8080, dport=443,
        flags="A", seq=1000, ack=2000, length=64, **kw):
    return PacketRecord(
        timestamp=ts, src=src, dst=dst, sport=sport, dport=dport,
        flags=flags, seq=seq, ack=ack, length=length, **kw
    )


def render_pair(context, prompt, chosen, rejected):
    """The chosen and rejected documents of one sample, as render_dataset writes them."""
    sample = FinetuneSample(tuple(context), prompt, chosen, rejected)
    return render_dataset([sample]).rstrip("\n").split("\n\n")


def chain(n, start=0.0, gap=1.0, **kw):
    """n ACK packets of one conversation, seq/ack advancing."""
    return [
        pkt(ts=start + i * gap, seq=1000 + 64 * i, ack=2000 + 64 * i, **kw)
        for i in range(n)
    ]


class TestFlags:
    def test_canonical_ordering(self):
        assert canonical_flags("AP") == "PA"
        assert canonical_flags("PA") == "PA"
        assert canonical_flags("ASF") == "FSA"
        assert canonical_flags("") == ""

    def test_deduplication(self):
        assert canonical_flags("AAA") == "A"

    def test_unknown_letter(self):
        with pytest.raises(ParseError):
            canonical_flags("AX")


class TestPacketRecord:
    def test_field_validation(self):
        with pytest.raises(ParseError):
            pkt(sport=70000)
        with pytest.raises(ParseError):
            pkt(dport=-1)
        with pytest.raises(ParseError):
            pkt(seq=2**32)
        with pytest.raises(ParseError):
            pkt(ack=-5)
        with pytest.raises(ParseError):
            pkt(length=-1)

    def test_flags_canonicalized_on_construction(self):
        assert pkt(flags="AP").flags == "PA"

    def test_key_values(self):
        assert pkt().key_values() == {
            "sport": 8080, "dport": 443, "flags": "A",
            "seq": 1000, "ack": 2000, "length": 64,
        }

    def test_endpoints_are_direction_free(self):
        fwd = pkt()
        rev = pkt(src="10.0.0.2", dst="10.0.0.1", sport=443, dport=8080)
        assert fwd.endpoints() == rev.endpoints()


class TestParsing:
    def test_round_trip_row(self):
        text = PACKET_HEADER + "\n1.5,10.0.0.1,10.0.0.2,8080,443,PA,1000,2000,64\n"
        (rec,) = parse_packet_csv(text)
        assert rec == pkt(ts=1.5, flags="PA")
        assert rec.timestamp == 1.5

    def test_blank_lines_skipped(self):
        text = PACKET_HEADER + "\n\n1.0,a,b,1,2,A,3,4,5\n\n"
        assert len(parse_packet_csv(text)) == 1

    def test_header_required(self):
        with pytest.raises(ParseError) as err:
            parse_packet_csv("nope\n")
        assert "line 1" in str(err.value)

    def test_field_count_checked(self):
        text = PACKET_HEADER + "\n1.0,a,b,1,2,A,3,4\n"
        with pytest.raises(ParseError) as err:
            parse_packet_csv(text)
        assert "line 2" in str(err.value)

    def test_bad_integer_reports_line(self):
        text = PACKET_HEADER + "\n1.0,a,b,1,2,A,3,4,5\n2.0,a,b,x,2,A,3,4,5\n"
        with pytest.raises(ParseError) as err:
            parse_packet_csv(text)
        assert "line 3" in str(err.value)

    def test_range_error_keeps_message_and_line(self):
        text = PACKET_HEADER + "\n1.0,a,b,70000,2,A,3,4,5\n"
        with pytest.raises(ParseError) as err:
            parse_packet_csv(text)
        assert "line 2" in str(err.value)
        assert "sport out of range: 70000" in str(err.value)

    def test_non_finite_timestamp_reports_line(self):
        for token in ("nan", "inf", "-inf"):
            text = PACKET_HEADER + f"\n1.0,a,b,1,2,A,3,4,5\n{token},a,b,1,2,A,3,4,5\n"
            with pytest.raises(ParseError) as err:
                parse_packet_csv(text)
            assert err.value.line == 3
            assert "timestamp must be finite" in str(err.value)

    def test_synthetic_log_parses(self):
        packets = parse_packet_csv(synth_packet_log(n_packets=50, seed=1))
        assert len(packets) == 50

    def test_whitespace_only_lines_skipped(self):
        text = PACKET_HEADER + "\n \n1.0,a,b,1,2,A,3,4,5\n\t\n2.0,a,b,1,2,A,3,4,6\n  "
        assert [p.length for p in parse_packet_csv(text)] == [5, 6]

    def test_no_rows(self):
        assert parse_packet_csv(PACKET_HEADER + "\n\n \n") == []

    @pytest.mark.parametrize("rows, line, message", [
        (["1.0,a,b,1,2,A,3,4"], 3, "expected 9 fields, got 8"),
        (["1.0,a,b,1,2,A,3,4,5,6"], 3, "expected 9 fields, got 10"),
        (["1.0,a,b,1,x,A,3,4,5"], 3,
         "bad packet row: invalid literal for int() with base 10: 'x'"),
        (["t,a,b,1,2,A,3,4,5"], 3, "bad packet row: could not convert string to float: 't'"),
        (["1.0,a,b,1,65536,A,3,4,5"], 3, "dport out of range: 65536"),
        (["1.0,a,b,1,2,A,3,-4,5"], 3, "ack out of range: -4"),
        (["inf,a,b,1,2,A,3,4,5"], 3, "timestamp must be finite: inf"),
        (["1.0,a,b,1,2,AX,3,4,5"], 3, "unknown TCP flag letters: X"),
        # The first bad row is reported, whatever the later rows hold.
        (["1.0,a,b,70000,2,A,3,4,5", "1.0,a,b,1,2,A,3,4"], 3, "sport out of range: 70000"),
        (["1.0,a,b,1,2,A,3,4", "1.0,a,b,x,2,A,3,4,5"], 3, "expected 9 fields, got 8"),
        (["", "1.0,a,b,1,2,A,3,4,5", "nan,a,b,1,2,A,3,4,5", "1.0,a,b,x,2,A,3,4,5"], 5,
         "timestamp must be finite: nan"),
        # Within a row, cells convert left to right before the record is checked.
        (["1.0,a,b,70000,2,A,3,4,y"], 3,
         "bad packet row: invalid literal for int() with base 10: 'y'"),
    ])
    def test_first_bad_row_reported(self, rows, line, message):
        text = "\n".join([PACKET_HEADER, "0.5,a,b,1,2,A,3,4,5", *rows]) + "\n"
        with pytest.raises(ParseError) as err:
            parse_packet_csv(text)
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"


class TestSessions:
    def test_bidirectional_grouping(self):
        a = pkt(ts=0.0)
        b = pkt(ts=1.0, src="10.0.0.2", dst="10.0.0.1", sport=443, dport=8080)
        (sess,) = extract_sessions([a, b])
        assert [p.timestamp for p in sess] == [0.0, 1.0]

    def test_fin_and_rst_close_sessions(self):
        packets = chain(4)
        packets[1] = pkt(ts=1.0, flags="FA", seq=packets[1].seq, ack=packets[1].ack)
        by_fin = extract_sessions(packets)
        assert [len(s) for s in by_fin] == [2, 2]
        packets[1] = pkt(ts=1.0, flags="R", seq=packets[1].seq, ack=packets[1].ack)
        by_rst = extract_sessions(packets)
        assert [len(s) for s in by_rst] == [2, 2]

    def test_idle_gap_strictly_greater_splits(self):
        at_limit = [pkt(ts=0.0), pkt(ts=60.0, seq=1064)]
        assert [len(s) for s in extract_sessions(at_limit)] == [2]
        past_limit = [pkt(ts=0.0), pkt(ts=60.001, seq=1064)]
        assert [len(s) for s in extract_sessions(past_limit)] == [1, 1]
        custom = extract_sessions([pkt(ts=0.0), pkt(ts=5.0, seq=1064)], idle_timeout_s=2.0)
        assert [len(s) for s in custom] == [1, 1]

    def test_sessions_hold_the_given_records(self):
        packets = chain(3) + chain(2, src="10.0.0.9", sport=5000)
        sessions = extract_sessions(packets)
        assert sessions == [packets[:3], packets[3:]]
        assert all(a is b for a, b in zip(sessions[0] + sessions[1], packets))

    def test_packets_sorted_by_timestamp_within_flow(self):
        packets = [pkt(ts=2.0, seq=1064), pkt(ts=1.0)]
        (sess,) = extract_sessions(packets)
        assert [p.timestamp for p in sess] == [1.0, 2.0]

    def test_timeout_validation(self):
        with pytest.raises(ConfigError):
            extract_sessions([pkt()], idle_timeout_s=0.0)


class TestWindows:
    def test_count_per_session(self):
        packets = chain(6)
        assert len(build_dataset(packets, context=3)) == 2
        assert len(build_dataset(packets, context=4)) == 1
        assert len(build_dataset(packets, context=5)) == 0

    def test_window_contents(self):
        sess = chain(5)
        (s,) = build_dataset(sess, context=3)
        assert s.context == tuple(sess[0:3])
        assert s.prompt == sess[3]
        assert s.chosen == sess[4]

    def test_count_formula_over_mixed_sessions(self):
        lengths = (1, 2, 3, 4, 7, 10)
        # One conversation per session: each has its own source port.
        packets = [p for k, m in enumerate(lengths) for p in chain(m, sport=5000 + k)]
        assert len(extract_sessions(packets)) == len(lengths)
        for c in range(1, 5):
            want = sum(max(0, m - c - 1) for m in lengths)
            assert len(build_dataset(packets, context=c)) == want

    def test_context_validation(self):
        with pytest.raises(ConfigError):
            build_dataset(chain(5), context=0)
        with pytest.raises(ConfigError):
            FinetuneSample(context=(), prompt=pkt(), chosen=pkt(), rejected=pkt(length=70))

    def test_settings_checked_before_any_work(self):
        # None is no packet and the text no packet CSV: a check after any
        # sessionizing or parsing would fail on them instead.
        timeout = "idle_timeout_s must be positive, got 0.0"
        for build, capture in ((build_dataset, [None]), (build_samples_text, "no csv")):
            with pytest.raises(ConfigError, match="^context must be positive, got 0$"):
                build(capture, context=0)
            # The timeout is checked first.
            with pytest.raises(ConfigError, match=f"^{timeout}$"):
                build(capture, context=0, idle_timeout_s=0.0)
        with pytest.raises(ConfigError, match=f"^{timeout}$"):
            extract_sessions([None], idle_timeout_s=0.0)


class TestPerturbation:
    """make_pair's corruption of the next packet, its one corruption path."""

    @staticmethod
    def rejected(base, rng):
        return make_pair((base,), base, base, rng).rejected

    def test_sport_offset_frozen(self):
        out = self.rejected(pkt(), np.random.default_rng(11))
        assert diff_fields(pkt(), out) == ("sport",)
        assert out.sport == 8080 + 129

    def test_seq_offset_frozen(self):
        out = self.rejected(pkt(), np.random.default_rng(12))
        assert diff_fields(pkt(), out) == ("seq",)
        assert out.seq == (1000 - 250825) % 2**32

    def test_flags_single_letter_toggle_frozen(self):
        out = self.rejected(pkt(flags="PA"), np.random.default_rng(1))
        assert diff_fields(pkt(flags="PA"), out) == ("flags",)
        assert out.flags == "P"

    def test_changes_exactly_one_field_and_stays_valid(self):
        rng = np.random.default_rng(7)
        base = pkt(flags="PA")
        seen = set()
        for _ in range(300):
            out = self.rejected(base, rng)
            (fld,) = diff_fields(base, out)
            seen.add(fld)
            assert 0 <= out.sport <= 65535 and 0 <= out.dport <= 65535
            assert 0 <= out.seq < 2**32 and 0 <= out.ack < 2**32
            assert 0 <= out.length <= 1500
            assert out.flags == canonical_flags(out.flags)
            assert out.timestamp == base.timestamp
            assert out.src == base.src and out.dst == base.dst
        assert seen == set(KEY_FIELDS)

    def test_flag_toggle_differs_by_one_letter(self):
        rng = np.random.default_rng(11)
        base = pkt(flags="SA")
        toggles = [out for out in (self.rejected(base, rng) for _ in range(600))
                   if diff_fields(base, out) == ("flags",)]
        assert len(toggles) >= 50
        for out in toggles:
            assert len(set(base.flags) ^ set(out.flags)) == 1


class TestPairs:
    @staticmethod
    def one_window():
        """(context, prompt, next packet) of the one window over a 5-packet session."""
        (sess,) = extract_sessions(chain(5))
        return tuple(sess[:3]), sess[3], sess[4]

    @staticmethod
    def pair(seed):
        return make_pair(*TestPairs.one_window(), np.random.default_rng(seed))

    def test_make_pair_field_choice_frozen(self):
        assert diff_fields(self.pair(0).chosen, self.pair(0).rejected) == ("length",)
        assert diff_fields(self.pair(1).chosen, self.pair(1).rejected) == ("flags",)

    def test_make_pair_reproducible(self):
        assert self.pair(5) == self.pair(5)

    def test_chosen_is_true_next(self):
        context, prompt, next_packet = self.one_window()
        s = self.pair(3)
        assert (s.context, s.prompt, s.chosen) == (context, prompt, next_packet)

    def test_sample_validation(self):
        context, prompt, next_packet = self.one_window()
        one_off = next_packet._replace(length=next_packet.length + 1)
        with pytest.raises(ConfigError):
            FinetuneSample(context=(), prompt=prompt, chosen=next_packet, rejected=one_off)
        with pytest.raises(ConfigError):
            FinetuneSample(context, prompt, chosen=next_packet, rejected=next_packet)
        two_off = one_off._replace(sport=one_off.sport + 1)
        with pytest.raises(ConfigError):
            FinetuneSample(context, prompt, chosen=next_packet, rejected=two_off)

    def test_build_dataset_varies_field_per_window(self):
        packets = parse_packet_csv(synth_packet_log(n_packets=300, seed=2))
        samples = build_dataset(packets, context=2, seed=0)
        assert len(samples) > 20
        fields = {diff_fields(s.chosen, s.rejected)[0] for s in samples}
        assert len(fields) >= 4

    def test_seeds_are_not_one_shifted_stream(self):
        log = parse_packet_csv(synth_packet_log(n_packets=2000, seed=0))
        a, b = (
            [diff_fields(s.chosen, s.rejected)[0] for s in build_dataset(log, seed=seed)]
            for seed in (0, 1)
        )
        assert len(a) == len(b) > 1000
        assert a[1:] != b[:-1]


class TestRendering:
    def test_document_layout_frozen(self):
        doc, _ = render_pair([pkt()], pkt(seq=1064), pkt(seq=1128), pkt(seq=1128, length=70))
        assert doc == (
            "#Context\n"
            "#BLOCK\nsport:8080\ndport:443\nflags:A\nseq:1000\nack:2000\nlength:64\n"
            "#Previous_Packet\n"
            "#BLOCK\nsport:8080\ndport:443\nflags:A\nseq:1064\nack:2000\nlength:64\n"
            "#Predicted_Packet\n"
            "#BLOCK\nsport:8080\ndport:443\nflags:A\nseq:1128\nack:2000\nlength:64"
        )

    def test_sample_is_two_documents(self):
        text = render_dataset([TestPairs.pair(0)])
        assert text.count("#Context") == 2
        assert text.endswith("\n")
        chosen_doc, rejected_doc = text.rstrip("\n").split("\n\n")
        assert chosen_doc.startswith("#Context")
        assert rejected_doc.startswith("#Context")

    def test_empty_dataset_rejected(self):
        with pytest.raises(ConfigError):
            render_dataset([])

    def test_dataset_is_joined_samples(self):
        samples = TestParseDataset.small_dataset()
        assert render_dataset(samples) == "\n".join(render_dataset([s]) for s in samples)


class TestParseDataset:
    @staticmethod
    def small_dataset():
        packets = parse_packet_csv(synth_packet_log(n_packets=120, seed=4))
        return build_dataset(packets, context=3, seed=0)

    def test_round_trip(self):
        samples = self.small_dataset()
        parsed = parse_dataset(render_dataset(samples))
        assert len(parsed) == len(samples)
        for s, p in zip(samples, parsed):
            assert p.chosen.key_values() == s.chosen.key_values()
            assert p.rejected.key_values() == s.rejected.key_values()
            assert p.prompt.key_values() == s.prompt.key_values()
            assert [c.key_values() for c in p.context] == [
                c.key_values() for c in s.context
            ]

    def test_odd_document_count_rejected(self):
        samples = self.small_dataset()
        chosen, _ = render_pair([pkt()], pkt(seq=1064), pkt(seq=1128), pkt(seq=1128, length=70))
        text = render_dataset(samples) + "\n" + chosen + "\n"
        with pytest.raises(ParseError) as err:
            parse_dataset(text)
        assert "even" in str(err.value)

    def test_mismatched_prompt_rejected(self):
        chosen, _ = render_pair([pkt()], pkt(seq=1064), pkt(seq=1128), pkt(seq=1128, length=70))
        _, rejected = render_pair([pkt()], pkt(seq=9999), pkt(seq=1128), pkt(seq=1128, length=70))
        with pytest.raises(ParseError) as err:
            parse_dataset(chosen + "\n\n" + rejected + "\n")
        assert "mismatched" in str(err.value)

    def test_multi_field_diff_rejected(self):
        chosen, _ = render_pair([pkt()], pkt(seq=1064), pkt(seq=1128), pkt(seq=1128, length=70))
        _, rejected = render_pair([pkt()], pkt(seq=1064), pkt(seq=1129), pkt(seq=1129, length=70))
        with pytest.raises(ParseError) as err:
            parse_dataset(chosen + "\n\n" + rejected + "\n")
        assert "fields" in str(err.value)

    def test_bad_tag_rejected(self):
        with pytest.raises(ParseError):
            parse_dataset("#Context\n#BLOCK\nsport:1\nwrong:2\n")

    def test_repeated_block_is_one_record(self):
        samples = self.small_dataset()
        parsed = parse_dataset(render_dataset(samples))
        shared = 0
        for k in range(len(samples) - 1):
            # Within a session, the next window's prompt is this window's chosen packet.
            if samples[k + 1].prompt != samples[k].chosen:
                continue
            # The next window slides by one packet: its context starts one later.
            assert parsed[k + 1].context[:-1] == parsed[k].context[1:]
            assert parsed[k + 1].context[-1] == parsed[k].prompt
            assert parsed[k + 1].prompt == parsed[k].chosen
            assert parsed[k + 1].prompt is parsed[k].chosen
            shared += 1
        assert shared > 20
        first = parsed[0].context[0]
        assert first == PacketRecord(timestamp=0.0, src="", dst="",
                                     **samples[0].context[0].key_values())

    def test_corrupted_repeat_reports_its_line(self):
        lines = render_dataset(self.small_dataset()).split("\n")
        block = lines[1:8]
        assert block[0] == "#BLOCK" and block[2].startswith("dport:")
        repeat = next(j for j in range(8, len(lines)) if lines[j : j + 7] == block)
        lines[repeat + 2] = lines[repeat + 2].replace("dport:", "dprt:")
        with pytest.raises(ParseError) as err:
            parse_dataset("\n".join(lines))
        assert err.value.line == repeat + 3
        assert "expected field 'dport'" in str(err.value)

    def test_bad_field_value_reports_its_line(self):
        lines = render_dataset(self.small_dataset()).split("\n")
        assert lines[2].startswith("sport:") and lines[4].startswith("flags:")
        for index, bad in ((2, "sport:abc"), (2, "sport:70000"), (4, "flags:Z")):
            mutated = lines.copy()
            mutated[index] = bad
            with pytest.raises(ParseError) as err:
                parse_dataset("\n".join(mutated))
            assert err.value.line == index + 1


def outcome(parse, text):
    """The samples parse returns with how their packets are shared, or its ParseError.

    Sharing is each packet object's first position among all packets.
    """
    try:
        samples = parse(text)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    packets = [p for s in samples for p in (*s.context, s.prompt, s.chosen, s.rejected)]
    first: dict = {}
    return samples, [first.setdefault(id(p), k) for k, p in enumerate(packets)]


def rendered(n_packets, context, seed, n_flows=8):
    packets = parse_packet_csv(synth_packet_log(n_packets=n_packets, seed=seed, n_flows=n_flows))
    return render_dataset(build_dataset(packets, context=context, seed=seed))


LAYOUTS = {
    "lf": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "whitespace-separators": lambda text: text.replace("\n\n", "\n \n\t\n"),
    "no-separator": lambda text: text.replace("\n\n", "\n"),
    "no-final-newline": lambda text: text.rstrip("\n"),
}


class TestParseMatchesReference:
    """parse_dataset against the line reader it replaced (tests/support.py)."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("seed, context", [(0, 1), (1, 3), (2, 5), (3, 2)])
    def test_same_samples_and_sharing(self, seed, context, layout):
        text = LAYOUTS[layout](rendered(150, context, seed))
        got = outcome(parse_dataset, text)
        assert got == outcome(reference_parse_dataset, text)
        samples, _ = got
        assert len(samples) > 50
        # A repeated block is one record: a window's chosen packet is the next one's prompt.
        assert any(a.chosen is b.prompt for a, b in zip(samples, samples[1:]))
        # Only render_dataset's own layout is read without the line reader.
        assert (packetset._parse_rendered(text) is not None) == (layout == "lf")

    @pytest.mark.parametrize("old, new", [
        ("\nseq:", "\nseq:+"),
        ("\nsport:", "\nsport: "),
        ("\nlength:", "\nlength:\u0661"),
        ("\nack:", "\nack:\r"),
        ("\nack:", "\nack:\x85"),
        ("\nflags:", "\nflags:\x1c"),
        ("\ndport:", "\ndport:-"),
    ])
    def test_odd_values_same_outcome(self, old, new):
        text = rendered(150, 2, 1).replace(old, new)
        assert outcome(parse_dataset, text) == outcome(reference_parse_dataset, text)

    @pytest.mark.parametrize("faults", [
        {"sport": "sport:70000", "dport": "dport:abc"},
        {"flags": "flags:Z", "seq": "seq:4294967296"},
        {"dport": "dport:65536", "flags": "flags:"},
        {"ack": "ack:4294967296", "length": "lengthh:1"},
    ])
    def test_first_of_two_faults_in_a_block(self, faults):
        # The first block's field lines are lines 3 to 8.
        lines = rendered(150, 2, 1).split("\n")
        for name, bad in faults.items():
            lines[2 + KEY_FIELDS.index(name)] = bad
        text = "\n".join(lines)
        got = outcome(parse_dataset, text)
        assert got == outcome(reference_parse_dataset, text)
        first = next(iter(faults))
        assert got[1].startswith(f"line {3 + KEY_FIELDS.index(first)}: bad {first!r} field")

    def test_line_moved_between_blocks(self):
        # The next block's first line moves into the first block, in both
        # documents of the first pair: one block of seven lines, one of five.
        lines = rendered(150, 3, 1).split("\n")
        assert lines[8] == "#BLOCK" and lines[9].startswith("sport:")
        before = "\n".join(lines[1:10])
        after = "\n".join([*lines[1:8], lines[9], lines[8]])
        text = "\n".join(lines).replace(before, after, 2)
        with pytest.raises(ParseError) as err:
            parse_dataset(text)
        assert err.value.line == 9
        assert outcome(parse_dataset, text) == outcome(reference_parse_dataset, text)

    def test_renamed_key_in_both_documents(self):
        # The first field line of both documents of the first pair.
        head = "#Context\n#BLOCK\n"
        text = rendered(150, 2, 1).replace(head + "sport:", head + "sprt:", 2)
        with pytest.raises(ParseError) as err:
            parse_dataset(text)
        assert err.value.line == 3
        assert outcome(parse_dataset, text) == outcome(reference_parse_dataset, text)

    def test_last_value_without_newline(self):
        sample = FinetuneSample((pkt(),), pkt(seq=1064), pkt(seq=1128), pkt(seq=1128, length=700))
        text = render_dataset([sample]).rstrip("\n")
        assert text.endswith("\nlength:700")
        (parsed,) = parse_dataset(text)
        assert parsed.rejected.length == 700
        assert outcome(parse_dataset, text) == outcome(reference_parse_dataset, text)

    def test_empty_and_blank_text(self):
        for text in ("", "\n", " \n\t\n"):
            assert parse_dataset(text) == [] == reference_parse_dataset(text)


SMALL = rendered(6, 1, 5, n_flows=1).split("\n")
BAD_VALUES = st.one_of(
    st.sampled_from([
        "", "-1", "abc", "70000", "65536", "4294967296", "1.5", " 7", "7 ", "+7", "0x1",
        "1_0", "\u0661", "7\r", "7\x85", "Z", "AX", "PA", "AP", "AAP", "#BLOCK",
    ]),
    st.text(max_size=4),
)


@st.composite
def mutated_datasets(draw):
    """SMALL with one line deleted, duplicated, swapped, re-keyed or given a bad value."""
    lines = SMALL.copy()
    i = draw(st.integers(0, len(lines) - 2))
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "rename", "value"]))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    else:
        key, _, value = lines[i].partition(":")
        if kind == "rename":
            key = draw(st.sampled_from([*KEY_FIELDS, "sprt", "#BLOCK", "#Context", ""]))
        else:
            value = draw(BAD_VALUES)
        lines[i] = f"{key}:{value}"
    return "\n".join(lines)


class TestMutatedDataset:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=mutated_datasets())
    def test_same_samples_or_same_error(self, text):
        assert outcome(parse_dataset, text) == outcome(reference_parse_dataset, text)


def csv_outcome(parse, text):
    """The records parse returns, or its ParseError's message and line."""
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc), exc.line


LOG = synth_packet_log(n_packets=8, seed=3, n_flows=2).split("\n")
BAD_CELLS = st.one_of(
    st.sampled_from([
        "", " ", "-1", "abc", "70000", "65536", "4294967296", "1.5", " 7", "7 ", "+7", "0x1",
        "1_0", "\u0661", "7\r", "nan", "inf", "-inf", "1e3", "Z", "AX", "PA", "AAP", "1,2",
    ]),
    st.text(max_size=4),
)


@st.composite
def mutated_logs(draw):
    """LOG with one line deleted, duplicated, swapped, blanked, or one cell replaced."""
    lines = LOG.copy()
    i = draw(st.integers(0, len(lines) - 2))
    kind = draw(st.sampled_from(["delete", "duplicate", "swap", "blank", "cell"]))
    if kind == "delete":
        del lines[i]
    elif kind == "duplicate":
        lines.insert(i, lines[i])
    elif kind == "swap":
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
    elif kind == "blank":
        lines.insert(i, draw(st.sampled_from(["", " ", "\t", "\r"])))
    else:
        cells = lines[i].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(BAD_CELLS)
        lines[i] = ",".join(cells)
    return "\n".join(lines)


class TestMutatedPacketCsv:
    """parse_packet_csv against the column-wise reader it replaced."""

    def test_synthetic_log_matches_reference(self):
        text = synth_packet_log(n_packets=2000, seed=0)
        assert parse_packet_csv(text) == reference_parse_packet_csv(text)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(text=mutated_logs())
    def test_same_records_or_same_error(self, text):
        assert csv_outcome(parse_packet_csv, text) == csv_outcome(reference_parse_packet_csv, text)


class TestScoring:
    def test_identity_scores_everything_100(self):
        truths = [p for s in extract_sessions(chain(8)) for p in s]
        report = score_fields(truths, truths)
        assert all(report.field_accuracy[f] == 100.0 for f in KEY_FIELDS)
        assert report.error_histogram == {
            "0": 100.0, "1": 0.0, "2": 0.0, "3": 0.0, "4+": 0.0
        }
        assert report.samples == 8

    def test_counts_per_field_and_bucket(self):
        truths = [pkt(), pkt(), pkt(), pkt()]
        preds = [
            pkt(),                       # 0 wrong
            pkt(length=70),              # 1 wrong
            pkt(sport=1, dport=2),       # 2 wrong
            pkt(sport=1, flags="S", seq=7, ack=8, length=9),  # 5 wrong
        ]
        report = score_fields(preds, truths)
        assert report.field_accuracy == {
            "sport": 50.0, "dport": 75.0, "flags": 75.0,
            "seq": 75.0, "ack": 75.0, "length": 50.0,
        }
        assert report.error_histogram == {
            "0": 25.0, "1": 25.0, "2": 25.0, "3": 0.0, "4+": 25.0
        }

    def test_two_decimal_rounding(self):
        truths = [pkt(), pkt(), pkt()]
        preds = [pkt(length=70), pkt(), pkt()]
        report = score_fields(preds, truths)
        assert report.field_accuracy["length"] == 66.67
        assert report.error_histogram["1"] == 33.33

    def test_report_text_layout(self):
        truths = [pkt()]
        text = score_fields(truths, truths).to_text()
        lines = text.splitlines()
        assert lines[0] == "sport: 100.00"
        assert lines[5] == "length: 100.00"
        assert lines[6] == "0 errors: 100.00"
        assert lines[7] == "1 error: 0.00"
        assert lines[10] == "4+ errors: 0.00"
        assert text.endswith("\n")

    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            score_fields([pkt()], [pkt(), pkt()])
        with pytest.raises(DimensionError):
            score_fields([], [])


# Timestamps repeat and arrive out of order; gaps of 61 and 200 s pass the default timeout.
STAMPS = [0.0, 0.5, 1.0, 1.0, 2.0, 61.0, 200.0]
FLAGS = ["A", "PA", "AP", "SS", "SA", "AS", "", "FA", "AF", "R", "RA"]
FIN_OR_RST = ["F", "R", "FA", "RA", "FR"]


@st.composite
def captures(draw):
    """Packet CSV text of up to four flows; flow 0 may carry only F or R packets."""
    n_flows = draw(st.integers(1, 4))
    closing_flow = draw(st.booleans())
    lines = [PACKET_HEADER]
    for _ in range(draw(st.integers(0, 40))):
        flow = draw(st.integers(0, n_flows - 1))
        ends = [(f"10.0.0.{flow}", 40000 + flow), ("192.168.1.1", 80 + flow % 2)]
        if draw(st.booleans()):
            ends.reverse()
        (src, sport), (dst, dport) = ends
        flags = draw(st.sampled_from(FIN_OR_RST if closing_flow and flow == 0 else FLAGS))
        ts = draw(st.sampled_from(STAMPS)) + draw(st.sampled_from([0.0, 1000.0]))
        seq, ack = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
        length = draw(st.integers(0, 1500))
        lines.append(f"{ts!r},{src},{dst},{sport},{dport},{flags},{seq},{ack},{length}")
    return "\n".join(lines) + "\n"


def assert_build_matches_reference(text, context, seed, idle):
    packets = parse_packet_csv(text)
    sessions = extract_sessions(packets, idle)
    want = reference_sessions(packets, idle)
    assert sessions == want
    assert all(p is q for s, r in zip(sessions, want) for p, q in zip(s, r))
    samples = build_dataset(packets, context, seed, idle)
    assert samples == reference_build_dataset(packets, context, seed, idle)
    if not samples:
        message = f"^no session holds more than context \\+ 1 = {context + 1} packets$"
        with pytest.raises(SizingError, match=message):
            build_samples_text(text, context, seed, idle)
        return
    want = reference_build_text(text, context, seed, idle)
    assert "".join(build_samples_text(text, context, seed, idle)) == want
    assert render_dataset(samples) == want


def one_session_log(packets):
    """A capture of one session: ACK packets of one flow, a second apart."""
    rows = [f"{float(i)!r},10.0.0.1,10.0.0.2,40000,80,A,{i},{i},64" for i in range(packets)]
    return "\n".join([PACKET_HEADER, *rows]) + "\n"


class TestBuildBlocks:
    @pytest.mark.parametrize("pairs", [1, 511, 512, 513, 1025])
    def test_blocks_join_to_the_rendered_dataset(self, pairs):
        assert packetset._PAIRS_PER_BLOCK == 512
        # A session of m packets holds m - context - 1 windows.
        text = one_session_log(pairs + 3 + 1)
        want = render_dataset(build_dataset(parse_packet_csv(text), context=3, seed=7))
        blocks = list(build_samples_text(text, context=3, seed=7))
        assert "".join(blocks) == want
        # Every block but the last holds 512 pairs, of two documents each.
        sizes = [block.count("#Context\n") // 2 for block in blocks]
        assert sizes == [512] * (pairs // 512) + [pairs % 512] * bool(pairs % 512)


class TestBuildMatchesReference:
    """The column core and its record wrappers against the record path they replaced."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        text=captures(),
        context=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        idle=st.sampled_from([0.4, 1.0, 60.0, 1e9]),
    )
    def test_same_samples_and_bytes(self, text, context, seed, idle):
        assert_build_matches_reference(text, context, seed, idle)

    @pytest.mark.parametrize("seed", [1, 2, 5])
    @pytest.mark.parametrize("context", [1, 3, 5])
    def test_synthetic_logs(self, seed, context):
        text = synth_packet_log(n_packets=3000, seed=seed, n_flows=8)
        assert_build_matches_reference(text, context, seed, 60.0)

    @pytest.mark.parametrize("rows", [
        # Timestamp ties in one flow keep capture order.
        ["1.0,a,b,1,2,A,1,0,5", "1.0,b,a,2,1,A,2,0,6", "1.0,a,b,1,2,A,3,0,7", "1.0,a,b,1,2,A,4,0,8"],
        # A flow of F and R packets only: every session holds one packet.
        ["1.0,a,b,1,2,FA,1,0,5", "2.0,a,b,1,2,R,2,0,6", "3.0,a,b,1,2,F,3,0,7"],
        # Non-canonical flags, and a session one packet short of a window.
        ["1.0,a,b,1,2,AP,1,0,5", "2.0,a,b,1,2,SS,2,0,6", "3.0,a,b,1,2,AS,3,0,7"],
        [],
    ], ids=["ties", "fin-rst-only", "short-session", "empty"])
    def test_edge_captures(self, rows):
        text = "\n".join([PACKET_HEADER, *rows]) + "\n"
        for context in (1, 2):
            assert_build_matches_reference(text, context, 0, 60.0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        flags=st.sampled_from(FLAGS),
        seed=st.integers(0, 2**32 - 1),
        values=st.tuples(st.integers(0, 2**16 - 1), st.integers(0, 2**32 - 1),
                         st.integers(0, 1500)),
    )
    def test_perturb_field(self, flags, seed, values):
        """make_pair corrupts the next packet as the old per-field perturbation did."""
        port, number, length = values
        packet = pkt(sport=port, dport=65535 - port, flags=flags, seq=number,
                     ack=2**32 - 1 - number, length=length)
        context, prompt = (pkt(seq=1),), pkt(seq=2)
        got = make_pair(context, prompt, packet, np.random.default_rng(seed))
        want = reference_make_pair(context, prompt, packet, np.random.default_rng(seed))
        assert got == want


class TestRecordContract:
    """PacketRecord and FinetuneSample: immutable, validated and compared by value."""

    @staticmethod
    def sample():
        return FinetuneSample((pkt(),), pkt(seq=1064), pkt(seq=1128), pkt(seq=1128, length=70))

    def test_assignment_raises(self):
        record, sample = pkt(), self.sample()
        for name in PACKET_COLUMNS:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        for name in ("context", "prompt", "chosen", "rejected", "extra"):
            with pytest.raises(AttributeError):
                setattr(sample, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_repr_text(self):
        assert repr(pkt(flags="AP")) == (
            "PacketRecord(timestamp=1.0, src='10.0.0.1', dst='10.0.0.2', sport=8080, "
            "dport=443, flags='PA', seq=1000, ack=2000, length=64)"
        )
        record = repr(pkt())
        sample = FinetuneSample((pkt(),), pkt(), pkt(), pkt(length=70))
        assert repr(sample) == (
            f"FinetuneSample(context=({record},), prompt={record}, chosen={record}, "
            f"rejected={record.replace('length=64', 'length=70')})"
        )

    def test_equality_and_hash(self):
        a, b = pkt(flags="AP"), pkt(flags="PA")
        assert a == b and hash(a) == hash(b) and a is not b
        assert a != pkt(flags="PA", length=65)
        assert len({a, b, pkt(ts=2.0)}) == 2
        assert self.sample() == self.sample()
        assert hash(self.sample()) == hash(self.sample())
        assert self.sample() != self.sample()._replace(context=(pkt(), pkt()))

    @pytest.mark.parametrize("fields, message", [
        ({"ts": float("nan")}, "timestamp must be finite: nan"),
        ({"ts": float("-inf"), "sport": 70000}, "timestamp must be finite: -inf"),
        ({"sport": 70000, "length": -1}, "sport out of range: 70000"),
        ({"dport": -1}, "dport out of range: -1"),
        ({"seq": 2**32}, "seq out of range: 4294967296"),
        ({"ack": -5}, "ack out of range: -5"),
        ({"length": -1}, "length out of range: -1"),
        ({"flags": "AXQ"}, "unknown TCP flag letters: QX"),
    ])
    def test_packet_messages(self, fields, message):
        with pytest.raises(ParseError) as err:
            pkt(**fields)
        assert str(err.value) == message and err.value.line is None
        with pytest.raises(ParseError, match=f"^{message}$"):
            pkt()._replace(**{"timestamp" if k == "ts" else k: v for k, v in fields.items()})

    def test_replace_builds_a_checked_record(self):
        assert pkt()._replace(flags="AP").flags == "PA"
        assert pkt()._replace(length=65) == pkt(length=65)

    @pytest.mark.parametrize("edit, message", [
        ({"context": ()}, "context must hold at least one packet"),
        ({"rejected": pkt(seq=1128)}, "rejected packet must differ in exactly one field, differs in 0"),
        ({"rejected": pkt(seq=1129, length=70)},
         "rejected packet must differ in exactly one field, differs in 2"),
    ])
    def test_sample_messages(self, edit, message):
        fields = self.sample()._asdict() | edit
        with pytest.raises(ConfigError, match=f"^{message}$"):
            FinetuneSample(**fields)
        with pytest.raises(ConfigError, match=f"^{message}$"):
            self.sample()._replace(**edit)

    def test_diff_fields(self):
        assert diff_fields(pkt(), pkt(flags="AP")) == ("flags",)
        assert diff_fields(pkt(), pkt(ts=9.0, src="x")) == ()
        assert diff_fields(pkt(), pkt(sport=1, ack=2, length=3)) == ("sport", "ack", "length")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        wrong=st.lists(st.sets(st.sampled_from(KEY_FIELDS)), min_size=1, max_size=30),
    )
    def test_score_fields_matches_reference(self, wrong):
        changes = {"sport": 1, "dport": 2, "flags": "S", "seq": 3, "ack": 4, "length": 5}
        truths = [pkt(seq=k) for k in range(len(wrong))]
        preds = [t._replace(**{f: changes[f] for f in fields}) for t, fields in zip(truths, wrong)]
        report = score_fields(preds, truths)
        got = (report.field_accuracy, report.error_histogram, report.samples)
        assert got == reference_score_fields(preds, truths)
