import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavloop import telemetry
from uavloop.errors import (
    ConfigError,
    DimensionError,
    ImputationError,
    InputError,
    OrderingError,
    ParseError,
    SizingError,
)
from uavloop.inject import _LABELED_RULES, load_labeled_csv
from uavloop.telemetry import (
    COLUMNS,
    DEFAULT_FEATURES,
    HEADER,
    INT_COLUMNS,
    SENSOR_RULES,
    NormStats,
    SplitSpec,
    TelemetrySeries,
    apply_normalize,
    fit_normalize,
    format_table,
    impute_missing,
    load_sensor_csv,
    parse_table,
    serialize_sensor_csv,
    split,
    window,
    window_matrix,
)

from support import reference_parse_table


def make_series(n, feature_values=None, start=212000, cadence=4000):
    """Helper: a valid series with optional per-row values for gyro_rad_0."""
    values = np.zeros((n, len(COLUMNS)))
    values[:, COLUMNS.index("timestamp")] = start + cadence * np.arange(n)
    values[:, COLUMNS.index("gyro_integral_dt")] = cadence
    values[:, COLUMNS.index("accelerometer_integral_dt")] = cadence
    if feature_values is not None:
        values[:, COLUMNS.index("gyro_rad_0")] = feature_values
    return TelemetrySeries(values)


def csv_row(ts, g0=0.1, dt=4000, clip=0):
    return f"{ts},{g0!r},0.0,0.0,{dt},0,0.0,0.0,-9.8,{dt},{clip}"


def make_csv(rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


def parse_sensor_csv(text):
    """The series that sensor CSV text holds: ``parse_table`` with the sensor
    loader's columns and rules, then the series constructor."""
    return TelemetrySeries(parse_table(text.encode(), COLUMNS, INT_COLUMNS, SENSOR_RULES))


class TestParsing:
    def test_header_and_row_round_trip(self):
        text = make_csv([csv_row(212000), csv_row(216000, g0=-0.25)])
        series = parse_sensor_csv(text)
        assert len(series) == 2
        assert series.values[:, 0].tolist() == [212000, 216000]
        assert series.column("gyro_rad_0").tolist() == [0.1, -0.25]
        assert serialize_sensor_csv(series) == text

    def test_serialize_floats_shortest_round_trip(self):
        # 0.1 must come back as "0.1", not 0.10000000000000001
        text = make_csv([csv_row(212000, g0=0.1)])
        assert ",0.1," in serialize_sensor_csv(parse_sensor_csv(text))

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_sensor_csv("a,b,c\n1,2,3\n")
        assert "line 1" in str(err.value)

    def test_non_numeric_cell_names_line(self):
        text = make_csv([csv_row(212000), csv_row(216000).replace("-9.8", "oops")])
        with pytest.raises(ParseError) as err:
            parse_sensor_csv(text)
        assert "line 3" in str(err.value)

    def test_missing_cell_becomes_nan(self):
        text = make_csv([csv_row(212000).replace("-9.8", "")])
        series = parse_sensor_csv(text)
        assert math.isnan(series.column("accelerometer_m_s2_2")[0])
        assert series.has_missing()

    def test_missing_int_column_rejected(self):
        text = make_csv([f"212000,0.1,0.0,0.0,,0,0.0,0.0,-9.8,4000,0"])
        with pytest.raises(ParseError):
            parse_sensor_csv(text)

    def test_timestamps_must_increase(self):
        text = make_csv([csv_row(216000), csv_row(212000)])
        with pytest.raises(OrderingError) as err:
            parse_sensor_csv(text)
        assert "216000" in str(err.value) and "212000" in str(err.value)

    def test_load_error_names_the_file(self, tmp_path):
        path = tmp_path / "mission.csv"
        path.write_text(make_csv([csv_row(216000), csv_row(212000)]))
        with pytest.raises(OrderingError) as err:
            load_sensor_csv(str(path))
        with pytest.raises(OrderingError) as bare:
            parse_sensor_csv(path.read_text())
        assert err.value.line == bare.value.line
        assert str(err.value) == f"{path}: {bare.value}"

    def test_equal_timestamps_rejected(self):
        text = make_csv([csv_row(212000), csv_row(212000)])
        with pytest.raises(OrderingError):
            parse_sensor_csv(text)

    def test_nonpositive_dt_rejected(self):
        text = make_csv([csv_row(212000, dt=0)])
        with pytest.raises(ParseError):
            parse_sensor_csv(text)

    def test_negative_clipping_rejected(self):
        text = make_csv([csv_row(212000, clip=-1)])
        with pytest.raises(ParseError):
            parse_sensor_csv(text)

    def test_blank_lines_skipped(self):
        text = HEADER + "\n\n" + csv_row(212000) + "\n\n" + csv_row(216000) + "\n"
        assert len(parse_sensor_csv(text)) == 2

    def test_wrong_cell_count_rejected(self):
        text = make_csv([csv_row(212000) + ",9"])
        with pytest.raises(ParseError):
            parse_sensor_csv(text)


class TestNonFiniteTokens:
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", ["timestamp", "gyro_rad_1"])
    def test_rejected_with_line_and_column(self, token, column):
        cells = csv_row(216000).split(",")
        cells[COLUMNS.index(column)] = token
        text = make_csv([csv_row(212000), ",".join(cells)])
        with pytest.raises(ParseError) as err:
            parse_sensor_csv(text)
        assert err.value.line == 3
        assert f"non-finite value {token!r} in column {column}" in str(err.value)


LABELED_COLUMNS = COLUMNS + ("label",)
# Integers safe to round-trip through float64; strictly increasing first column.
WHOLE = st.integers(-(2**53), 2**53).map(float)
FLOAT_CELL = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.just(math.nan))


@st.composite
def numeric_tables(draw, columns):
    n = draw(st.integers(0, 12))
    first = sorted(draw(st.sets(st.integers(-(2**53), 2**53), min_size=n, max_size=n)))
    cells = [[float(v) for v in first]]
    for name in columns[1:]:
        if name == "label":
            cell = st.sampled_from([0.0, 1.0])
        elif name in INT_COLUMNS:
            cell = WHOLE
        else:
            cell = FLOAT_CELL
        cells.append(draw(st.lists(cell, min_size=n, max_size=n)))
    return np.array(cells, dtype=np.float64).T.reshape(n, len(columns))


class TestTableCodec:
    @pytest.mark.parametrize("columns", [COLUMNS, LABELED_COLUMNS], ids=["sensor", "labeled"])
    @settings(deadline=None)
    @given(data=st.data())
    def test_parse_inverts_format_bit_exact(self, columns, data):
        matrix = data.draw(numeric_tables(columns))
        text = format_table(columns, matrix.T, INT_COLUMNS)
        values = parse_table(text.encode(), columns, INT_COLUMNS | {"label"})
        assert values.shape == matrix.shape
        assert values.tobytes() == matrix.tobytes()

    def test_layout(self):
        text = format_table(
            ("index", "loss", "truth"),
            ([0, 1], [0.1, math.nan], [1.0, math.nan]),
            frozenset(("index", "truth")),
        )
        assert text == "index,loss,truth\n0,0.1,1\n1,,\n"

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError):
            format_table(("a", "b"), ([1.0, 2.0], [1.0]), frozenset())



# The package reader accepts a number only when it is written with these
# characters; float() also takes "_" separators and non-ASCII digits.
NUMBER_CHARS = "0123456789+-.eE"
GOOD_TOKEN = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1.", ".5", "+3", "-0", "1e5", "1E-3", "2e+2", "0.0", "7"]),
)
ODD_TOKEN = st.one_of(
    st.sampled_from([
        "", "", " ", "\t", " 1 ", " 2", "3 ", "1_0", "١", "nan", "inf",
        "-inf", "NaN", "1e999", "-1e999", "e", "+", ".", "1e", "--1", "abc", "1 2", "#",
    ]),
    st.text(alphabet="0123456789+-.eE _", max_size=5),
)
LINE_BREAK = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x85", " "])
TABLE = ("t", "x", "k")


def unsupported(token):
    """A token float() reads as a finite number but the package grammar rejects."""
    try:
        value = float(token)
    except ValueError:
        return False
    return math.isfinite(value) and bool(token.strip().strip(NUMBER_CHARS))


@st.composite
def odd_csv_texts(draw):
    """Numeric CSV text over TABLE, mostly valid, with the faults a hand-edited file has."""
    int_columns = draw(st.sampled_from([frozenset({"t", "k"}), frozenset({"k"}), frozenset()]))
    n = draw(st.integers(0, 8))
    leads = sorted(draw(st.sets(st.integers(-50, 50), min_size=n, max_size=n)))
    if draw(st.integers(0, 4)) == 0:
        leads = draw(st.permutations(leads + leads[:1]))
    rows = []
    for lead in leads:
        cells = [str(lead)]
        for name in TABLE[1:]:
            kind = draw(st.integers(0, 9))
            if kind == 0:
                cells.append(draw(ODD_TOKEN))
            elif kind == 1:
                cells.append("")
            elif name in int_columns or kind < 5:
                cells.append(str(draw(st.integers(-(2**40), 2**40))))
            else:
                cells.append(draw(GOOD_TOKEN))
        kind = draw(st.integers(0, 9))
        if kind < 2:
            cells[0] = draw(ODD_TOKEN) if kind else ""
        if draw(st.integers(0, 14)) == 0:
            cells = cells[:-1] if draw(st.booleans()) else cells + ["1"]
        rows.append(",".join(cells))
        if draw(st.integers(0, 6)) == 0:
            rows.append(draw(st.sampled_from(["", "", " ", "\t "])))
    header = ",".join(TABLE)
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from([" " + header + " ", "t,x", "T,x,k", ""]))
    body_break = draw(LINE_BREAK)
    head_break = body_break if draw(st.integers(0, 3)) else draw(LINE_BREAK)
    text = header + head_break + body_break.join(rows)
    if draw(st.booleans()):
        text += body_break
    return text, int_columns


def reference_values(text, columns, int_columns, rules=()):
    """The reference parser's matrix, without its row line numbers."""
    return reference_parse_table(text, columns, int_columns)[0]


def outcome(parse, text, int_columns, rules=()):
    try:
        values = parse(text, TABLE, int_columns, rules)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    return values.shape, values.tobytes()


# Two row rules on TABLE; the first rule that fails anywhere wins, not the first bad row.
RULES = (
    ("k", lambda c: c > 10**6, "column k is too large"),
    ("x", lambda c: c < 0, "column x must be non-negative"),
)


class TestReaderMatchesReference:
    """parse_table against the line-by-line parser it replaced (tests/support.py)."""

    @settings(max_examples=400, deadline=None)
    @given(case=odd_csv_texts())
    def test_same_values_or_same_error(self, case):
        text, int_columns = case
        got = outcome(parse_table, text.encode(), int_columns)
        want = outcome(reference_values, text, int_columns)
        odd_lines = [
            lineno
            for lineno, line in enumerate(text.splitlines()[1:], start=2)
            if any(unsupported(token) for token in line.split(","))
        ]
        if not odd_lines:
            assert got == want
            return
        # A token only float() accepts is an error naming its line, unless an
        # earlier line already fails in the reference parser.
        reference_failed = isinstance(want[0], type)
        expected_line = min(want[2], odd_lines[0]) if reference_failed else odd_lines[0]
        assert got[0] in (ParseError, OrderingError)
        assert got[2] == expected_line
        if got[2] != odd_lines[0]:
            assert got == want

    @pytest.mark.parametrize("body, blanks", [
        (",0.5,2\n3,1.5,4\n,2.5,5\n", 2),
        ("1,,2\n2,,3\n3,,\n", 4),
        ("1,0.5,\n2,1.5,\n3,2.5,", 3),
        ("1,0.5,2\n2,1.5,3\n", 0),
    ], ids=["line-start", "middle", "line-end", "no-blanks"])
    def test_blank_cells_read_as_reference(self, body, blanks):
        text = ",".join(TABLE) + "\n" + body
        got = outcome(parse_table, text.encode(), frozenset())
        assert got == outcome(reference_values, text, frozenset())
        assert np.isnan(np.frombuffer(got[1])).sum() == blanks

    @pytest.mark.parametrize("token", ["1_0", "١", "2_5.5"])
    def test_unsupported_number_names_its_line(self, token):
        cells = csv_row(216000).split(",")
        cells[COLUMNS.index("gyro_rad_1")] = token
        text = make_csv([csv_row(212000), ",".join(cells)])
        with pytest.raises(ParseError) as err:
            parse_sensor_csv(text)
        assert err.value.line == 3
        assert f"unsupported number {token!r} in column gyro_rad_1" in str(err.value)

    @pytest.mark.parametrize("eol", ["\r\n", "\r", "\u2028"])
    def test_other_line_breaks_and_spaces_read_the_same(self, eol):
        rows = [csv_row(212000), " ", csv_row(216000, g0=-0.25).replace(",", " , ")]
        text = make_csv(rows).replace("\n", eol)
        values = parse_table(text.encode(), COLUMNS, INT_COLUMNS)
        exact = make_csv(rows[::2]).encode()
        assert values.tobytes() == parse_table(exact, COLUMNS, INT_COLUMNS).tobytes()
        rows[2] = csv_row(216000, dt=0).replace(",", " , ")
        with pytest.raises(ParseError) as err:
            parse_sensor_csv(make_csv(rows).replace("\n", eol))
        assert str(err.value) == "line 4: column gyro_integral_dt must be positive"

    @settings(max_examples=400, deadline=None)
    @given(case=odd_csv_texts())
    def test_row_rules_fail_at_reference_line(self, case):
        """A failing rule names the reference's line of its first bad row; rules
        run only on a table that parsed, so a parse error still wins."""
        text, int_columns = case
        got = outcome(parse_table, text.encode(), int_columns, RULES)
        try:
            values, locs = reference_parse_table(text, TABLE, int_columns)
        except ParseError:
            assert got == outcome(parse_table, text.encode(), int_columns)
            return
        if any(unsupported(token) for line in text.splitlines()[1:] for token in line.split(",")):
            assert got == outcome(parse_table, text.encode(), int_columns)
            return
        for name, bad, message in RULES:
            rows = np.flatnonzero(bad(values[:, TABLE.index(name)]))
            if rows.size:
                line = locs[rows[0]]
                assert got == (ParseError, f"line {line}: {message}", line)
                return
        assert got == (values.shape, values.tobytes())


def file_cases(header, rows):
    """Bytes of the input files a numeric CSV loader must read as the reference parser does."""
    blank = rows[1].replace("-9.8", "", 1)
    texts = {
        "crlf": (header + "\n" + "\n".join(rows) + "\n").replace("\n", "\r\n"),
        "padded-header": " " + header + "  \n" + "\n".join(rows) + "\n",
        "bom": "\ufeff" + header + "\n" + "\n".join(rows) + "\n",
        "blank-lines": "\n\n".join([header, "", rows[0], *rows[1:], ""]),
        "blank-cell": "\n".join([header, rows[0], blank, rows[2]]),
        "empty-body": header + "\n",
        "non-finite": "\n".join([header, rows[0], rows[1].replace("-0.25", "inf")]) + "\n",
        "not-utf8": "\n".join([header, rows[0], rows[1].replace("-0.25", "-0.2\udcff")]) + "\n",
    }
    return {name: text.encode("utf-8", "surrogateescape") for name, text in texts.items()}


FILE_ROWS = [csv_row(212000), csv_row(216000, g0=-0.25), csv_row(220000, g0=1e-300)]
FILE_LOADERS = {
    "sensor": (load_sensor_csv, COLUMNS, lambda got: got.values),
    "labeled": (
        load_labeled_csv,
        LABELED_COLUMNS,
        lambda got: np.column_stack([got.series.values, got.labels]),
    ),
}


class TestFileLoadsMatchReference:
    """The file loaders, which parse bytes, against the reference parser on the decoded text."""

    @pytest.mark.parametrize("kind", sorted(FILE_LOADERS))
    @pytest.mark.parametrize("case", sorted(file_cases(HEADER, FILE_ROWS)))
    def test_same_values_or_same_message(self, tmp_path, kind, case):
        load, columns, matrix = FILE_LOADERS[kind]
        rows = FILE_ROWS if kind == "sensor" else [row + ",1" for row in FILE_ROWS]
        data = file_cases(",".join(columns), rows)[case]
        path = tmp_path / "input.csv"
        path.write_bytes(data)
        if case == "not-utf8":
            with pytest.raises(InputError) as err:
                load(str(path))
            assert str(err.value) == f"{path} line 3: not UTF-8 text (byte 0xff)"
            return
        text = data.decode()
        try:
            values = reference_values(text, columns, INT_COLUMNS | {"label"})
        except ParseError as want:
            with pytest.raises(type(want)) as err:
                load(str(path))
            assert (str(err.value), err.value.line) == (f"{path}: {want}", want.line)
            return
        assert matrix(load(str(path))).tobytes() == values.tobytes()

    def test_messages_pinned(self, tmp_path):
        cases = file_cases(HEADER, FILE_ROWS)
        path = tmp_path / "input.csv"
        path.write_bytes(cases["bom"])
        with pytest.raises(ParseError) as err:
            load_sensor_csv(str(path))
        bom_header = "\ufeff" + HEADER
        assert str(err.value) == f"{path}: line 1: expected header {HEADER!r}, got {bom_header!r}"
        path.write_bytes(cases["non-finite"])
        with pytest.raises(ParseError) as err:
            load_sensor_csv(str(path))
        assert str(err.value) == f"{path}: line 3: non-finite value 'inf' in column gyro_rad_0"
        path.write_bytes(cases["empty-body"])
        assert len(load_sensor_csv(str(path))) == 0


def refuse(*args):
    raise AssertionError("the line reader ran")


def outcome_of(parse, text, columns, int_columns, rules):
    try:
        values = parse(text.encode(), columns, int_columns, rules)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    return values.shape, values.tobytes()


def expected_outcome(text, columns, int_columns, rules):
    """The reference parser's values, or its error, or the first failing rule at its row's line."""
    try:
        values, locs = reference_parse_table(text, columns, int_columns)
    except ParseError as exc:
        return type(exc), str(exc), exc.line
    for name, bad, message in rules:
        rows = np.flatnonzero(bad(values[:, columns.index(name)]))
        if rows.size:
            line = locs[rows[0]]
            return ParseError, f"line {line}: {message}", line
    return values.shape, values.tobytes()


def chunk_case_text(case, header, rows):
    """A numeric CSV text whose blank, fault or last line sits at a chunk boundary
    once chunks hold one to three of these rows."""
    cells = [row.split(",") for row in rows]
    if case == "blank-first":
        cells[2][0] = ""
    elif case == "blank-last":
        cells[2][-1] = ""
    elif case == "adjacent-blanks":
        for k in (0, 1, 3, 5):
            cells[k][2] = cells[k][3] = ""
    elif case == "timestamp-drops":
        cells[2][0], cells[3][0] = cells[3][0], cells[2][0]
    elif case == "fault-in-last-chunk":
        cells[-1][6] = "abc"
    elif case == "rule-in-second-chunk":
        cells[2][4] = "0"
    elif case == "blank-lines":
        cells[2:2] = [[""], [""]]
    eol = "\r\n" if case == "crlf" else "\n"
    text = header + eol + eol.join(map(",".join, cells))
    return text if case == "no-final-newline" else text + eol


CHUNK_CASES = (
    "exact", "blank-first", "blank-last", "adjacent-blanks", "no-final-newline",
    "timestamp-drops", "fault-in-last-chunk", "rule-in-second-chunk", "crlf", "blank-lines",
)
# Below one row (every row is a chunk), about one row, and about two rows.
CHUNK_BYTES = (1, 48, 100)
CHUNK_ROWS = [
    csv_row(212000 + 4000 * k, g0=g0, clip=k % 2)
    for k, g0 in enumerate([0.1, -0.25, 1e-300, 3.141592653589793, -7.0, 2.5e17])
]
CHUNK_READERS = {
    "sensor": (load_sensor_csv, COLUMNS, SENSOR_RULES, lambda got: got.values),
    "labeled": (
        load_labeled_csv,
        LABELED_COLUMNS,
        _LABELED_RULES,
        lambda got: np.column_stack([got.series.values, got.labels]),
    ),
}


class TestChunkBoundaries:
    """The chunked reader, with chunks of a few dozen bytes, against the reference
    parser: through parse_table and both loaders, the same values bit for bit,
    or the same error class, message and line.  Where the reference reads a
    text without blank lines, the line reader must not run."""

    @pytest.mark.filterwarnings("error")  # numpy warns on a chunk of blank lines only
    @pytest.mark.parametrize("chunk", CHUNK_BYTES)
    @pytest.mark.parametrize("kind", sorted(CHUNK_READERS))
    @pytest.mark.parametrize("case", CHUNK_CASES)
    def test_same_values_or_same_error(self, tmp_path, monkeypatch, chunk, kind, case):
        load, columns, rules, matrix = CHUNK_READERS[kind]
        rows = CHUNK_ROWS
        if kind == "labeled":
            rows = [f"{row},{k % 2}" for k, row in enumerate(CHUNK_ROWS)]
        text = chunk_case_text(case, ",".join(columns), rows)
        int_columns = INT_COLUMNS | {"label"}
        want = expected_outcome(text, columns, int_columns, rules)
        monkeypatch.setattr(telemetry, "_CHUNK_BYTES", chunk)
        if case != "blank-lines" and not isinstance(want[0], type):
            monkeypatch.setattr(telemetry, "_read_lines", refuse)
        path = tmp_path / "input.csv"
        path.write_bytes(text.encode())
        try:
            got = matrix(load(path))
        except ParseError as exc:
            assert (type(exc), str(exc), exc.line) == (want[0], f"{path}: {want[1]}", want[2])
        else:
            assert (got.shape, got.tobytes()) == want
        assert outcome_of(parse_table, text, columns, int_columns, rules) == want

    @pytest.mark.parametrize("chunk", CHUNK_BYTES)
    @pytest.mark.parametrize("final", ["\n", ""], ids=["newline", "no-final-newline"])
    def test_blank_first_and_last_cells_read_as_nan(self, monkeypatch, chunk, final):
        text = "t,x,k\n,0.5,1\n2,,\n,,\n4,1.5,\n5,,2\n,2.5," + final
        want = expected_outcome(text, TABLE, frozenset(), ())
        monkeypatch.setattr(telemetry, "_CHUNK_BYTES", chunk)
        monkeypatch.setattr(telemetry, "_read_lines", refuse)
        assert outcome_of(parse_table, text, TABLE, frozenset(), ()) == want
        assert np.isnan(np.frombuffer(want[1])).sum() == 10

    @pytest.mark.parametrize("kind", sorted(CHUNK_READERS))
    def test_crlf_twin_of_an_exact_file_reads_the_same(self, tmp_path, monkeypatch, kind):
        load, columns, _, matrix = CHUNK_READERS[kind]
        rows = chunk_case_text("adjacent-blanks", ",".join(columns), CHUNK_ROWS).splitlines()
        if kind == "labeled":
            rows = rows[:1] + [row + ",1" for row in rows[1:]]
        path = tmp_path / "input.csv"
        path.write_bytes(("\n".join(rows) + "\n").encode())
        want = matrix(load(path)).tobytes()
        monkeypatch.setattr(telemetry, "_read_lines", refuse)
        path.write_bytes(("\r\n".join(rows) + "\r\n").encode())
        assert matrix(load(path)).tobytes() == want


class TestImputation:
    def test_linear_interior(self):
        # gaps at t=1,2 between 1.0 and 4.0: interpolate to 2.0 and 3.0
        series = make_series(5, feature_values=[1.0, np.nan, np.nan, 4.0, 5.0])
        out = impute_missing(series, "linear")
        assert out.column("gyro_rad_0").tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_linear_boundaries_hold_nearest(self):
        series = make_series(4, feature_values=[np.nan, 2.0, 3.0, np.nan])
        out = impute_missing(series, "linear")
        assert out.column("gyro_rad_0").tolist() == [2.0, 2.0, 3.0, 3.0]

    def test_forward_fill(self):
        series = make_series(4, feature_values=[1.5, np.nan, np.nan, 7.0])
        out = impute_missing(series, "forward-fill")
        assert out.column("gyro_rad_0").tolist() == [1.5, 1.5, 1.5, 7.0]

    def test_forward_fill_leading_gap_rejected(self):
        series = make_series(3, feature_values=[np.nan, 2.0, 3.0])
        with pytest.raises(ImputationError):
            impute_missing(series, "forward-fill")

    def test_all_missing_feature_rejected(self):
        series = make_series(3, feature_values=[np.nan, np.nan, np.nan])
        with pytest.raises(ImputationError):
            impute_missing(series, "linear")

    def test_unknown_policy(self):
        with pytest.raises(ConfigError):
            impute_missing(make_series(3), "magic")

    def test_clean_series_unchanged(self):
        series = make_series(4, feature_values=[1.0, 2.0, 3.0, 4.0])
        out = impute_missing(series, "linear")
        assert np.array_equal(out.values, series.values)


class TestNormalization:
    def test_population_stats(self):
        series = make_series(4, feature_values=[1.0, 2.0, 3.0, 4.0])
        stats = fit_normalize(series)
        i = DEFAULT_FEATURES.index("gyro_rad_0")
        assert stats.mean[i] == 2.5
        assert stats.std[i] == 1.118033988749895  # population, not sample
        normed = apply_normalize(series, stats)
        col = normed.column("gyro_rad_0")
        assert col[0] == -1.3416407864998738
        assert abs(col.mean()) < 1e-15
        assert abs(col.std() - 1.0) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        series = make_series(50, feature_values=rng.normal(0, 2, 50))
        stats = fit_normalize(series)
        normed = apply_normalize(series, stats)
        back = series.with_features(normed.features() * stats.std + stats.mean)
        assert np.allclose(back.values, series.values, atol=1e-12)

    def test_constant_feature_maps_to_zero(self):
        series = make_series(5, feature_values=[3.0] * 5)
        stats = fit_normalize(series)
        normed = apply_normalize(series, stats)
        assert normed.column("gyro_rad_0").tolist() == [0.0] * 5

    def test_nan_rejected(self):
        series = make_series(3, feature_values=[1.0, np.nan, 3.0])
        with pytest.raises(ImputationError):
            fit_normalize(series)

    def test_feature_name_mismatch(self):
        series = make_series(4)
        stats = fit_normalize(series)
        other = series.with_features(series.features())
        bad = NormStats(("gyro_rad_0",), np.zeros(1), np.ones(1))
        with pytest.raises(DimensionError):
            apply_normalize(other, bad)

    def test_timestamps_untouched(self):
        series = make_series(4, feature_values=[1.0, 2.0, 3.0, 4.0])
        normed = apply_normalize(series, fit_normalize(series))
        assert np.array_equal(normed.values[:, 0], series.values[:, 0])


class TestSplit:
    def test_default_sizes(self):
        parts = split(make_series(100))
        assert (len(parts.train), len(parts.val), len(parts.test)) == (60, 20, 20)

    def test_remainder_goes_to_train(self):
        parts = split(make_series(101), SplitSpec(0.6, 0.2, 0.2))
        assert (len(parts.train), len(parts.val), len(parts.test)) == (61, 20, 20)

    def test_chronological_and_contiguous(self):
        series = make_series(50, feature_values=np.arange(50))
        parts = split(series, SplitSpec(0.6, 0.2, 0.2))
        joined = np.concatenate(
            [
                parts.train.column("gyro_rad_0"),
                parts.val.column("gyro_rad_0"),
                parts.test.column("gyro_rad_0"),
            ]
        )
        assert joined.tolist() == list(range(50))

    def test_empty_piece_rejected(self):
        with pytest.raises(ConfigError):
            split(make_series(7), SplitSpec(0.7, 0.2, 0.1))

    def test_too_few_records(self):
        with pytest.raises(ConfigError):
            split(make_series(2), SplitSpec(0.6, 0.2, 0.2))

    def test_ratios_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            SplitSpec(0.5, 0.2, 0.2)

    def test_ratio_bounds(self):
        with pytest.raises(ConfigError):
            SplitSpec(1.0, 0.0, 0.0)

    def test_floor_insensitive_to_float_noise(self):
        # 0.2 * 35 = 6.999999... in floats; the split must still give 7
        parts = split(make_series(35), SplitSpec(0.6, 0.2, 0.2))
        assert (len(parts.val), len(parts.test)) == (7, 7)


class TestWindowing:
    def test_reconstruction_count_and_shapes(self):
        series = make_series(10, feature_values=np.arange(10))
        data = window(series, seq_len=4, stride=2)
        # floor((10 - 4) / 2) + 1 = 4 windows
        assert len(data) == 4
        assert data.inputs.shape == (4, 4, 6)
        assert data.targets is data.inputs or np.array_equal(data.targets, data.inputs)
        assert data.start_indices.tolist() == [0, 2, 4, 6]

    def test_forecast_targets_follow_inputs(self):
        matrix = np.arange(12, dtype=float)[:, None]
        data = window_matrix(matrix, seq_len=3, stride=1, mode="forecast", horizon=2)
        # floor((12 - 3 - 2) / 1) + 1 = 8 windows
        assert len(data) == 8
        assert data.inputs[0].ravel().tolist() == [0, 1, 2]
        assert data.targets[0].ravel().tolist() == [3, 4]
        assert data.inputs[-1].ravel().tolist() == [7, 8, 9]
        assert data.targets[-1].ravel().tolist() == [10, 11]

    def test_exact_fit_single_window(self):
        matrix = np.arange(5, dtype=float)[:, None]
        data = window_matrix(matrix, seq_len=5)
        assert len(data) == 1

    def test_too_short_gives_sizing_error(self):
        matrix = np.arange(5, dtype=float)[:, None]
        with pytest.raises(SizingError) as err:
            window_matrix(matrix, seq_len=6)
        assert "6" in str(err.value)
        with pytest.raises(SizingError) as err:
            window_matrix(matrix, seq_len=4, mode="forecast", horizon=2)
        assert "4" in str(err.value) and "2" in str(err.value)

    def test_one_dim_input_promoted(self):
        data = window_matrix(np.arange(6, dtype=float), seq_len=2)
        assert data.inputs.shape == (5, 2, 1)

    def test_target_record_indices_reconstruction(self):
        data = window_matrix(np.arange(6, dtype=float), seq_len=3, stride=2)
        rows = data.target_record_indices()
        assert rows.tolist() == [[0, 1, 2], [2, 3, 4]]

    def test_target_record_indices_forecast(self):
        data = window_matrix(np.arange(8, dtype=float), 3, 1, "forecast", 2)
        rows = data.target_record_indices()
        assert rows[0].tolist() == [3, 4]
        assert rows[-1].tolist() == [6, 7]

    def test_stride_one_reconstruction_covers_every_record(self):
        n = 23
        data = window_matrix(np.arange(n, dtype=float), seq_len=7)
        covered = np.zeros(n, dtype=bool)
        covered[data.target_record_indices().ravel()] = True
        assert covered.all()

    def test_bad_mode_and_params(self):
        matrix = np.arange(10, dtype=float)
        with pytest.raises(ConfigError):
            window_matrix(matrix, 3, mode="autoencode")
        with pytest.raises(ConfigError):
            window_matrix(matrix, 0)
        with pytest.raises(ConfigError):
            window_matrix(matrix, 3, stride=0)

    def test_window_count_formula_property(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            seq = int(rng.integers(1, n + 1))
            stride = int(rng.integers(1, 8))
            data = window_matrix(np.arange(n, dtype=float), seq, stride)
            assert len(data) == (n - seq) // stride + 1
            last = data.start_indices[-1]
            assert last + seq <= n


def stacked_windows(matrix, seq_len, stride, mode, horizon):
    """The windows as separate copies, the way window_matrix once built them."""
    span = seq_len + (horizon if mode == "forecast" else 0)
    starts = range(0, len(matrix) - span + 1, stride)
    inputs = np.stack([matrix[s : s + seq_len] for s in starts])
    if mode == "reconstruction":
        return inputs, inputs
    return inputs, np.stack([matrix[s + seq_len : s + span] for s in starts])


class TestWindowViews:
    @pytest.mark.parametrize("mode", ["reconstruction", "forecast"])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_views_equal_stacked_copies(self, mode, stride):
        matrix = np.random.default_rng(stride).normal(size=(50, 4))
        data = window_matrix(matrix, 6, stride, mode, horizon=2)
        inputs, targets = stacked_windows(matrix, 6, stride, mode, 2)
        assert data.inputs.shape == inputs.shape
        assert data.inputs.tobytes() == inputs.tobytes()
        assert data.targets.tobytes() == targets.tobytes()
        if mode == "reconstruction":
            assert data.targets is data.inputs

    @pytest.mark.parametrize("mode", ["reconstruction", "forecast"])
    def test_windows_share_one_copy_of_the_matrix(self, mode):
        matrix = np.random.default_rng(0).normal(size=(200, 3))
        data = window_matrix(matrix, 16, 1, mode, horizon=2)
        for arr in (data.inputs, data.targets):
            assert isinstance(arr.base, np.ndarray)
            assert arr.base.nbytes == matrix.nbytes
            assert not np.shares_memory(arr, matrix)
        assert np.shares_memory(data.inputs, data.targets)

    def test_windows_are_read_only(self):
        data = window_matrix(np.arange(30, dtype=float).reshape(10, 3), 4, 1, "forecast", 2)
        for arr in (data.inputs, data.targets):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0, 0] = 1.0

    @pytest.mark.parametrize("mode", ["reconstruction", "forecast"])
    def test_later_write_to_matrix_leaves_windows(self, mode):
        matrix = np.arange(60, dtype=float).reshape(20, 3)
        data = window_matrix(matrix, 5, 2, mode, horizon=2)
        inputs, targets = data.inputs.copy(), data.targets.copy()
        matrix[:] = -1.0
        assert np.array_equal(data.inputs, inputs)
        assert np.array_equal(data.targets, targets)


class TestSeriesValidation:
    def test_values_read_only(self):
        series = make_series(3)
        with pytest.raises(ValueError):
            series.values[0, 0] = 1.0

    def test_features_returns_copy(self):
        series = make_series(3)
        feats = series.features()
        feats[0, 0] = 99.0
        assert series.features()[0, 0] != 99.0
