import json
import math
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from paintpot import characterize
from paintpot.characterize import (
    CalibrationDataset,
    ModelBundle,
    calibrate,
    compute_valid_ranges,
    fit_cubic,
    fit_report,
    ingest_log,
    invert_cubic,
    read_columns,
    trim_and_shift,
    variance_keys,
)
from paintpot.characterize import _read_columns_checked
from paintpot.cli import synthesize_sweep_dataset
from paintpot.cubic import CHART_KNOTS, CubicModel
from paintpot.errors import FitError, InversionError, SpecError, read_json
from paintpot.estimate import default_measurement_variance
from paintpot.geometry import WHEEL_TRACKS
from paintpot.presets import (
    SENSOR_PRESETS,
    TILT_TRUTH,
    WHEEL_TRUTH_W0,
    WHEEL_TRUTH_W1,
    reference_tilt_spec,
    reference_wheel_spec,
)
from paintpot.sensor_sim import save_sensor_spec, sensor_spec_from_dict, sensor_spec_to_dict

from oracles import (
    ReferenceLogError,
    bisect_root,
    cubic_value,
    fit_cubic_reference,
    ingest_log_reference,
    invert_cubic_reference,
    monotone_on_grid,
    wiper_voltage,
)

PI = math.pi
TWO_PI = 2.0 * math.pi
WHEEL, TILT = reference_wheel_spec(), reference_tilt_spec()


def on_file(read, text, *args):
    """``read(path, *args)`` on a file that holds ``text`` as UTF-8, its line
    endings kept: the log reader reads only files."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.csv"
        path.write_bytes(text.encode("utf-8"))
        return read(path, *args)


def wheel_dataset(rows):
    t, theta, v0, v1 = zip(*rows)
    return CalibrationDataset(
        WHEEL_TRACKS,
        t=np.array(t, dtype=float),
        theta=np.array(theta, dtype=float),
        counts=np.array([v0, v1], dtype=np.int64).T,
    )


class TestIngestLog:
    def test_parses_wheel_rows(self):
        csv = "t,theta,v0,v1\n0.0,0.1,500,510\n0.1,0.2,505,515\n0.2,0.3,511,520\n"
        ds = on_file(ingest_log, csv, WHEEL)
        assert len(ds) == 3
        assert ds.counts.shape == (3, 2)
        assert ds.theta[1] == pytest.approx(0.2)

    def test_count_out_of_range_names_line(self):
        csv = "t,theta,v0,v1\n0.0,0.1,500,510\n0.1,0.2,1500,515\n"
        with pytest.raises(SpecError, match="line 3"):
            on_file(ingest_log, csv, WHEEL)

    def test_tilt_without_v1_accepted(self):
        csv = "t,theta,v0\n0.0,-0.5,200\n0.1,0.0,500\n"
        ds = on_file(ingest_log, csv, TILT)
        assert ds.tracks == (None,)
        assert ds.counts.shape == (2, 1)

    def test_decreasing_timestamp_rejected(self):
        csv = "t,theta,v0,v1\n0.0,0.1,500,510\n-0.1,0.2,505,515\n"
        with pytest.raises(SpecError, match="line 3"):
            on_file(ingest_log, csv, WHEEL)

    def test_wrong_header_rejected(self):
        csv = "time,angle,v0,v1\n0.0,0.1,500,510\n"
        with pytest.raises(SpecError, match="header"):
            on_file(ingest_log, csv, WHEEL)

    def test_comment_lines_skipped(self):
        csv = "# manifest {}\nt,theta,v0\n0.0,0.0,500\n"
        assert len(on_file(ingest_log, csv, TILT)) == 1

    def test_malformed_field_names_line(self):
        csv = "t,theta,v0,v1\n0.0,0.1,50x,510\n"
        with pytest.raises(SpecError, match="line 2"):
            on_file(ingest_log, csv, WHEEL)


def log_text(rows, kind="wheel"):
    header = "t,theta,v0,v1" if kind == "wheel" else "t,theta,v0"
    return "\n".join([header, *(",".join(str(x) for x in row) for row in rows)]) + "\n"


def ingest_both(text, kind):
    """ingest_log's dataset and the reference parser's columns, or both errors' texts."""
    try:
        want = ingest_log_reference(text, kind)
    except ReferenceLogError as exc:
        with pytest.raises(SpecError) as got:
            on_file(ingest_log, text, SENSOR_PRESETS[f"{kind}_reference"]())
        return str(got.value), str(exc)
    return on_file(ingest_log, text, SENSOR_PRESETS[f"{kind}_reference"]()), want


GOOD = (0.0, 0.1, 500, 510)
INT_ERROR = "invalid literal for int() with base 10"

# Every fault the readings parser is tested for, on a calibration log.
LOG_FAULTS = [
    ([GOOD, (0.01, 0.1, "1.5", 510)], f"line 3: {INT_ERROR}: '1.5'"),
    ([GOOD, (0.01, 0.1, 500, "")], f"line 3: {INT_ERROR}: ''"),
    ([GOOD, (0.01, 0.1, "9" * 400, 510)], f"line 3: count {'9' * 400} outside [0, 1023]"),
    ([(i * 0.01, 0.1, 500, 510) for i in range(500)] + [(5.0, 0.1, 500)],
     "line 502: expected 4 fields, got 3"),
    ([(i * 0.01, 0.1, 500, 510) for i in range(2100)] + [(21.0, 0.1, 500, "x")],
     f"line 2102: {INT_ERROR}: 'x'"),
    ([(i * 0.01, 0.1, 500, 510) for i in range(1500)] + [(14.0, 0.1, 500, 510)],
     "line 1502: timestamp 14.0 decreases"),
    # Two faults in one row: the checks keep their order.
    ([GOOD, (-1.0, 0.1, 500, -7)], "line 3: timestamp -1.0 decreases"),
    ([GOOD, (0.01, 0.1, 2000, -7)], "line 3: count 2000 outside [0, 1023]"),
    ([GOOD, (0.01, 4.0, -7, 510)], "line 3: count -7 outside [0, 1023]"),
    ([GOOD, (0.01, "nan", "x", 510)], f"line 3: {INT_ERROR}: 'x'"),
    # Two bad rows: the first one is named, whatever its fault.
    ([GOOD, (0.01, 0.1, -7, 510), (0.02, 0.1, 500)], "line 3: count -7 outside [0, 1023]"),
    ([GOOD, (0.01, 0.1, 500), (0.02, 0.1, -7, 510)], "line 3: expected 4 fields, got 3"),
    ([GOOD, (0.01, 0.1, "x", 510), ("nan", 0.1, 500, 510)], f"line 3: {INT_ERROR}: 'x'"),
    ([GOOD, (0.01, "nan", 500, 510), (0.02, 0.1, "x", 510)], "line 3: non-finite value"),
    ([GOOD, (0.01, 4.0, 500, 510), (0.02, 0.1, "x", 510)], "line 3: wheel angle 4.0 outside [-pi, pi]"),
    ([GOOD, (0.01, "inf", 500, 510)], "line 3: non-finite value"),
    ([GOOD, (0.01, -3.2, 500, 510)], "line 3: wheel angle -3.2 outside [-pi, pi]"),
]
LOG_FAULT_IDS = [
    "fractional_count", "empty_count", "huge_count", "late_short_row", "late_malformed",
    "late_decreasing_t", "decreasing_t_and_bad_count", "two_bad_counts", "bad_count_and_angle",
    "non_finite_and_malformed", "value_then_short_row", "short_row_then_value",
    "malformed_then_value", "value_then_malformed", "angle_then_malformed", "inf_theta",
    "wheel_angle_out_of_range",
]


class TestIngestLogFaults:
    @pytest.mark.parametrize("rows,message", LOG_FAULTS, ids=LOG_FAULT_IDS)
    def test_fault_names_the_line_as_the_reference_does(self, rows, message):
        got, want = ingest_both(log_text(rows), "wheel")
        assert got == want == message

    def test_tilt_angle_out_of_range(self):
        text = log_text([(0.0, 0.1, 500), (0.01, -1.6, 500)], "tilt")
        got, want = ingest_both(text, "tilt")
        assert got == want == "line 3: tilt angle -1.6 outside [-pi/2, pi/2]"

    def test_empty_and_header_only_files(self):
        assert ingest_both("# only a comment\n", "tilt") == ("empty calibration file",) * 2
        text = "t,theta,v0\n"
        assert ingest_both(text, "tilt") == ("calibration file has a header but no data rows",) * 2

    def test_wheel_minus_pi_is_stored_as_pi(self):
        ds = on_file(ingest_log, log_text([(0.0, -math.pi, 500, 510)]), WHEEL)
        assert ds.theta.tolist() == [math.pi]

    def test_str_and_path_read_alike(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(log_text([GOOD, (0.01, -0.2, 501, 511)]), encoding="utf-8")
        for ds in (ingest_log(str(path), WHEEL), ingest_log(path, WHEEL)):
            assert ds.t.tolist() == [0.0, 0.01] and ds.theta.tolist() == [0.1, -0.2]
            assert ds.counts.tolist() == [[500, 510], [501, 511]]


# Odd field texts: malformed, non-finite, padded, out of range.
ODD_FIELDS = ["x", "", "1.5", "nan", "inf", "-inf", " 3 ", "1_0", "9" * 30, "-1", "1e3", "+2", "-0"]
# Row faults, the value checks weighted up so that rows with two of them
# are common enough to pin the order of the checks.
FAULTS = ("odd", "angle", "angle", "count", "count", "decrease", "short", "long")


@st.composite
def calibration_logs(draw):
    """A calibration log of a random kind; about one row in ten has a fault."""
    kind = draw(st.sampled_from(("wheel", "tilt")))
    limit = math.pi if kind == "wheel" else math.pi / 2.0
    lines = ["t,theta,v0,v1" if kind == "wheel" else "t,theta,v0"]
    if draw(st.integers(0, 19)) == 0:
        lines[0] = draw(st.sampled_from(["t, theta ,v0,v1", "t,theta,v0", "t,theta,v0,v1", "theta,t,v0"]))
    t = 0.0
    for _ in range(draw(st.integers(0, 12))):
        t += draw(st.sampled_from((0.0, 0.01, 0.25)))
        theta = draw(st.floats(-limit, limit) | st.sampled_from((-limit, limit)))
        fields = [repr(t), repr(theta)] + [
            str(draw(st.integers(0, 1023))) for _ in range(2 if kind == "wheel" else 1)
        ]
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(("# note", "", "  # indented note"))))
        # A fault in one row in ten; half of those rows get a second one.
        for _ in range(draw(st.sampled_from((0,) * 18 + (1, 2)))):
            fault = draw(st.sampled_from(FAULTS))
            if fault == "odd":
                fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(ODD_FIELDS))
            elif fault == "angle":
                fields[1] = repr(draw(st.sampled_from((1.6, -3.2, 4.0, -math.pi, math.pi))))
            elif fault == "count":
                fields[-1] = str(draw(st.sampled_from((-3, 1024, 1030))))
            elif fault == "decrease":
                t -= 0.5
                fields[0] = repr(t)
            elif fault == "short":
                fields.pop()
            else:
                fields.append("0")
        lines.append(",".join(fields))
    return kind, "\n".join(lines) + "\n"


class TestIngestLogAgainstReference:
    @settings(max_examples=500, deadline=None)
    @given(calibration_logs())
    def test_same_dataset_or_same_error(self, log):
        kind, text = log
        got, want = ingest_both(text, kind)
        if isinstance(got, str):
            assert got == want
            return
        t, theta, v0, v1 = want
        assert got.t.dtype == got.theta.dtype == np.float64 and got.counts.dtype == np.int64
        assert got.t.tolist() == t and got.theta.tolist() == theta and got.counts[:, 0].tolist() == v0
        assert got.counts.shape[1] == 1 if v1 is None else got.counts[:, 1].tolist() == v1


READINGS = ["t", "v0", "v1", "omega"]
CALIBRATION = ["t", "theta", "v0", "v1"]


def grammar_log(header, where, text):
    """A three-row log with ``header``, and ``text`` put ``where`` a
    GRAMMAR_CASES entry says: into the last row's ``t`` or ``v0``, onto the
    end of the first data row, as a line after it, as every line ending or
    the final one, as a prefix, or as the number of rows kept."""
    rows = [
        [repr(0.01 * i), *("0.1" if name == "theta" else "0.5" if name == "omega" else str(500 + i)
                           for name in header[1:])]
        for i in range(3)
    ]
    if where in ("t", "v0"):
        rows[-1][header.index(where)] = text
    elif where == "row_end":
        rows[0][-1] += text
    elif where == "rows":
        del rows[int(text):]
    lines = [",".join(header), *map(",".join, rows)]
    if where == "line":
        lines.insert(2, text)
    newline = text if where == "newline" else "\n"
    log = newline.join(lines) + (text if where == "end" else newline)
    return text + log if where == "prefix" else log


def read_both(text, header):
    """read_columns' result on ``text`` and the checked parser's on its
    lines, ended by CRLF, CR or LF, as lists: columns as (type, value)
    pairs, floats by ``float.hex``, or the SpecError text."""
    limit = (PI, "wheel angle {} outside [-pi, pi]") if "theta" in header else None  # the wheel chart's

    def run(source, read):
        try:
            columns = read(source, header, 1023, "log", limit)
        except SpecError as exc:
            return str(exc)
        return [[(type(x), x.hex() if type(x) is float else x) for x in c.tolist()] for c in columns]

    return on_file(run, text, read_columns), run(re.split(r"\r\n|\r|\n", text), _read_columns_checked)


# Where np.loadtxt's grammar and the checked parser's differ, or might
# (numpy 2.4.6): (where, text, whether the fast stage accepts the log).
GRAMMAR_CASES = [
    ("line", "   ", False),
    ("row_end", "#x", False),
    ("line", "# note", True),
    ("line", " \t# note", True),
    ("line", '# note, "quoted"', True),
    # As errors.write_csv writes one.
    ("line", '# manifest {"command": "sweep", "inputs": {"spec": "a.json"}, "outputs": ["s.csv"], "seed": 3}', True),
    ("line", '# manifest {"inputs": {"spec": "a,"}}', True),
    ("line", '# a,"\n0.005,1,500,1\n#"', True),  # a quote carries nothing past its line: one row between two comments
    ("line", "# a\0b", True),
    ("v0", "5\0", False),
    ("t", "1_0", False),
    ("v0", "1_0", False),
    ("t", "\u0665", False),  # ARABIC-INDIC DIGIT FIVE: float() reads 5.0
    ("v0", "\u0665", False),
    ("t", '"5"', False),
    ("v0", '"5"', False),
    ("v0", "\u01fe", False),  # numpy's int64 parser reads it as 462
    ("v0", "1" * 23, False),
    ("row_end", ",", False),
    ("v0", "5.0", False),
    ("v0", "1e2", False),
    ("t", "nan", False),
    ("t", "inf", False),
    ("t", "Infinity", False),
    ("t", "1e400", False),
    # Counts that int() refuses, over its 4,300-digit limit, and np.loadtxt reads as 5.
    ("v0", "0" * 4300 + "5", False),
    ("v0", "0" * 131072 + "5", False),
    ("newline", "\r\n", True),
    ("newline", "\r", True),
    ("end", "", True),
    ("prefix", "\ufeff", False),
    ("prefix", "# manifest {}\n\n", True),
    ("t", " 0.5 ", True),
    ("t", "\x1c0.5\x1f", True),  # separators: str.strip removes them, float() does not
    ("v0", "+0005", True),
    ("rows", "0", False),
    ("rows", "1", True),
]
GRAMMAR_IDS = [
    "whitespace_line", "hash_after_row", "comment_line", "indented_comment_line", "quoted_comment_line",
    "manifest_line", "manifest_comma_quote", "comment_quote_over_lines", "nul_comment_line", "nul_count",
    "underscore_float", "underscore_count", "arabic_float", "arabic_count", "quoted_float", "quoted_count",
    "non_ascii_count", "23_digit_count", "trailing_comma", "count_5.0", "count_1e2", "nan", "inf", "Infinity",
    "1e400", "4301_digit_count", "131073_digit_count",
    "crlf", "bare_cr", "no_final_newline", "bom", "comment_preamble", "padded_float", "separator_padded_float",
    "signed_zero_padded_count", "header_only", "single_row",
]


@pytest.fixture
def checked(monkeypatch):
    """A list that grows by one at each call of the checked parser."""
    calls = []
    monkeypatch.setattr(
        characterize, "_read_columns_checked", lambda *args: calls.append(1) or _read_columns_checked(*args)
    )
    return calls


class TestTwoStageReader:
    @pytest.mark.parametrize("header", [READINGS, CALIBRATION], ids=["readings", "calibration"])
    @pytest.mark.parametrize("where,text,fast", GRAMMAR_CASES, ids=GRAMMAR_IDS)
    def test_same_columns_or_error_as_the_checked_parser(self, checked, header, where, text, fast):
        got, want = read_both(grammar_log(header, where, text), header)
        assert got == want
        assert not checked if fast else checked

    def test_str_and_path_read_alike_and_plain_logs_stay_in_the_fast_stage(self, monkeypatch, tmp_path):
        monkeypatch.setattr(characterize, "_read_columns_checked", None)
        path = tmp_path / "log.csv"
        path.write_bytes(grammar_log(READINGS, "newline", "\r\n").encode("utf-8"))
        for source in (path, str(path)):
            assert [c.tolist() for c in read_columns(source, READINGS, 1023, "log")] == [
                [0.0, 0.01, 0.02], [500, 501, 502], [500, 501, 502], [0.5, 0.5, 0.5]
            ]

    @pytest.mark.parametrize("edit,fast", [
        ("lf", True),
        ("crlf", True),
        ("cr", True),
        ("bare_cr_mid_body", True),
        ("non_ascii_last_line", False),
        ("over_digit_limit_mid_body", False),
        ("crlf_note_mid_body", True),
        ("quoted_note_mid_body", True),
        ("comma_quoted_note_mid_body", True),
    ])
    def test_whole_text_checks_route_a_large_log(self, checked, edit, fast):
        # Over 128 KiB, so no per-block or per-chunk rule could see all of it.
        lines = ["t,v0,v1,omega", *(f"{i / 100!r},{500 + i % 7},{510 - i % 5},0.5" for i in range(8000))]
        if edit == "non_ascii_last_line":
            lines[-1] = "79.99,\u01fe,510,0.5"  # numpy's int64 parser reads it as 462
        elif edit == "over_digit_limit_mid_body":
            lines[4000] = "40.0," + "0" * 131072 + "5,510,0.5"
        elif edit == "crlf_note_mid_body":
            lines.insert(4000, "# note")
        elif edit == "quoted_note_mid_body":
            lines.insert(4000, '# note "quoted"')
        elif edit == "comma_quoted_note_mid_body":
            lines.insert(4000, '# note,"quoted"')
        newline = {"crlf": "\r\n", "crlf_note_mid_body": "\r\n", "cr": "\r"}.get(edit, "\n")
        text = newline.join(lines) + newline
        if edit == "bare_cr_mid_body":
            text = text.replace("\n", "\r", 1000)
        assert len(text) > 128 * 1024
        got, want = read_both(text, READINGS)
        assert got == want
        assert not checked if fast else checked

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_quoted_line_end_does_not_join_two_header_lines(self, checked, newline):
        got, want = read_both(newline.join(['t,"v', '0",v1,omega', "0.0,500,510,0.5"]) + newline, READINGS)
        assert got == want == """line 1: header must be 't,v0,v1,omega', got 't,"v'"""
        assert checked

    @pytest.mark.parametrize("header", [READINGS, CALIBRATION], ids=["readings", "calibration"])
    @pytest.mark.parametrize("where,message", [
        ("t", """line 4: could not convert string to float: '"5"'"""),
        ("v0", """line 4: invalid literal for int() with base 10: '"5"'"""),
    ], ids=["quoted_float", "quoted_count"])
    def test_quoted_field_is_a_bad_field_naming_its_line(self, header, where, message):
        assert read_both(grammar_log(header, where, '"5"'), header) == (message, message)

    def test_count_over_the_int_digit_limit_names_its_line(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(grammar_log(READINGS, "v0", "0" * 131072 + "5"), encoding="utf-8")
        with pytest.raises(ValueError) as refused:
            int("0" * 131072 + "5")
        with pytest.raises(SpecError, match=rf"^line 4: {re.escape(str(refused.value))}$"):
            read_columns(path, READINGS, 1023, "readings")
        # It ends the rows as a short row does: an earlier bad value is named first.
        text = grammar_log(READINGS, "v0", "0" * 131072 + "5").replace("0.01,501", "0.01,-7")
        with pytest.raises(SpecError, match=r"^line 3: count -7 outside \[0, 1023\]$"):
            on_file(read_columns, text, READINGS, 1023, "readings")

    @pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_log_that_is_not_utf8_names_its_line(self, tmp_path, newline):
        path = tmp_path / "bad.csv"
        lines = grammar_log(READINGS, "newline", newline).encode("utf-8").split(newline.encode())
        lines[2] = lines[2].replace(b"0.01", b"0.0\xff")
        path.write_bytes(newline.encode().join(lines))
        with pytest.raises(SpecError, match=rf"^{re.escape(str(path))}: line 3: not UTF-8: invalid start byte$"):
            read_columns(path, READINGS, 1023, "readings")

    @pytest.mark.parametrize("rows", [3, 1000], ids=["small", "past_8_kib"])
    def test_encoding_is_judged_before_the_rows_at_any_size(self, tmp_path, rows):
        # A bad count on line 2, and a byte that is not UTF-8 on the last line.
        lines = ["t,v0,v1,omega", "0.00,5x0,510,0.0", *(f"{i * 0.01:.2f},500,510,0.0" for i in range(1, rows))]
        data = ("\n".join(lines) + "\n").encode("utf-8")
        at = data.rindex(b"\n", 0, -1) + 1
        path = tmp_path / "bad.csv"
        path.write_bytes(data[:at] + b"\xff" + data[at:])
        message = rf"^{re.escape(str(path))}: line {rows + 1}: not UTF-8: invalid start byte$"
        with pytest.raises(SpecError, match=message):
            read_columns(path, READINGS, 1023, "readings")


# Texts a mutation puts in place of a field, inserts as a line or inserts
# into the text: valid but unusual forms, and faults.
MUTANT_FIELDS = [
    " 5", "+5", "05", "5.", ".5", "-0", "1e3", "1E-3", "nan", "-inf", "1_0", "\u0665", '"5"', "",
    "5.0", "\u01fe", "1" * 23, "0x10", "1e", "9" * 19,
]
MUTANT_LINES = ["", "   ", "# note", ",,,", "0,1", "  # indented note", '# manifest {"a": "b", "c": [1, 2]}']
MUTANT_CHARS = [
    ",", "#", " ", "\t", "\x0b", "\x1c", "\r", "\n", '"', "_", "e", ".", "-", "+", "0", "9",
    "\ufeff", "\u0665", "\u01fe", "\xa0",
]


@st.composite
def mutated_logs(draw):
    """A valid readings or calibration log with up to three random edits."""
    header = draw(st.sampled_from((READINGS, CALIBRATION)))
    t, rows = 0.0, []
    for _ in range(draw(st.integers(1, 8))):
        t += draw(st.sampled_from((0.0, 0.01, 0.25)))
        row = [repr(t)]
        for name in header[1:]:
            if name == "theta":
                row.append(repr(draw(st.floats(-math.pi, math.pi))))
            elif name == "omega":
                row.append(repr(draw(st.floats(allow_nan=False, allow_infinity=False))))
            else:
                row.append(str(draw(st.integers(0, 1023))))
        rows.append(row)
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.sampled_from(MUTANT_FIELDS))
    lines = [",".join(header), *map(",".join, rows)]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(MUTANT_LINES)))
    text = draw(st.sampled_from(("\n", "\r\n", "\r"))).join(lines) + draw(st.sampled_from(("\n", "")))
    for _ in range(draw(st.integers(0, 1))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(MUTANT_CHARS)) + text[at + draw(st.integers(0, 1)):]
    return header, text


class TestTwoStageReaderAgainstCheckedParser:
    @settings(max_examples=300, deadline=None)
    @given(mutated_logs())
    def test_same_columns_or_same_error(self, log):
        header, text = log
        got, want = read_both(text, header)
        assert got == want


class TestTrimAndShift:
    def test_high_segment_shifts_down_for_wiper0(self):
        ds = wheel_dataset([(0.0, 0.9 * PI, 900, 100), (0.1, 0.0, 500, 500)])
        (theta0, v0), _ = trim_and_shift(ds)
        assert theta0[0] == pytest.approx(0.9 * PI - TWO_PI)
        assert v0[0] == 900

    def test_gap_samples_dropped_for_wiper0(self):
        ds = wheel_dataset([(0.0, 0.75 * PI, 850, 100), (0.1, 0.0, 500, 500)])
        (theta0, _), (theta1, _) = trim_and_shift(ds)
        assert len(theta0) == 1  # only the theta=0 sample survives
        assert theta0[0] == 0.0
        assert len(theta1) == 2

    def test_low_segment_shifts_up_for_wiper1(self):
        ds = wheel_dataset([(0.0, -0.9 * PI, 100, 80), (0.1, 0.0, 500, 500)])
        _, (theta1, v1) = trim_and_shift(ds)
        assert theta1[0] == pytest.approx(-0.9 * PI + TWO_PI)
        assert v1[0] == 80

    def test_tilt_passes_through(self):
        ds = CalibrationDataset(
            (None,), t=np.array([0.0, 0.1]), theta=np.array([-0.3, 0.4]), counts=np.array([[200], [700]])
        )
        pairs = trim_and_shift(ds)
        assert len(pairs) == 1
        ((theta, _),) = pairs
        assert np.array_equal(theta, [-0.3, 0.4])

    def test_empty_partition_is_an_error(self):
        ds = wheel_dataset([(0.0, 0.75 * PI, 850, 100), (0.1, 0.8 * PI, 860, 120)])
        with pytest.raises(FitError, match="wiper 0"):
            trim_and_shift(ds)

    def test_noiseless_output_is_a_function_of_voltage(self):
        # Same count implies angles within one count's angle equivalent.
        spec = reference_wheel_spec(noise_std=0.0)
        ds = synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(2))
        grid = np.linspace(0.0, 1023.0, 2048)
        bound = float(np.max(np.abs(WHEEL_TRUTH_W0.derivative(grid)))) + 1e-12
        (theta0, v0), _ = trim_and_shift(ds)
        by_count: dict[float, list[float]] = {}
        for theta, count in zip(theta0, v0):
            by_count.setdefault(count, []).append(theta)
        for thetas in by_count.values():
            assert max(thetas) - min(thetas) <= bound

    def test_noiseless_shifted_chart_is_continuous(self):
        # Sorted by voltage, jumps never exceed a few sweep steps: the
        # full-turn discontinuity is gone.  The floor guards against a
        # zero median from duplicated counts across the two passes.
        spec = reference_wheel_spec(noise_std=0.0)
        ds = synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(2))
        sweep_step = 2.0 * TWO_PI / len(ds)
        for theta, v in trim_and_shift(ds):
            order = np.argsort(v, kind="stable")
            jumps = np.abs(np.diff(theta[order]))
            floor = max(float(np.median(jumps)), sweep_step)
            assert float(jumps.max()) <= 3.0 * floor


class TestFitCubic:
    def test_exact_recovery_from_noiseless_pairs(self):
        v = np.arange(0.0, 1001.0, 100.0)
        theta = 1e-9 * v**3 + 0.0 * v**2 + 0.003 * v - 1.5
        model = fit_cubic(theta, v)
        assert model.c3 == pytest.approx(1e-9, abs=1e-12)
        assert model.c2 == pytest.approx(0.0, abs=1e-12)
        assert model.c1 == pytest.approx(0.003, abs=1e-12)
        assert model.c0 == pytest.approx(-1.5, abs=1e-12)
        assert model.v_window == (0.0, 1000.0)

    def test_recovery_under_angle_noise(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(0.0, 1023.0, 700)
        theta = WHEEL_TRUTH_W0.evaluate(v) + rng.normal(0.0, 0.01, v.size)
        model = fit_cubic(theta, v)
        grid = np.linspace(model.v_window[0], model.v_window[1], 2000)
        assert np.max(np.abs(model.evaluate(grid) - WHEEL_TRUTH_W0.evaluate(grid))) < 0.01

    def test_too_few_pairs_rejected(self):
        with pytest.raises(FitError, match="at least 8"):
            fit_cubic([0.0, 0.1, 0.2], [0.0, 500.0, 1000.0])

    def test_too_few_distinct_counts_rejected(self):
        v = np.array([0.0, 0.0, 512.0, 512.0, 1023.0, 1023.0, 0.0, 512.0])
        with pytest.raises(FitError, match="distinct"):
            fit_cubic(np.linspace(0, 1, 8), v)

    def test_narrow_span_rejected(self):
        v = np.linspace(400.0, 600.0, 20)
        with pytest.raises(FitError, match="span"):
            fit_cubic(0.001 * v, v)

    @pytest.mark.parametrize(
        "column,value", [("theta", math.nan), ("theta", math.inf), ("v", math.nan), ("v", -math.inf)]
    )
    def test_non_finite_pair_rejected_before_the_solve(self, capfd, column, value):
        v = np.linspace(0.0, 1000.0, 20)
        theta = 0.003 * v - 1.5
        (theta if column == "theta" else v)[7] = value
        with pytest.raises(SpecError, match="^shifted_theta and v must be finite$"):
            fit_cubic(theta, v)
        assert capfd.readouterr().err == ""  # LAPACK never saw it

    def test_reordering_does_not_change_the_curve(self):
        rng = np.random.default_rng(6)
        v = rng.uniform(0.0, 1023.0, 300)
        theta = WHEEL_TRUTH_W1.evaluate(v) + rng.normal(0.0, 0.005, v.size)
        a = fit_cubic(theta, v)
        perm = rng.permutation(v.size)
        b = fit_cubic(theta[perm], v[perm])
        grid = np.linspace(a.v_window[0], a.v_window[1], 1000)
        assert np.max(np.abs(a.evaluate(grid) - b.evaluate(grid))) < 1e-9

    def test_sweep_reproduces_reference_shape(self):
        # End-to-end anchor: the fitted wiper-0 curve extrapolates close to
        # the generating constant at V=0 and hits the chart top at its
        # valid-range edge.
        spec = reference_wheel_spec()
        ds = synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(7))
        bundle = calibrate(ds)
        m0 = bundle.models[0]
        assert m0.evaluate(0.0) == pytest.approx(-7.2750, abs=0.1)
        (_, v_max), _ = bundle.valid_ranges
        assert m0.evaluate(v_max) == pytest.approx(
            2.0 * PI / 3.0, abs=0.05
        )


def fit_outcome(fit, theta, v):
    """``fit``'s model as ``float.hex`` of c3..c0 and of its window, or its
    error's type and text; with the texts of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            model = fit(theta, v)
            result = tuple(x.hex() for x in (model.c3, model.c2, model.c1, model.c0, *model.v_window))
        except (FitError, SpecError) as exc:
            result = (type(exc).__name__, str(exc))
    return result, [f"{w.category.__name__}: {w.message}" for w in caught]


def _respec(spec, **changes):
    return sensor_spec_from_dict({**sensor_spec_to_dict(spec), **changes})


FIT_SENSORS = {
    "wheel": WHEEL,
    "wheel_gaps": _respec(WHEEL, gap_w0=[1.5, 2.0], gap_w1=[-2.9, -2.5]),
    "tilt": TILT,
    "tilt_wide": _respec(TILT, angle_limit=2.0),
}


class TestFitCubicMatchesNumpyPolynomial:
    """fit_cubic against numpy.polynomial's Polynomial.fit(...).convert(),
    bit for bit: coefficients, window, warnings and errors."""

    @settings(max_examples=40, deadline=None)
    @given(sensor=st.sampled_from(sorted(FIT_SENSORS)), seed=st.integers(0, 2**32 - 1), permute=st.booleans())
    def test_sweeps_of_the_reference_sensors(self, sensor, seed, permute):
        rng = np.random.default_rng(seed)
        for theta, v in trim_and_shift(synthesize_sweep_dataset(FIT_SENSORS[sensor], 14.0, 50.0, rng)):
            if permute:
                order = rng.permutation(v.size)
                theta, v = theta[order], v[order]
            assert fit_outcome(fit_cubic, theta, v) == fit_outcome(fit_cubic_reference, theta, v)

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(8, 300),
        lo=st.integers(0, 500),
        span=st.integers(500, 1023),
        coefficients=st.tuples(*[st.floats(-3.0, 3.0)] * 4),
        noise=st.sampled_from([0.0, 1e-6, 0.01, 0.5]),
        # The smallest scales make the top converted coefficients underflow to 0.
        scale=st.sampled_from([1.0, 1e-3, 1e3, 1e-300, 1e-310, 1e-318]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pairs_on_windows_anywhere(self, n, lo, span, coefficients, noise, scale, seed):
        rng = np.random.default_rng(seed)
        v = rng.integers(lo, lo + span + 1, n).astype(float)
        v[rng.permutation(n)[:2]] = lo, lo + span  # the hull is the whole window, in any order
        x = (v - lo) / span
        c3, c2, c1, c0 = coefficients
        theta = scale * ((((c3 * x + c2) * x + c1) * x + c0) + noise * rng.standard_normal(n))
        assert fit_outcome(fit_cubic, theta, v) == fit_outcome(fit_cubic_reference, theta, v)

    def test_zero_top_coefficients_are_positive_zeros(self):
        # numpy.polynomial trims the zeros the underflow leaves on top and
        # pads them back as +0.0.
        v = np.linspace(100.0, 900.0, 20)
        theta = -1e-310 * v
        assert fit_outcome(fit_cubic, theta, v) == fit_outcome(fit_cubic_reference, theta, v)
        model = fit_cubic(theta, v)
        assert (math.copysign(1.0, model.c3), math.copysign(1.0, model.c2)) == (1.0, 1.0)
        assert model.c1 < 0.0

    def test_rank_below_four_warns_as_numpy_does(self):
        v = np.array([0.0, 1e-9, 2e-9, 3e-9, 1000.0, 1000.0, 1000.0, 1000.0])
        result, caught = fit_outcome(fit_cubic, v / 1000.0, v)
        assert caught == ["RankWarning: The fit may be poorly conditioned"]
        assert (result, caught) == fit_outcome(fit_cubic_reference, v / 1000.0, v)


def slope_shaped_cubic(c3, m, q, window):
    """Cubic whose derivative is ``3*c3*((v - m)**2 - q)``: roots m +- sqrt(q) if q >= 0."""
    return CubicModel(c3, -3.0 * c3 * m, 3.0 * c3 * (m * m - q), 0.0, window)


class TestCubicModelMonotonicity:
    @settings(max_examples=400, deadline=None)
    @given(
        a=st.floats(1e-9, 1e-5),
        sign=st.sampled_from((-1.0, 1.0)),
        lo=st.floats(0.0, 500.0),
        span=st.floats(20.0, 1023.0),
        m_frac=st.floats(-1.0, 2.0),
        q_frac=st.floats(-1.0, 1.0),
    )
    def test_closed_form_agrees_with_dense_grid(self, a, sign, lo, span, m_frac, q_frac):
        hi = lo + span
        m, q = lo + m_frac * span, q_frac * span * span
        step = span / 100_000
        # Skip the cases a grid cannot judge: roots closer than two grid
        # steps to each other or to a window end, and slopes lost to
        # cancellation in the coefficients.
        assume(abs(q) > max(4.0 * step * step, 1e-9 * m * m))
        if q > 0.0:
            roots = (m - math.sqrt(q), m + math.sqrt(q))
            assume(all(abs(r - lo) > 2.0 * step and abs(r - hi) > 2.0 * step for r in roots))
        c3, c2, c1 = sign * a / 3.0, -sign * a * m, sign * a * (m * m - q)
        try:
            CubicModel(c3, c2, c1, 0.0, (lo, hi))
            accepted = True
        except FitError:
            accepted = False
        assert accepted == monotone_on_grid(c3, c2, c1, lo, hi)

    def test_increasing_and_decreasing_accepted(self):
        assert CubicModel(0.0, 0.0, 1e-3, 0.0, (0.0, 1023.0)).increasing
        assert not slope_shaped_cubic(-1e-6, 2000.0, 1.0, (0.0, 1023.0)).increasing

    def test_sign_change_between_grid_points_rejected(self):
        # The slope is negative only on (100.4, 100.6), between the integer
        # points a 1024-point grid over [0, 1023] would sample.
        with pytest.raises(FitError, match="not monotone"):
            slope_shaped_cubic(1e-6, 100.5, 0.01, (0.0, 1023.0))

    @pytest.mark.parametrize("window", [(100.0, 900.0), (-800.0, 100.0)], ids=["lo", "hi"])
    def test_zero_slope_at_a_window_end_rejected(self, window):
        with pytest.raises(FitError, match="not monotone"):
            slope_shaped_cubic(2.0**-20, 100.0, 0.0, window)

    def test_flat_point_inside_accepted(self):
        model = slope_shaped_cubic(2.0**-20, 511.25, 0.0, (0.0, 1023.0))
        assert model.derivative(511.25) == 0.0 and model.increasing

    def test_nan_coefficient_rejected(self):
        with pytest.raises(FitError):
            CubicModel(0.0, math.nan, 1e-3, 0.0, (0.0, 1023.0))
        # An infinite slope passes the monotonicity test, so finiteness is
        # checked on its own, in every position.
        for bad in (math.nan, math.inf, -math.inf):
            for position in range(4):
                coefficients = [0.0, 0.0, 1e-3, 0.0]
                coefficients[position] = bad
                with pytest.raises(FitError, match="coefficients must be finite"):
                    CubicModel(*coefficients, (0.0, 1023.0))

    @pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 10.0), (math.nan, 10.0)])
    def test_non_finite_window_rejected(self, window):
        with pytest.raises(FitError, match="window must be finite"):
            CubicModel(0.0, 0.0, 1e-3, 0.0, window)


# WHEEL_TRUTH_W0 mirrored: the same curve, decreasing in voltage.
DECREASING = CubicModel(-5.0281e-9, 1.2255e-5, -1.7856e-2, 7.2750, (0.0, 1023.0))


def with_window(model, window):
    return CubicModel(model.c3, model.c2, model.c1, model.c0, window)


# c3*(v - m)**3 + 0.5 with exact binary coefficients: an isolated flat
# point at m = 511.25, where f'(m) == 0.0 exactly.
FLAT_POINT = CubicModel(
    2.0**-20, -3.0 * 2.0**-20 * 511.25, 3.0 * 2.0**-20 * 511.25**2, 0.5 - 2.0**-20 * 511.25**3, (0.0, 1023.0)
)
INVERSION_MODELS = [WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, TILT_TRUTH, DECREASING, FLAT_POINT]


class TestInvertCubic:
    def test_linear_at_zero(self):
        model = CubicModel(0.0, 0.0, 2.0 * PI / 1023.0, -PI, (0.0, 1023.0))
        assert invert_cubic(model, 0.0) == pytest.approx(511.5, abs=1e-6)

    def test_reference_lower_target(self):
        target = 5.0 * PI / 6.0 - TWO_PI
        v = invert_cubic(WHEEL_TRUTH_W0, target)
        assert 0.0 <= v <= 1023.0
        assert abs(WHEEL_TRUTH_W0.evaluate(v) - target) < 1e-9

    def test_target_above_range_raises(self):
        model = CubicModel(0.0, 0.0, 0.001, -1.0, (0.0, 1023.0))
        with pytest.raises(InversionError):
            invert_cubic(model, 5.0)

    def test_round_trip_identity(self):
        rng = np.random.default_rng(8)
        lo, hi = WHEEL_TRUTH_W1.angle_range()
        for theta in rng.uniform(lo, hi, 200):
            v = invert_cubic(WHEEL_TRUTH_W1, float(theta))
            assert abs(WHEEL_TRUTH_W1.evaluate(v) - theta) < 1e-9

    @settings(max_examples=300, deadline=None)
    @given(
        c3=st.floats(-2e-8, 2e-8),
        c2=st.floats(-3e-5, 3e-5),
        c1=st.floats(-2e-2, 2e-2),
        c0=st.floats(-4.0, 4.0),
        lo=st.floats(0.0, 500.0),
        span=st.floats(20.0, 1023.0),
        frac=st.floats(0.001, 0.999),
    )
    # A subnormal angle range: its targets round onto the range's ends, so construction refuses it.
    @example(c3=0.0, c2=-5e-324, c1=0.0, c0=0.0, lo=1.0, span=20.5, frac=0.001)
    def test_random_monotone_cubics_agree_with_oracle(self, c3, c2, c1, c0, lo, span, frac):
        hi = lo + span
        try:
            model = CubicModel(c3, c2, c1, c0, (lo, hi))
        except FitError:
            assume(False)
        low, high = model.angle_range()
        target = low + frac * (high - low)
        v = invert_cubic(model, target)
        assert lo <= v <= hi
        assert abs(model.evaluate(v) - target) < 1e-9
        # |f'| is smallest at a window edge or at the derivative's vertex.
        candidates = [lo, hi]
        if c3 != 0.0 and lo < -c2 / (3.0 * c3) < hi:
            candidates.append(-c2 / (3.0 * c3))
        min_slope = min(abs(float(model.derivative(x))) for x in candidates)
        ref = bisect_root(lambda x: cubic_value(c3, c2, c1, c0, x) - target, lo, hi)
        assert abs(v - ref) <= (1e-9 + 1e-12) / min_slope

    @pytest.mark.parametrize(
        "coefficients,window",
        [
            ((0.0, -5e-324, 0.0, 0.0), (1.0, 21.5)),  # an angle range of 2.3e-321 rad
            ((0.0, 0.0, 2.0**-1033, 0.0), (0.0, 1023.0)),  # 1023 * 2**-1033 < 2**-1022, the least normal
        ],
        ids=["subnormal_c2", "subnormal_c1"],
    )
    def test_angle_range_below_the_least_normal_float_is_refused(self, coefficients, window):
        with pytest.raises(FitError, match="angle range on its voltage window must be a normal float"):
            CubicModel(*coefficients, window)

    def test_angle_range_of_the_least_normal_float_is_accepted(self):
        model = CubicModel(0.0, 0.0, 2.0**-1022 / 1024.0, 0.0, (0.0, 1024.0))
        assert model.angle_range() == (0.0, 2.0**-1022)

    def test_zero_slope_point_is_handled(self, monkeypatch):
        # c3*(v - m)**3 + c0 with exact binary coefficients, so f'(m) == 0.0
        # exactly; m = 511.25 lies between the monotonicity grid points.
        c3, m = 2.0**-20, 511.25
        cases = [
            # The root is the zero-slope point itself: f(m) = 0.5.
            ((0.0, 1023.0), 0.5),
            # The regula-falsi start lands exactly on m, where a plain
            # Newton step divides by zero...
            ((m - 256.0, m + 257.0), 0.5 + c3 * 256.0 * 257.0),
            # ...or just beside it, where a plain Newton step jumps to ~2e8.
            ((m - 256.0, m + 257.0), 0.5 + 1.01 * c3 * 256.0 * 257.0),
        ]
        points = []
        evaluate = CubicModel.evaluate
        # Array arguments (the chart's knots) are recorded point by point.
        monkeypatch.setattr(
            CubicModel, "evaluate", lambda self, v: points.extend(np.ravel(v)) or evaluate(self, v)
        )
        for window, target in cases:
            model = CubicModel(c3, -3.0 * c3 * m, 3.0 * c3 * m * m, 0.5 - c3 * m**3, window)
            assert model.derivative(m) == 0.0
            points.clear()
            v = invert_cubic(model, target)
            assert abs(evaluate(model, v) - target) < 1e-9
            assert all(window[0] <= p <= window[1] for p in points)

    @pytest.mark.parametrize(
        "model",
        [
            DECREASING,
            with_window(WHEEL_TRUTH_W0, (511.3, 511.301)),
            with_window(DECREASING, (511.3, 511.301)),
            CubicModel(1e-21, 0.0, 1e-6, -5.0, (0.0, 1e7)),
        ],
        ids=["decreasing", "narrow", "narrow_decreasing", "wide"],
    )
    def test_unusual_windows_agree_with_oracle(self, model):
        lo, hi = model.v_window
        low, high = model.angle_range()
        for target in np.linspace(low, high, 101)[1:-1]:
            v = invert_cubic(model, float(target))
            assert lo <= v <= hi
            assert abs(model.evaluate(v) - target) < 1e-9
            ref = bisect_root(
                lambda x: cubic_value(model.c3, model.c2, model.c1, model.c0, x) - target, lo, hi
            )
            slope = min(abs(float(model.derivative(x))) for x in (lo, hi))
            assert abs(v - ref) <= (1e-9 + 1e-12) / slope

    @pytest.mark.parametrize(
        "model",
        [
            WHEEL_TRUTH_W0,
            DECREASING,
            with_window(WHEEL_TRUTH_W1, (100.25, 100.25 + 1e-3)),
            CubicModel(1e-21, 0.0, 1e-6, -5.0, (0.0, 1e7)),
        ],
        ids=["increasing", "decreasing", "narrow", "wide"],
    )
    def test_chart_has_fixed_length_and_matches_scalar_evaluate(self, model):
        model = with_window(model, model.v_window)  # a fresh model, chart not built yet
        assert "chart" not in vars(model)
        knots, angles = model.chart
        assert len(knots) == len(angles) == CHART_KNOTS
        assert (knots[0], knots[-1]) == model.v_window
        assert all(a <= b for a, b in zip(knots, knots[1:]))
        assert all(angle == model.evaluate(knot) for knot, angle in zip(knots, angles))

    @pytest.mark.parametrize("model", [WHEEL_TRUTH_W0, DECREASING], ids=["increasing", "decreasing"])
    def test_target_on_a_knot_or_a_window_end(self, model):
        knots, angles = model.chart
        lo, hi = model.v_window
        assert invert_cubic(model, angles[0]) == lo
        assert invert_cubic(model, angles[-1]) == hi
        for k in (1, 2, CHART_KNOTS // 2, CHART_KNOTS - 2):
            v = invert_cubic(model, angles[k])
            assert abs(model.evaluate(v) - angles[k]) < 1e-9
            assert abs(v - knots[k]) < 1e-6

    def test_tie_on_a_flat_stretch_of_the_chart(self):
        # Knots fall on even counts and the flat point m on the odd count
        # between two of them, where the cubic moves less than half an ulp
        # of 0.5: those two chart entries tie at 0.5, while the window ends
        # stay more than the tolerance away from it.
        c3, m = 2.0**-56, CHART_KNOTS - 1.0
        model = CubicModel(c3, -3.0 * c3 * m, 3.0 * c3 * m * m, 0.5 - c3 * m**3, (0.0, 2.0 * m))
        mirrored = CubicModel(-model.c3, -model.c2, -model.c1, -model.c0, model.v_window)
        k = CHART_KNOTS // 2
        for model, target in ((model, 0.5), (mirrored, -0.5)):
            knots, angles = model.chart
            assert (knots[k - 1], knots[k]) == (m - 1.0, m + 1.0)
            assert angles[k - 1] == angles[k] == target
            assert min(abs(angles[0] - target), abs(angles[-1] - target)) > 1e-9
            v = invert_cubic(model, target)
            assert v in (m - 1.0, m + 1.0)
            assert model.evaluate(v) == target

    def test_at_most_three_evaluations_per_inversion(self, monkeypatch):
        calls = []
        evaluate = CubicModel.evaluate
        monkeypatch.setattr(
            CubicModel, "evaluate", lambda self, v: calls.append(v) or evaluate(self, v)
        )
        for model in (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, TILT_TRUTH):
            model.chart  # the one vectorized evaluation, paid once per model
            low, high = model.angle_range()
            for target in np.linspace(low, high, 20_001).tolist():
                calls.clear()
                invert_cubic(model, target)
                assert len(calls) <= 3

    @settings(max_examples=500, deadline=None)
    @given(
        model=st.sampled_from(INVERSION_MODELS),
        tol=st.sampled_from([1e-9, 1e-6, 1e-12, 0.0]),
        max_iter=st.sampled_from([200, 2, 1]),
        data=st.data(),
    )
    def test_matches_the_frozen_reference_bit_for_bit(self, model, tol, max_iter, data):
        knots, angles = model.chart
        low, high = model.angle_range()
        ends = [angles[0], angles[-1]]
        target = data.draw(st.one_of(
            st.floats(low, high),
            st.sampled_from(ends + [model.evaluate(511.25), low - 1e-6, high + 1e-6, math.nan, math.inf]),
            # At, just within and just beyond tol of each window end.
            st.tuples(st.sampled_from(ends), st.sampled_from([-1.5, -1.0, -0.5, 0.5, 1.0, 1.5])).map(
                lambda end: end[0] + end[1] * tol
            ),
            st.integers(0, CHART_KNOTS - 1).map(lambda k: angles[k]),
        ))
        try:
            want = invert_cubic_reference(model, target, tol, max_iter)
        except InversionError as exc:
            with pytest.raises(InversionError, match=f"^{re.escape(str(exc))}$"):
                invert_cubic(model, target, tol, max_iter)
            return
        assert invert_cubic(model, target, tol, max_iter).hex() == want.hex()

    def test_out_of_range_text_matches_the_frozen_reference(self):
        low, high = WHEEL_TRUTH_W0.angle_range()
        for model, target in ((WHEEL_TRUTH_W0, low - 1e-6), (WHEEL_TRUTH_W0, high + 1.0), (DECREASING, 9.0)):
            with pytest.raises(InversionError) as want:
                invert_cubic_reference(model, target)
            assert "outside model range" in str(want.value)
            with pytest.raises(InversionError, match=f"^{re.escape(str(want.value))}$"):
                invert_cubic(model, target)

    def test_nan_target_raises(self):
        with pytest.raises(InversionError):
            invert_cubic(WHEEL_TRUTH_W0, math.nan)

    def test_target_below_range_raises(self):
        low, _ = WHEEL_TRUTH_W0.angle_range()
        with pytest.raises(InversionError, match="outside model range"):
            invert_cubic(WHEEL_TRUTH_W0, low - 1e-6)

    def test_iteration_budget_exhausted_raises(self):
        with pytest.raises(InversionError, match="stalled"):
            invert_cubic(WHEEL_TRUTH_W0, 0.3, max_iter=1)


class TestComputeValidRanges:
    def test_linear_models_match_closed_form_inversion(self):
        slope = TWO_PI * (23.0 / 24.0) / 1023.0
        m0 = CubicModel(0.0, 0.0, slope, -7.0 * PI / 6.0, (0.0, 1023.0))
        m1 = CubicModel(0.0, 0.0, slope, -0.75 * PI, (0.0, 1023.0))
        r0, r1 = compute_valid_ranges(m0, m1, adc_max=1023, tracks=WHEEL_TRACKS)
        # Oracle: closed-form inversion of the affine map.
        expect0 = sorted(
            ((t - m0.c0) / m0.c1 for t in (5.0 * PI / 6.0 - TWO_PI, 2.0 * PI / 3.0))
        )
        expect1 = sorted(
            ((t - m1.c0) / m1.c1 for t in (-2.0 * PI / 3.0, -5.0 * PI / 6.0 + TWO_PI))
        )
        assert r0 == (math.floor(expect0[0]), math.ceil(expect0[1]))
        assert r1 == (math.floor(expect1[0]), math.ceil(expect1[1]))
        assert r0[0] < r0[1] and r1[0] < r1[1]

    def test_reference_upper_edge_residual(self):
        (_, v_max), _ = compute_valid_ranges(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, adc_max=1023, tracks=WHEEL_TRACKS)
        v = bisect_root(
            lambda x: cubic_value(5.0281e-9, -1.2255e-5, 1.7856e-2, -7.2750, x)
            - 2.0 * PI / 3.0,
            0.0,
            1023.0,
            tol=1e-12,
        )
        assert v_max == math.ceil(v)

    def test_adc_width_and_tracks_have_no_default(self):
        # A left-out ``tracks`` would silently take the reference wheel's gaps.
        with pytest.raises(TypeError, match="adc_max"):
            compute_valid_ranges(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, tracks=WHEEL_TRACKS)
        with pytest.raises(TypeError, match="tracks"):
            compute_valid_ranges(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, adc_max=1023)

    def test_degenerate_model_raises(self):
        shallow = CubicModel(0.0, 0.0, 0.001, -1.0, (0.0, 1023.0))
        wide = CubicModel(0.0, 0.0, TWO_PI * 0.96 / 1023.0, -0.75 * PI, (0.0, 1023.0))
        with pytest.raises(InversionError):
            compute_valid_ranges(shallow, wide, adc_max=1023, tracks=WHEEL_TRACKS)

    def test_noiseless_grid_voltages_fall_inside_truth_ranges(self):
        # The continuous (pre-quantization) voltage of every non-gap angle
        # must land strictly inside the wiper's valid range; quantization
        # can push boundary counts onto the outward-rounded edge, which the
        # strict test legitimately drops (the other wiper covers there).
        spec = reference_wheel_spec(noise_std=0.0)
        ranges = compute_valid_ranges(WHEEL_TRUTH_W0, WHEEL_TRUTH_W1, adc_max=1023, tracks=WHEEL_TRACKS)
        thetas = np.linspace(-PI, PI, 10_000, endpoint=True)[1:]
        for theta in thetas:
            for wiper, (v_min, v_max) in zip(spec.wipers, ranges):
                voltage = wiper_voltage(wiper, float(theta))
                if voltage is not None:
                    assert v_min < voltage < v_max


class TestFitReport:
    def test_noiseless_rms_is_tiny(self):
        spec = reference_wheel_spec(noise_std=0.0)
        ds = synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(2))
        pairs = trim_and_shift(ds)
        # Evaluate the generating truth itself: residual is pure quantization.
        report = fit_report(trim_and_shift(ds), (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1))
        grid = np.linspace(0.0, 1023.0, 2048)
        lsb = float(np.max(np.abs(WHEEL_TRUTH_W0.derivative(grid))))
        assert all(rms <= lsb for _, rms, _ in report)
        assert all(n == len(theta) for (n, _, _), (theta, _) in zip(report, pairs))

    def test_synthetic_fit_rms_is_near_machine_epsilon(self):
        rng = np.random.default_rng(9)
        v = rng.uniform(0.0, 1023.0, 500)
        theta = WHEEL_TRUTH_W0.evaluate(v)
        model = fit_cubic(theta, v)
        residual = theta - model.evaluate(v)
        assert float(np.sqrt(np.mean(residual**2))) < 1e-10

    def test_noise_rms_within_chi_square_bounds(self):
        rng = np.random.default_rng(10)
        v = rng.uniform(0.0, 1023.0, 1200)
        theta = WHEEL_TRUTH_W0.evaluate(v) + rng.normal(0.0, 0.01, v.size)
        model = fit_cubic(theta, v)
        residual = theta - model.evaluate(v)
        rms = float(np.sqrt(np.mean(residual**2)))
        assert 0.007 <= rms <= 0.013

    def test_one_model_per_wiper(self):
        pairs = trim_and_shift(synthesize_sweep_dataset(reference_wheel_spec(), 14.0, 50.0, np.random.default_rng(2)))
        with pytest.raises(SpecError, match="^2 wiper partitions but 1 models$"):
            fit_report(pairs, (WHEEL_TRUTH_W0,))

    def test_empty_partition_propagates(self):
        ds = wheel_dataset([(0.0, 0.75 * PI, 850, 100), (0.1, 0.8 * PI, 860, 120)])
        with pytest.raises(FitError):
            fit_report(trim_and_shift(ds), (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1))


class TestCalibratePipeline:
    def test_wheel_bundle_shape(self):
        spec = reference_wheel_spec()
        ds = synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(11))
        bundle = calibrate(ds)
        assert bundle.sensor_kind == "wheel"
        assert len(bundle.models) == 2
        assert len(bundle.valid_ranges) == 2
        assert len(bundle.report) == 2

    def test_round_trip_through_dict(self):
        from paintpot.characterize import bundle_from_dict, bundle_to_dict

        spec = reference_wheel_spec()
        ds = synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(11))
        bundle = replace(calibrate(ds), filter_params={"k": 0.2, "dt": 0.01, "q": 0.05})
        again = bundle_from_dict(bundle_to_dict(bundle))
        assert again.models == bundle.models
        assert again.valid_ranges == bundle.valid_ranges
        assert again.filter_params == bundle.filter_params

    @pytest.mark.parametrize("preset,keys,r", [
        ("wheel_reference", ("adc_max", "gap_w0", "gap_w1"), ("r0", "r1")),
        ("tilt_reference", ("adc_max", "angle_limit"), ("r",)),
    ], ids=["wheel", "tilt"])
    def test_bundle_with_every_key_its_readers_read_loads(self, preset, keys, r):
        spec = SENSOR_PRESETS[preset]()
        bundle = calibrate(synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(11)))
        data = {**characterize.bundle_to_dict(bundle, {"command": "calibrate"}),
                **{key: sensor_spec_to_dict(spec)[key] for key in keys}}
        data["filter"] = dict.fromkeys(("k", "dt", "q", "sigma0", *r), 0.5)
        again = characterize.bundle_from_dict(data)
        assert (again.models, again.filter_params) == (bundle.models, data["filter"])

    def test_bundle_wipers_are_all_gapped_or_none(self):
        (valid,) = compute_valid_ranges(WHEEL_TRUTH_W0, adc_max=1023, tracks=WHEEL_TRACKS[:1])
        with pytest.raises(SpecError, match="all ride gapped tracks, or none"):
            ModelBundle((WHEEL_TRACKS[0], None), (WHEEL_TRUTH_W0, TILT_TRUTH), (valid,), ())

    @pytest.mark.parametrize("index", (0, 1))
    @pytest.mark.parametrize("window", ((900, 800), (-1, 5), (5, 5)), ids=["reversed", "negative", "empty"])
    def test_bundle_refuses_a_window_naming_its_key(self, index, window):
        ranges = [(100, 900), (100, 900)]
        ranges[index] = window
        v_min, v_max = window
        message = rf"^valid_ranges\[{index}\] must have 0 <= v_min < v_max, got \({v_min}, {v_max}\)$"
        with pytest.raises(SpecError, match=message):
            ModelBundle(WHEEL_TRACKS, (WHEEL_TRUTH_W0, WHEEL_TRUTH_W1), tuple(ranges), ())

    @pytest.mark.parametrize("preset", sorted(SENSOR_PRESETS))
    def test_reference_bundle_writes_no_gaps(self, preset):
        ds = synthesize_sweep_dataset(SENSOR_PRESETS[preset](), 14.0, 50.0, np.random.default_rng(11))
        assert not [key for key in characterize.bundle_to_dict(calibrate(ds)) if key.startswith("gap")]

    def test_custom_gaps_survive_save_and_load(self, tmp_path):
        gaps = {"gap_w0": [1.5, 2.0], "gap_w1": [-2.9, -2.5]}
        spec = sensor_spec_from_dict({**sensor_spec_to_dict(reference_wheel_spec()), **gaps})
        bundle = calibrate(synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(11)))
        characterize.save_bundle(bundle, tmp_path / "bundle.json")
        data = json.loads((tmp_path / "bundle.json").read_text())
        assert {key: data[key] for key in data if key.startswith("gap")} == gaps
        again = characterize.load_bundle(tmp_path / "bundle.json")
        assert again.tracks == spec.tracks
        assert (again.models, again.valid_ranges) == (bundle.models, bundle.valid_ranges)


def stretched(model, adc_max):
    """``model``, a cubic on counts [0, 1023], stretched onto [0, adc_max]."""
    s = adc_max / 1023.0
    return CubicModel(model.c3 / s**3, model.c2 / s**2, model.c1 / s, model.c0, (0.0, float(adc_max)))


@st.composite
def calibratable_spec_files(draw):
    """A sensor spec file inside the accepted space whose sweeps calibrate: an
    ADC of 8 to 12 bits with the reference truths stretched onto its counts,
    some count noise, and a wheel's gaps (the reference's, or each placed and
    sized in a box that leaves its wiper half the counts) or a tilt's limit
    (one that sweeps half the counts)."""
    adc_max = draw(st.sampled_from((255, 511, 1023, 2047, 4095)))
    data = {"adc_max": adc_max, "noise_std": draw(st.floats(0.0, 3.0))}
    if draw(st.booleans()):
        data.update(kind="wheel", truth_w0=stretched(WHEEL_TRUTH_W0, adc_max).to_dict(),
                    truth_w1=stretched(WHEEL_TRUTH_W1, adc_max).to_dict())
        if draw(st.booleans()):
            lo0, lo1 = draw(st.floats(0.6, 2.4)), draw(st.floats(-2.9, -1.6))
            data.update(gap_w0=[lo0, lo0 + draw(st.floats(0.1, 0.6))], gap_w1=[lo1, lo1 + draw(st.floats(0.1, 0.6))])
    else:
        data.update(kind="tilt", truth=stretched(TILT_TRUTH, adc_max).to_dict(), angle_limit=draw(st.floats(1.3, 2.07)))
    return data


class TestRoundTrip:
    """A spec and a calibrated bundle read back from their dicts equal
    themselves, tuples and all, and a file saved, loaded and saved again
    holds the same text."""

    @settings(max_examples=30, deadline=None)
    @given(data=calibratable_spec_files(), seed=st.integers(0, 2**32 - 1))
    def test_spec_and_calibrated_bundle_survive_dicts_and_files(self, data, seed):
        spec = sensor_spec_from_dict(data)
        assert sensor_spec_from_dict(sensor_spec_to_dict(spec)) == spec
        bundle = calibrate(synthesize_sweep_dataset(spec, 14.0, 50.0, np.random.default_rng(seed)))
        rs = map(default_measurement_variance, bundle.models, bundle.report)
        params = {"k": 0.2, "dt": 0.01, "q": 0.05, "sigma0": 1e-4, **dict(zip(variance_keys(len(bundle.models)), rs))}
        for bundle in (bundle, replace(bundle, filter_params=params)):  # as calibrate, then the CLI, make it
            assert characterize.bundle_from_dict(characterize.bundle_to_dict(bundle)) == bundle
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "first.json", Path(tmp) / "second.json"
            characterize.save_bundle(bundle, first)
            characterize.save_bundle(characterize.load_bundle(first), second)
            assert second.read_text() == first.read_text()
            save_sensor_spec(spec, first)
            save_sensor_spec(sensor_spec_from_dict(read_json(first)), second)
            assert second.read_text() == first.read_text()
