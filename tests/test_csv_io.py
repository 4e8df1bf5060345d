"""The vectorized CSV reader and writer against their frozen originals.

``load_csv_ref`` and ``write_corpus_ref`` in ``oracles.py`` are the row-by-row
code the fast paths replaced. Every file must load to a bitwise-equal signal
or fail with the same exception type and message, and every corpus must be
written byte for byte the same.
"""

import csv
import shutil
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from oracles import load_csv_ref, write_corpus_ref
from texture_nilm import PowerSignal, data, load_dataset, write_corpus
from texture_nilm.data import _load_csv, _read_numeric
from texture_nilm.errors import MalformedCsv

HEADER = "timestamp,power_w"


def outcome(load, path):
    try:
        s = load(path, "tv")
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return s.samples.dtype, s.samples.tobytes(), s.label, s.source_id


def assert_reader_parity(path, text):
    path.write_bytes(text.encode())
    assert outcome(_load_csv, path) == outcome(load_csv_ref, path)


@contextmanager
def block_chars(n):
    """Read the fast path's blocks n characters at a time (None: default)."""
    with mock.patch.object(data, "_BLOCK_CHARS", n or data._BLOCK_CHARS):
        yield


@contextmanager
def csv_field_limit(n):
    old = csv.field_size_limit(n)
    try:
        yield
    finally:
        csv.field_size_limit(old)


def fast_path_values(path):
    with open(path, newline="") as fh:
        return _read_numeric(fh)


BLOCKS = [None, 1, 3, 16]


# -- reader ---------------------------------------------------------------

NAMED_FILES = {
    "integer": "0,1\n1,2\n2,3\n",
    "float": "0.0,1.5\n0.5,2.25\n1.0,3.125\n",
    "exponent": "1e0,1.5e2\n2E0,-3e-5\n3.0e+0,4e300\n",
    "iso": "2021-03-01T00:00:00,10.0\n2021-03-01T00:00:01Z,11.0\n",
    "iso_mixed_with_numbers": "1614556800,1.0\n2021-03-01T00:00:01,2.0\n",
    "whitespace": " 0 , 1.0\n\t1\t,\t2.0 \n2 ,3\n",
    "underscore": "1_0,1_0.5\n2_0,2\n",
    "crlf": "0,1\r\n1,2\r\n",
    "lone_cr": "0,1\r1,2\r",
    "cr_inside_field": "0,\r1\n1,2\n",
    "quoted": '"0","1.5"\n1,"2"\n',
    "quoted_comma": '0,"1,5"\n1,2\n',
    "blank_line": "0,1\n\n1,2\n",
    "trailing_blank_line": "0,1\n1,2\n\n",
    "no_final_newline": "0,1\n1,2",
    "one_field": "0,1\n1\n",
    "three_fields": "0,1,2\n1,2\n",
    "balanced_fields": "0,1,2\n3\n",
    "balanced_three_rows": "0,1.0,2\n3\n4,5.0\n",
    "balanced_after_first_row": "0,1\n1,2,3\n4\n5,6\n",
    "empty_power": "0,\n1,2\n",
    "empty_timestamp": ",1\n1,2\n",
    "nan_power": "0,nan\n1,2\n",
    "inf_timestamp": "inf,1\n1,2\n",
    "overflowing_power": "0,1e400\n1,2\n",
    "non_monotone": "0,1\n2,2\n1,3\n",
    "repeated": "0,1\n0,2\n",
    "single_row": "0,1\n",
    "header_only": "",
    "hex_power": "0,0x10\n1,2\n",
    "unicode_digits": "١,1\n٢,2\n",
    "nul": "0,1\x00\n1,2\n",
    "form_feed": "0,1\x0c1,2\n",
}


def scale_stamps(text, factor):
    """``text`` with each data line's first field multiplied by ``factor``
    where it parses as a finite float; everything else is left as it is."""
    header, *lines = text.split("\n")
    for i, line in enumerate(lines):
        stamp, comma, rest = line.partition(",")
        try:
            value = float(stamp)
        except ValueError:
            continue
        if comma and np.isfinite(value):
            lines[i] = f"{value * factor!r},{rest}"
    return "\n".join([header, *lines])


@pytest.mark.parametrize("name", sorted(NAMED_FILES))
@pytest.mark.parametrize("stamp_scale", [None, 2.0])
@pytest.mark.parametrize("block", BLOCKS)
def test_named_files_match_reference(tmp_path, name, stamp_scale, block):
    path = tmp_path / "f.csv"
    text = HEADER + "\n" + NAMED_FILES[name]
    with block_chars(block):
        assert_reader_parity(path, text)
        if stamp_scale is None:
            return
        as_written = outcome(_load_csv, path)
        assert_reader_parity(path, scale_stamps(text, stamp_scale))
        # the timestamps only order the samples, so spreading them apart
        # loads the same signal or raises the same error; only the file
        # whose numeric stamp would pass its ISO one is exempt
        if name != "iso_mixed_with_numbers":
            assert outcome(_load_csv, path) == as_written


@pytest.mark.parametrize(
    "text",
    [
        "",
        "timestamp,power_w",
        "time,power\n0,1\n1,2\n",
        " timestamp , power_w \n0,1\n1,2\n",
        "timestamp,power_w,extra\n0,1\n1,2\n",
        "\ufefftimestamp,power_w\n0,1\n1,2\n",
        "timestamp,power_w\r\n0,1\r\n1,2\r\n",
    ],
)
def test_headers_match_reference(tmp_path, text):
    assert_reader_parity(tmp_path / "f.csv", text)


def number_text(x, style):
    if style == "int":
        return str(int(x))
    if style == "underscore" and x >= 10 and x == int(x):
        text = str(int(x))
        return text[:-1] + "_" + text[-1]
    if style == "exp":
        return f"{x:e}"
    if style == "padded":
        return f" {x!r}\t"
    return repr(x)


TIMESTAMP_STYLES = ["int", "repr", "exp", "underscore", "padded", "iso"]
POWERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda x: f"{x:e}"),
    st.integers(-(10**20), 10**20).map(str),
    st.sampled_from(["1_0", " 2.5", "3 "]),
)
ODD_POWERS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "nan", "-inf", '"7.5"', "1e400", "watts", "1,5", "0x1p3"]),
)


@st.composite
def csv_files(draw):
    n = draw(st.integers(0, 6))
    start = draw(st.sampled_from([0, 1, 10, 1_600_000_000]))
    step = draw(st.sampled_from([1, 2, 60, 0.5, 1 / 3, 1e-4]))
    style = draw(st.sampled_from(TIMESTAMP_STYLES))
    rows = []
    for i in range(n):
        t = start + i * step
        if style == "iso":
            stamp = f"2021-03-01T00:00:{int(t) % 60:02d}"
        else:
            stamp = number_text(float(t), style)
        rows.append([stamp, draw(POWERS)])
    if rows:
        row = draw(st.integers(0, len(rows) - 1))
        mutation = draw(
            st.sampled_from(
                [None, None, None, "repeat", "swap", "drop", "extra", "blank"]
                + ["nan", "quote", "power"]
            )
        )
        if mutation == "repeat":
            rows[row][0] = rows[0][0]
        elif mutation == "swap":
            rows[row], rows[0] = rows[0], rows[row]
        elif mutation == "drop":
            rows[row] = rows[row][:1]
        elif mutation == "extra":
            rows[row] = rows[row] + ["1"]
        elif mutation == "blank":
            rows[row] = []
        elif mutation == "nan":
            rows[row][0] = "nan"
        elif mutation == "quote":
            rows[row][1] = f'"{rows[row][1]}"'
        elif mutation == "power":
            rows[row][1] = draw(ODD_POWERS)
    newline = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = newline.join([HEADER] + [",".join(r) for r in rows])
    if draw(st.booleans()):
        text += newline
    return text


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(csv_files(), st.sampled_from(BLOCKS))
@example(HEADER + "\n0,1,2\n3\n", None)
@example(HEADER + "\n0,1.0,2\n3\n4,5.0\n", None)
@example(HEADER + "\n0,1.0,2\n3\n4,5.0\n", 3)
@example(HEADER + "\n0,1\n1,2,3\n4\n5,6\n", None)
@example(HEADER + "\n0,1\n", None)
def test_generated_files_match_reference(tmp_path, text, block):
    with block_chars(block):
        assert_reader_parity(tmp_path / "f.csv", text)


def long_body(rows=3000, bad_row=None, bad="0,1,2"):
    lines = [f"{i},{i * 0.37 + 1e-3!r}" for i in range(rows)]
    if bad_row is not None:
        lines[bad_row] = bad
    return HEADER + "\n" + "\n".join(lines) + "\n"


class TestBlocks:
    """Files longer than one block, read in blocks of whole lines."""

    @pytest.mark.parametrize("block", [None, 7, 64, 4096])
    def test_plain_file_takes_the_fast_path(self, tmp_path, block):
        path = tmp_path / "f.csv"
        with block_chars(block):
            assert_reader_parity(path, long_body())
            assert fast_path_values(path).shape == (3000, 2)

    @pytest.mark.parametrize("block", [None, 7, 64, 4096])
    @pytest.mark.parametrize("bad_row", [1, 1499, 2999])
    @pytest.mark.parametrize(
        "bad", ["0,1,2", "5", "", "2021-03-01T00:00:00,1", "7,nan", '7,"1"', "7,1\r"]
    )
    def test_bad_row_in_a_later_block_falls_back(self, tmp_path, block, bad_row, bad):
        path = tmp_path / "f.csv"
        with block_chars(block):
            assert_reader_parity(path, long_body(bad_row=bad_row, bad=bad))
            assert fast_path_values(path) is None

    def test_first_line_rejects_before_bulk_work(self, tmp_path):
        path = tmp_path / "iso.csv"
        first = "2021-03-01T00:00:00,1.0\n"
        body = "".join(f"2021-03-01T00:{i // 60:02d}:{i % 60:02d},1.0\n" for i in range(1, 3000))
        path.write_text(HEADER + "\n" + first + body)
        with open(path, newline="") as fh:
            assert _read_numeric(fh) is None
            # only the header and the first data line were read
            assert fh.tell() == len(HEADER) + 1 + len(first)
        assert_reader_parity(path, HEADER + "\n" + first + body)

    @pytest.mark.parametrize("block", [None, 4])
    @pytest.mark.parametrize("row", [1, 2, 40])
    def test_line_over_the_field_limit(self, tmp_path, block, row):
        path = tmp_path / "long.csv"
        lines = [f"{i},1" for i in range(60)]
        lines[row - 1] = f"{row},{'0' * 30}7"
        path.write_text(HEADER + "\n" + "\n".join(lines) + "\n")
        with csv_field_limit(10), block_chars(block):
            assert fast_path_values(path) is None
            with pytest.raises(MalformedCsv, match=f"line {row + 1}: field larger"):
                _load_csv(path, "tv")

    def test_long_line_stops_the_fast_path_early(self, tmp_path):
        path = tmp_path / "long.csv"
        head = HEADER + "\n0,1\n1,2\n2,"
        path.write_text(head + "0" * 5000 + "7\n3,4\n")
        with csv_field_limit(10), block_chars(4), open(path, newline="") as fh:
            assert _read_numeric(fh) is None
            # given up once the unfinished line was longer than any valid one
            assert fh.tell() < len(head) + 2 * 10 + 2 + 4

    @pytest.mark.parametrize("block", [None, 4])
    def test_fields_at_the_field_limit(self, tmp_path, block):
        lines = [f"{i:010d},{'0' * 9}7" for i in range(60)]
        path = tmp_path / "edge.csv"
        with csv_field_limit(10), block_chars(block):
            assert_reader_parity(path, HEADER + "\n" + "\n".join(lines))
            assert fast_path_values(path).shape == (60, 2)


class TestUnreadableInput:
    def test_field_over_the_csv_limit(self, tmp_path):
        path = tmp_path / "long.csv"
        # a finite number, so only the length check keeps it off the fast path
        path.write_text(HEADER + "\n0,1\n1," + "0" * 200_000 + "7\n")
        with pytest.raises(MalformedCsv, match=r"long\.csv: line 3: field larger"):
            _load_csv(path, "tv")

    def test_field_at_the_csv_limit_parses(self, tmp_path):
        digits = "0" * (csv.field_size_limit() - 1) + "7"
        path = tmp_path / "edge.csv"
        assert_reader_parity(path, f"{HEADER}\n0,1\n1,{digits}\n")
        assert _load_csv(path, "tv").samples.tolist() == [1.0, 7.0]

    @pytest.mark.parametrize("rows", [1, 200_000])
    def test_non_utf8_byte(self, tmp_path, rows):
        path = tmp_path / "bytes.csv"
        body = "".join(f"{i},1\n" for i in range(rows)).encode()
        path.write_bytes(HEADER.encode() + b"\n" + body + b"1e9,2\xff\n")
        with pytest.raises(MalformedCsv, match=r"bytes\.csv: not readable as text"):
            _load_csv(path, "tv")

    @pytest.mark.parametrize(
        "head", ["time,power\n0,1\n", HEADER + "\n0,1\n1,2,3\n", HEADER + "\n0,1\n1,watts\n"]
    )
    def test_row_error_ahead_of_a_non_utf8_byte(self, tmp_path, head):
        # the row parser decodes as it reads, so an error in the rows before
        # an undecodable byte further on is the one reported
        tail = "".join(f"{i},1\n" for i in range(2, 3000)).encode()
        path = tmp_path / "bytes.csv"
        path.write_bytes(head.encode() + tail + b"9999,2\xff\n")
        assert len(head.encode() + tail) > 8192
        expected = outcome(load_csv_ref, path)
        assert expected[0] is MalformedCsv
        assert outcome(_load_csv, path) == expected


# -- writer ---------------------------------------------------------------

MAGNITUDES = np.array(
    [1e-300, -0.0, 0.0, 5e-324, 1e300, 1.7976931348623157e308, 0.1, -2.5]
    + [123456789.123, 1e16, 1e-5, 3.0, 1 / 3, -1e-300]
)


def assert_writer_parity(tmp_path, signals):
    new_counts = write_corpus(signals, tmp_path / "new")
    ref_counts = write_corpus_ref(signals, tmp_path / "ref")
    assert new_counts == ref_counts
    new, ref = tmp_path / "new", tmp_path / "ref"
    files = sorted(p.relative_to(new) for p in new.rglob("*.csv"))
    assert files == sorted(p.relative_to(ref) for p in ref.rglob("*.csv"))
    for rel in files:
        assert (new / rel).read_bytes() == (ref / rel).read_bytes()


def test_writer_matches_reference(tmp_path):
    rng = np.random.default_rng(5)
    signals = [
        PowerSignal(MAGNITUDES, "mixed", "magnitudes"),
        PowerSignal(rng.normal(300.0, 50.0, 2000), "noise", "long"),
        PowerSignal([42.0], "noise", "single"),
    ]
    assert_writer_parity(tmp_path, signals)


@pytest.mark.parametrize("step", [2**50, 2**52 + 1])
@pytest.mark.parametrize("n", [2, 3, 4, 9])
def test_writer_near_the_exact_integer_limit(tmp_path, step, n):
    # power values i * step straddle 2**53, above which 3 * (2**52 + 1)
    # rounds to an even float, and 1e16, where repr turns to exponent form
    signal = PowerSignal(np.arange(1.0, n + 1) * step, "big", "step")
    assert_writer_parity(tmp_path, [signal])


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_generated_corpora_match_reference(tmp_path, values):
    for sub in ("new", "ref"):
        shutil.rmtree(tmp_path / sub, ignore_errors=True)
    assert_writer_parity(tmp_path, [PowerSignal(values, "gen", "rec")])


def test_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(17)
    originals = [
        PowerSignal(MAGNITUDES, "a_mixed", "magnitudes"),
        PowerSignal(rng.normal(0.0, 1e3, 500), "b_noise", "n500"),
    ]
    write_corpus(originals, tmp_path / "corpus")
    loaded = load_dataset(tmp_path / "corpus")
    assert len(loaded) == len(originals)
    for a, b in zip(loaded, originals):
        assert (a.label, a.source_id) == (b.label, b.source_id)
        assert a.samples.tobytes() == b.samples.tobytes()
