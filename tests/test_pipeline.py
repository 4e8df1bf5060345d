"""The feature table: chunked extraction and the JSONL writer and reader."""

import json
import re
import tracemalloc
import weakref
from functools import partial
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import write_config
from texture_nilm import (
    DescriptorConfig,
    EventDetectorConfig,
    FusionStrategy,
    SynthConfig,
    cli,
    generate,
    pipeline,
)
from texture_nilm.fusion import fuse_rows
from texture_nilm.pipeline import FeatureTable, extract_records, load_records, records_to_jsonl

# the corpus conftest.write_config describes
CONFTEST_SYNTH = SynthConfig(
    classes=("square_wave", "staircase", "duty_cycled"),
    signals_per_class=4,
    signal_len=1024,
    noise_sigma=2.0,
    seed=7,
)


def jsonl_ref(table):
    """The dump as one json.dumps call per window writes it."""
    return "".join(
        json.dumps(
            {
                "label": label,
                "source_id": source,
                "onset_index": onset,
                "lbp": lbp.tolist(),
                "wld": wld.tolist(),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        + "\n"
        for label, source, onset, lbp, wld in zip(
            table.label, table.source_id, table.onset_index, table.lbp, table.wld
        )
    )


def test_chunk_size_does_not_change_the_dump(monkeypatch):
    signals = generate(CONFTEST_SYNTH)
    detector = EventDetectorConfig(window_len=16)
    dumps = []
    # one window per stack, three (the last stack is short), and the default
    for chunk in (16, 3 * 16, pipeline.CHUNK_SAMPLES):
        monkeypatch.setattr(pipeline, "CHUNK_SAMPLES", chunk)
        table = FeatureTable.joined(extract_records(signals, detector, DescriptorConfig()))
        dumps.append(records_to_jsonl(table))
    assert len(table) % 3 != 0
    assert table.lbp.shape == table.wld.shape == (len(table), 256)
    assert table.lbp.dtype == table.wld.dtype == np.uint8
    assert dumps[0] == dumps[1] == dumps[2] == jsonl_ref(table)


def test_extract_writes_the_dump_a_stack_at_a_time(tmp_path, monkeypatch):
    cfg = write_config(
        tmp_path / "c.json", detector={"delta_watts": 15.0, "steady_len": 5, "window_len": 16}
    )
    calls = []
    monkeypatch.setattr(cli, "records_to_jsonl", lambda t: calls.append(t) or records_to_jsonl(t))
    dumps = []
    # one window per stack, three (the last stack is short), and the default
    for chunk in (16, 3 * 16, pipeline.CHUNK_SAMPLES):
        monkeypatch.setattr(pipeline, "CHUNK_SAMPLES", chunk)
        calls.clear()
        assert cli.main(["extract", "--config", str(cfg)]) == 0
        assert max(len(t) for t in calls) <= chunk // 16
        table = FeatureTable.joined(calls)
        dumps.append((tmp_path / "out" / "features.jsonl").read_text())
        assert dumps[-1] == records_to_jsonl(table) == jsonl_ref(table)
    assert len(table) > 3 and len(table) % 3 != 0
    assert dumps[0] == dumps[1] == dumps[2]


def test_extraction_lets_go_of_each_signal_once_it_is_cut(monkeypatch):
    corpus = generate(CONFTEST_SYNTH)
    detector = EventDetectorConfig(window_len=16)
    expected = records_to_jsonl(
        FeatureTable.joined(extract_records(corpus, detector, DescriptorConfig()))
    )
    refs = [weakref.ref(s) for s in corpus]
    # handed over as an iterator, so neither this frame nor the call holds the list
    signals = iter(corpus)
    del corpus
    alive = []
    extract_one = pipeline._extract_one

    def spy(signal, detector):
        alive.append(sum(ref() is not None for ref in refs))
        return extract_one(signal, detector)

    monkeypatch.setattr(pipeline, "_extract_one", spy)
    stacks = extract_records(signals, detector, DescriptorConfig())
    n = len(refs)
    assert len(alive) == n
    # at the j-th cut, the j signals cut before it are gone
    assert [min(count, n - j) for j, count in enumerate(alive)] == alive
    assert all(ref() is None for ref in refs)
    assert records_to_jsonl(FeatureTable.joined(stacks)) == expected


def test_writer_matches_json_dumps_on_any_counts_and_strings(tmp_path):
    lbp = np.zeros((3, 256), dtype=np.int64)
    wld = np.ones((3, 256), dtype=np.int64)
    # the lookup holds strings for 0..768 (the table's 768 counts); 769 is past it
    lbp[0, :5] = 0, 7, 300, 768, 769
    lbp[1, 255] = 2**63 - 1
    wld[2, 10] = 10**12
    table = FeatureTable(
        ["kettle", 'café "x"', "kettle"],
        ["a/b", "s\n☃", "c"],
        [0, 5, 10**30],
        lbp,
        wld,
    )
    text = records_to_jsonl(table)
    assert text == jsonl_ref(table)
    dump = tmp_path / "features.jsonl"
    dump.write_text(text)
    assert records_to_jsonl(load_records(dump)) == text
    empty = np.zeros((0, 256), dtype=np.int64)
    assert records_to_jsonl(FeatureTable([], [], [], empty, empty)) == ""


STEP = pipeline.CHUNK_SAMPLES // 256


def decimal_widths(most):
    """Counts of every decimal width from 1 to ``most`` digits, up to the largest int64."""
    return st.integers(1, most).flatmap(
        lambda d: st.integers(0 if d == 1 else 10 ** (d - 1), min(10**d - 1, 2**63 - 1))
    )


# plain, quoted, escaped, control and non-ASCII characters
NAMES = st.one_of(
    st.sampled_from(["kettle", 'a "b"', "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f", "café ☃ 𝄞"]),
    st.text(max_size=6),
)


@st.composite
def feature_tables(
    draw,
    rows=st.sampled_from([0, 1, STEP - 1, STEP, STEP + 1]),
    names=NAMES,
    counts=decimal_widths(19),
    onsets=st.integers(0, 2**64),
):
    """Tables whose counts come from a few drawn values of any decimal width."""
    n = draw(rows)
    palette = np.array(draw(st.lists(counts, min_size=1, max_size=8)), dtype=np.int64)
    names = draw(st.lists(names, min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # mostly small counts, as extraction writes, among the drawn ones
    small = rng.integers(0, 40, (2, n, 256))
    lbp, wld = np.where(rng.random((2, n, 256)) < 0.1, rng.choice(palette, (2, n, 256)), small)
    pick = rng.integers(0, len(names), (2, n)).tolist()
    return FeatureTable(
        [names[i] for i in pick[0]],
        [names[i] for i in pick[1]],
        draw(st.lists(onsets, min_size=n, max_size=n)),
        lbp,
        wld,
    )


# tables the fast reader takes: escape-free ASCII strings, and onsets and
# counts of at most 18 digits
canonical_tables = partial(
    feature_tables,
    names=st.text(
        st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\'),
        max_size=6,
    ),
    counts=decimal_widths(18),
    onsets=st.integers(0, 10**18 - 1),
)


@settings(max_examples=40, deadline=None)
@given(feature_tables())
def test_writer_matches_json_dumps(table):
    assert records_to_jsonl(table) == jsonl_ref(table)


def table_rows(table, start, stop):
    """Rows ``start:stop`` of ``table`` as a table of their own."""
    columns = (table.label, table.source_id, table.onset_index, table.lbp, table.wld)
    return FeatureTable(*(column[start:stop] for column in columns))


@settings(max_examples=40, deadline=None)
@given(feature_tables(), st.data())
def test_writer_text_joins_over_any_split_of_the_rows(table, data):
    # cuts may repeat or fall at either end, so some slices may be empty
    cuts = data.draw(st.lists(st.integers(0, len(table)), max_size=6))
    bounds = [0, *sorted(cuts), len(table)]
    slices = [table_rows(table, a, b) for a, b in zip(bounds, bounds[1:])]
    assert "".join(map(records_to_jsonl, slices)) == records_to_jsonl(table)


def table_state(table):
    """Everything a FeatureTable holds, comparable with ==."""
    return (
        table.label,
        table.source_id,
        [(type(onset), onset) for onset in table.onset_index],
        *((bins.dtype, bins.shape, bins.tobytes()) for bins in (table.lbp, table.wld)),
    )


def read_outcome(path):
    """load_records and the per-line reader on one file: each table or error."""
    outcomes = []
    for read in (load_records, lambda p: pipeline._parse_lines(p, p.read_text())):
        try:
            outcomes.append(table_state(read(path)))
        except Exception as exc:  # the type and message are what is compared
            outcomes.append((type(exc), str(exc)))
    return outcomes


def first_count(key, text):
    """Replace the first count of the line's ``key`` histogram by ``text``."""
    return lambda line: re.sub(rf'"{key}":\[\d+', f'"{key}":[{text}', line, count=1)


# edits of one canonical line; json.loads still reads some of them
PERTURBATIONS = {
    "spaces": lambda line: json.dumps(json.loads(line), sort_keys=True),
    "key_order": lambda line: json.dumps(
        dict(reversed(json.loads(line).items())), separators=(",", ":")
    ),
    "u_escape": lambda line: line.replace('"label":"', '"label":"\\u00e9\\u0041', 1),
    "raw_non_ascii": lambda line: line.replace('"source_id":"', '"source_id":"é☃', 1),
    "float": first_count("lbp", "2.0"),
    "negative": first_count("wld", "-3"),
    "leading_zero": first_count("wld", "01"),
    "19_digits": first_count("lbp", "1000000000000000000"),
    "over_int64": first_count("wld", "9223372036854775808"),
    "255_counts": lambda line: re.sub(r'"lbp":\[\d+,', '"lbp":[', line, count=1),
    "257_counts": first_count("lbp", "0,0"),
    "no_counts": lambda line: re.sub(r'"wld":\[[0-9,]*\]', '"wld":[]', line),
    "empty_count": first_count("wld", ""),
    "empty_last_count": lambda line: re.sub(r'\d+\],"onset_index"', '],"onset_index"', line),
    "blank_line": lambda line: line + "\n  ",
    "crlf": lambda line: line + "\r",
    "trailing_junk": lambda line: line + "x",
    "two_records": lambda line: line + line,
    "true_onset": lambda line: re.sub(r'"onset_index":\d+', '"onset_index":true', line),
    "19_digit_onset": lambda line: re.sub(
        r'"onset_index":\d+', '"onset_index":1234567890123456789', line
    ),
    "leading_zero_onset": lambda line: re.sub(r'"onset_index":', '"onset_index":0', line),
}


@settings(max_examples=30, deadline=None)
@given(canonical_tables())
def test_reader_reads_canonical_dumps_as_the_per_line_reader_does(tmp_path_factory, table):
    path = tmp_path_factory.mktemp("dump") / "features.jsonl"
    path.write_text(records_to_jsonl(table))
    with mock.patch.object(pipeline.json, "loads", side_effect=AssertionError("slow path")):
        fast = table_state(load_records(path))
    assert fast == table_state(pipeline._parse_lines(path, path.read_text()))
    assert fast == table_state(table)


EDITS = sorted(PERTURBATIONS) + ["count_moved", "no_final_newline"]


def edited_dump(table, edit, data):
    """The table's dump with one line edited, or without its final newline."""
    lines = records_to_jsonl(table).splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    if edit == "count_moved":
        # 255 counts on one line and 257 on the next: 256 per line on average
        j = (i + 1) % len(lines)
        lines[i] = PERTURBATIONS["255_counts"](lines[i])
        lines[j] = PERTURBATIONS["257_counts"](lines[j])
    elif edit != "no_final_newline":
        lines[i] = PERTURBATIONS[edit](lines[i])
    return "\n".join(lines) + ("" if edit == "no_final_newline" else "\n")


@pytest.mark.parametrize("perturbation", EDITS)
@settings(max_examples=8, deadline=None)
@given(canonical_tables(rows=st.sampled_from([1, 2, STEP + 1])), st.data())
def test_reader_matches_the_per_line_reader_on_edited_dumps(
    tmp_path_factory, perturbation, table, data
):
    path = tmp_path_factory.mktemp("dump") / "features.jsonl"
    path.write_text(edited_dump(table, perturbation, data))
    fast, slow = read_outcome(path)
    assert fast == slow


@pytest.mark.parametrize("edit", EDITS)
@settings(max_examples=8, deadline=None)
@given(canonical_tables(rows=st.sampled_from([1, 2, STEP + 1])), st.data())
def test_fast_reader_takes_only_text_the_writer_writes(edit, table, data):
    text = edited_dump(table, edit, data)
    parsed = pipeline._parse_canonical(text)
    assert parsed is None or records_to_jsonl(parsed) == text


def test_per_line_reader_sizes_its_arrays_by_its_records(tmp_path):
    dump = tmp_path / "features.jsonl"
    dump.write_text("\n" * 100_000)
    tracemalloc.start()
    try:
        table = load_records(dump)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(table) == 0
    # two rows of 256 int64 counts per line would be 400 MB
    assert peak < 20 * 2**20


def test_canonical_dump_is_read_without_json_loads(monkeypatch, tmp_path):
    table = FeatureTable.joined(
        extract_records(
            generate(CONFTEST_SYNTH), EventDetectorConfig(window_len=16), DescriptorConfig()
        )
    )
    # stacks of 32 lines, so the dump is read in several
    monkeypatch.setattr(pipeline, "CHUNK_SAMPLES", 32 * 256)
    assert len(table) > 3 * 32
    dump = tmp_path / "features.jsonl"
    dump.write_text(records_to_jsonl(table))
    calls = []
    loads = json.loads
    monkeypatch.setattr(pipeline.json, "loads", lambda s: calls.append(s) or loads(s))
    assert table_state(load_records(dump)) == table_state(table)
    assert calls == []
    # the counter does see the per-line reader
    dump.write_text(records_to_jsonl(table).replace(",", ", ", 1))
    assert table_state(load_records(dump)) == table_state(table)
    assert len(calls) == len(table)


# counts on each side of each width's limit, by the dtype they are stored in
WIDTH_LIMITS = {
    255: np.uint8,
    256: np.uint16,
    65535: np.uint16,
    65536: np.uint32,
    2**32 - 1: np.uint32,
    2**32: np.int64,
    2**63 - 1: np.int64,
}


@st.composite
def int64_columns(draw):
    """Two int64 count columns whose largest counts lie on width limits.

    Some rows are all zero, so some fail to fuse.
    """
    n = draw(st.sampled_from([1, 2, STEP + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for top in draw(st.lists(st.sampled_from(sorted(WIDTH_LIMITS)), min_size=2, max_size=2)):
        counts = rng.integers(0, 40, (n, 256)) * (rng.random((n, 256)) < 0.3)
        counts[rng.random(n) < 0.1] = 0
        counts[rng.random((n, 256)) < 0.01] = top
        counts[rng.integers(0, n), rng.integers(0, 256)] = top
        columns.append(counts)
    return columns


def fuse_outcome(lbp, wld, strategy):
    try:
        return fuse_rows(lbp, wld, strategy).tobytes()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(int64_columns())
def test_narrowing_changes_no_value(columns):
    lbp, wld = columns
    labels, sources, onsets = ["c"] * len(lbp), ["s"] * len(lbp), list(range(len(lbp)))
    table = FeatureTable(labels, sources, onsets, lbp, wld)
    for wide, narrow in zip(columns, (table.lbp, table.wld)):
        assert narrow.dtype == WIDTH_LIMITS[int(wide.max())]
        assert np.array_equal(narrow, wide)
    wide = SimpleNamespace(label=labels, source_id=sources, onset_index=onsets, lbp=lbp, wld=wld)
    assert records_to_jsonl(table) == jsonl_ref(wide)
    for strategy in FusionStrategy:
        assert fuse_outcome(table.lbp, table.wld, strategy) == fuse_outcome(lbp, wld, strategy)


@pytest.mark.parametrize(
    "bins",
    [
        np.ones((2, 256)),
        np.full((2, 256), -1, dtype=np.int64),
        np.zeros((0, 256), dtype=np.int64),
        np.zeros((0, 256), dtype=np.uint16),
        np.full((2, 256), 2**32, dtype=np.int64),
        np.full((2, 256), 2**32, dtype=np.uint64),
    ],
    ids=["float", "negative", "empty", "empty_uint16", "2**32", "2**32_uint64"],
)
def test_narrow_keeps_what_it_cannot_narrow(bins):
    assert pipeline._narrow(bins) is bins
    assert FeatureTable([], [], [], bins, bins).lbp is bins


# a corpus of about 1,600 windows of 8x8 grids (36 interior cells)
DENSE_SYNTH = SynthConfig(
    classes=(
        "square_wave", "staircase", "spike_decay", "sinusoid", "constant_drift", "duty_cycled"
    ),
    signals_per_class=10,
    signal_len=4096,
    noise_sigma=3.0,
    seed=5,
)
DENSE_DETECTOR = EventDetectorConfig(window_len=64)


def traced_peak(call):
    """``call()``'s result and the peak of memory it allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extraction_keeps_one_byte_per_count():
    signals = generate(DENSE_SYNTH)
    table, peak = traced_peak(
        lambda: FeatureTable.joined(extract_records(signals, DENSE_DETECTOR, DescriptorConfig()))
    )
    assert len(table) > 1500
    assert table.lbp.nbytes + table.wld.nbytes == len(table) * 512
    # measured 3.8 MB; two int64 columns alone would take 6.6 MB, and building
    # them from int64 stacks peaked at 9.7 MB
    assert peak < 6 * 2**20


def test_canonical_dump_is_read_into_narrow_columns(tmp_path, monkeypatch):
    table = FeatureTable.joined(
        extract_records(generate(DENSE_SYNTH), DENSE_DETECTOR, DescriptorConfig())
    )
    dump = tmp_path / "features.jsonl"
    dump.write_text(records_to_jsonl(table))
    monkeypatch.setattr(pipeline.json, "loads", mock.Mock(side_effect=AssertionError("slow path")))
    loaded, peak = traced_peak(partial(load_records, dump))
    assert table_state(loaded) == table_state(table)
    # measured 4.0 MB, with the dump's 1.7 MB text; preallocated int64 columns
    # peaked at 9.2 MB
    assert peak < 6 * 2**20


def dense_config(tmp_path):
    """A config of the DENSE_SYNTH corpus four times over: 240 signals, 7.9 MB
    of samples, about 6,500 windows and a 6.9 MB dump."""
    synth = {
        "classes": list(DENSE_SYNTH.classes),
        "signals_per_class": 40,
        "signal_len": DENSE_SYNTH.signal_len,
        "noise_sigma": DENSE_SYNTH.noise_sigma,
        "seed": DENSE_SYNTH.seed,
    }
    return write_config(
        tmp_path / "c.json",
        detector={"window_len": DENSE_DETECTOR.window_len},
        io={"output": str(tmp_path / "out"), "synth": synth},
    )


def test_extract_holds_one_stack_of_the_dump(tmp_path):
    cfg = dense_config(tmp_path)
    code, peak = traced_peak(partial(cli.main, ["extract", "--config", str(cfg)]))
    assert code == 0
    # measured 13.8 MB while every signal lived until the last stack was
    # described (9.1 MB since); building the whole dump text and its join
    # peaked at 17.7 to 18.5 MB (on the 16,210 windows of dense-events:
    # 31.4 MB against 45.1 MB)
    assert peak < 15.5 * 2**20


def test_extract_frees_each_signal_once_it_is_cut(tmp_path):
    cfg = dense_config(tmp_path)
    code, peak = traced_peak(partial(cli.main, ["extract", "--config", str(cfg)]))
    assert code == 0
    # measured 9.1 MB; holding every signal until the last stack was described
    # peaked at 13.9 MB (on the 16,210 windows of dense-events: peak RSS 56 MB
    # against 71 MB)
    assert peak < 11.5 * 2**20
