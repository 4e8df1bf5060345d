"""The feature table: chunked extraction and the JSONL writer and reader."""

import json

import numpy as np

from texture_nilm import DescriptorConfig, EventDetectorConfig, SynthConfig, generate, pipeline
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
        table = extract_records(signals, detector, DescriptorConfig())
        dumps.append(records_to_jsonl(table))
    assert len(table) % 3 != 0
    assert table.lbp.shape == table.wld.shape == (len(table), 256)
    assert table.lbp.dtype == table.wld.dtype == np.int64
    assert dumps[0] == dumps[1] == dumps[2] == jsonl_ref(table)


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
