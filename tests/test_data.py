import dataclasses
import re

import numpy as np
import pytest

from texture_nilm import (
    ARCHETYPES,
    EventDetectorConfig,
    SynthConfig,
    detect_events,
    generate,
    impute_zeros,
    load_dataset,
    write_corpus,
)
from texture_nilm.data import _ARCHETYPE_FUNCS
from texture_nilm.errors import (
    EmptyDataset,
    InvalidConfig,
    MalformedCsv,
    NonMonotoneTimestamps,
)


def write_recording(path, rows, header="timestamp,power_w"):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([header] + rows) + "\n")


class TestLoadDataset:
    def test_labels_and_ordering(self, tmp_path):
        for label in ("kettle", "fridge"):
            for i in range(3):
                write_recording(
                    tmp_path / label / f"rec_{i}.csv",
                    [f"{t},{100.0 + t}" for t in range(5)],
                )
        signals = load_dataset(tmp_path)
        assert len(signals) == 6
        assert [s.label for s in signals] == ["fridge"] * 3 + ["kettle"] * 3
        assert [s.source_id for s in signals[:3]] == ["rec_0", "rec_1", "rec_2"]

    def test_recordings_come_in_source_id_order(self, tmp_path):
        # by file name "a-b.csv" would come before "a.csv", and "x-y.csv"
        # before "x.csv"; by stem "a" comes before "a-b", and "x" before "x-y"
        for name in ("a-b", "a", "x_y", "x-y", "x"):
            write_recording(tmp_path / "tv" / f"{name}.csv", [f"{t},50.0" for t in range(3)])
        write_recording(tmp_path / "tv-b" / "a.csv", [f"{t},50.0" for t in range(3)])
        keys = [(s.label, s.source_id) for s in load_dataset(tmp_path)]
        assert keys == sorted(keys)
        assert [source for _, source in keys] == ["a", "a-b", "x", "x-y", "x_y", "a"]

    def test_iso_timestamps(self, tmp_path):
        rows = [
            "2021-03-01T00:00:00,10.0",
            "2021-03-01T00:00:01,11.0",
            "2021-03-01T00:00:02,12.0",
        ]
        write_recording(tmp_path / "tv" / "iso.csv", rows)
        (signal,) = load_dataset(tmp_path)
        assert signal.samples.tolist() == [10.0, 11.0, 12.0]

    def test_header_only_file_is_malformed(self, tmp_path):
        write_recording(tmp_path / "tv" / "empty.csv", [])
        with pytest.raises(MalformedCsv, match=r"empty\.csv: 0 data rows; at least 1 required"):
            load_dataset(tmp_path)

    def test_wrong_header(self, tmp_path):
        write_recording(tmp_path / "tv" / "bad.csv", ["0,1"], header="time,watts")
        with pytest.raises(MalformedCsv, match="bad.csv"):
            load_dataset(tmp_path)

    def test_wrong_field_count(self, tmp_path):
        write_recording(tmp_path / "tv" / "bad.csv", ["0,1.0,extra", "1,2.0"])
        with pytest.raises(MalformedCsv, match="line 2"):
            load_dataset(tmp_path)

    def test_unparseable_power(self, tmp_path):
        write_recording(tmp_path / "tv" / "bad.csv", ["0,watts", "1,2.0"])
        with pytest.raises(MalformedCsv, match="bad.csv"):
            load_dataset(tmp_path)

    def test_unparseable_timestamp(self, tmp_path):
        write_recording(tmp_path / "tv" / "bad.csv", ["noon,1.0", "1,2.0"])
        with pytest.raises(MalformedCsv, match="bad.csv"):
            load_dataset(tmp_path)

    def test_non_finite_values_rejected(self, tmp_path):
        write_recording(tmp_path / "tv" / "bad.csv", ["0,nan", "1,2.0"])
        with pytest.raises(MalformedCsv, match="non-finite"):
            load_dataset(tmp_path)
        write_recording(tmp_path / "tv" / "bad.csv", ["inf,1.0", "1,2.0"])
        with pytest.raises(MalformedCsv, match="non-finite"):
            load_dataset(tmp_path)

    def test_non_monotone_timestamps(self, tmp_path):
        write_recording(tmp_path / "tv" / "mono.csv", ["0,1.0", "2,2.0", "1,3.0"])
        with pytest.raises(NonMonotoneTimestamps, match="mono.csv"):
            load_dataset(tmp_path)

    def test_repeated_timestamps_rejected(self, tmp_path):
        write_recording(tmp_path / "tv" / "dup.csv", ["0,1.0", "0,2.0"])
        with pytest.raises(NonMonotoneTimestamps):
            load_dataset(tmp_path)

    def test_one_row_loads_as_one_sample(self, tmp_path):
        write_recording(tmp_path / "tv" / "one.csv", ["1600000000,7.5"])
        (signal,) = load_dataset(tmp_path)
        assert signal.samples.tolist() == [7.5]
        assert (signal.label, signal.source_id) == ("tv", "one")

    @pytest.mark.parametrize("after, windows", [(900.0, [200]), (100.0, [])])
    def test_a_gap_in_the_timestamps_is_not_seen(self, tmp_path, after, windows):
        # 200 rows at 100 W, six hours with no row, then 200 rows at `after`
        start = 1_600_000_000
        rows = [f"{start + t},100.0" for t in range(200)]
        rows += [f"{start + 6 * 3600 + t},{after}" for t in range(200)]
        write_recording(tmp_path / "tv" / "gap.csv", rows)
        (signal,) = load_dataset(tmp_path)
        assert signal.samples.tolist() == [100.0] * 200 + [after] * 200
        # the samples are contiguous, so a level change across the gap is
        # an event like any other
        cfg = EventDetectorConfig(window_len=64)
        assert [w.onset_index for w in detect_events(signal, cfg)] == windows

    def test_empty_dataset(self, tmp_path):
        with pytest.raises(EmptyDataset):
            load_dataset(tmp_path / "missing")
        (tmp_path / "real").mkdir()
        with pytest.raises(EmptyDataset):
            load_dataset(tmp_path / "real")


class TestSynthConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"classes": ("square_wave",)},
            {"classes": ("square_wave", "nope")},
            {"classes": ("square_wave", "square_wave")},
            {"signals_per_class": 0},
            {"signal_len": 8},
            {"noise_sigma": -1.0},
            {"seed": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfig):
            SynthConfig(**kwargs)


class TestGenerate:
    CFG = SynthConfig(signals_per_class=3, signal_len=2048, noise_sigma=3.0, seed=99)
    LARGE = SynthConfig(
        classes=("staircase", "duty_cycled"), signals_per_class=1001, signal_len=16, seed=3
    )

    def test_deterministic_in_seed(self):
        first = generate(self.CFG)
        second = generate(self.CFG)
        assert len(first) == len(second) == 6 * 3
        for a, b in zip(first, second):
            assert a.label == b.label
            assert a.source_id == b.source_id
            assert np.array_equal(a.samples, b.samples)

    def test_signals_come_in_label_and_source_id_order(self):
        # classes out of order, and 1,001 signals a class: every id takes 4
        # digits, so the sorted order is still each class in index order
        signals = generate(self.LARGE)
        keys = [(s.label, s.source_id) for s in signals]
        assert keys == sorted(keys)
        assert keys[:2] == [("duty_cycled", "duty_cycled_0000"), ("duty_cycled", "duty_cycled_0001")]
        assert keys[1000:1002] == [("duty_cycled", "duty_cycled_1000"), ("staircase", "staircase_0000")]
        assert keys[-1] == ("staircase", "staircase_1000")
        assert [(s.label, s.source_id) for s in generate(self.CFG)] == sorted(
            (label, f"{label}_{j:03d}") for label in self.CFG.classes for j in range(3)
        )

    def test_a_part_is_that_slice_of_the_corpus(self):
        whole = generate(self.CFG)
        parts = [generate(self.CFG, slice(i, i + 1)) for i in range(len(whole))]
        parts.append(generate(self.CFG, slice(4, 11, 3)))
        expected_parts = [whole[i : i + 1] for i in range(len(whole))] + [whole[4:11:3]]
        # 1,001 signals a class, parts on each side of the class boundary
        large_whole = generate(self.LARGE)
        for cut in (slice(0, 1), slice(999, 1003), slice(2001, 2002), slice(5, None, 7)):
            parts.append(generate(self.LARGE, cut))
            expected_parts.append(large_whole[cut])
        for part, expected in zip(parts, expected_parts):
            assert [(s.label, s.source_id) for s in part] == [(s.label, s.source_id) for s in expected]
            assert all(np.array_equal(a.samples, b.samples) for a, b in zip(part, expected))

    def test_each_signal_draws_from_its_spawned_child(self):
        for cfg in (self.CFG, self.LARGE):
            n = cfg.signals_per_class
            children = np.random.SeedSequence(cfg.seed).spawn(len(cfg.classes) * n)
            for signal in generate(cfg):
                i = cfg.classes.index(signal.label) * n + int(signal.source_id.rpartition("_")[2])
                rng = np.random.default_rng(children[i])
                samples = _ARCHETYPE_FUNCS[signal.label](rng, cfg.signal_len, cfg.noise_sigma)
                assert np.array_equal(signal.samples, samples)

    def test_different_seeds_differ(self):
        other = generate(dataclasses.replace(self.CFG, seed=100))
        assert not np.array_equal(generate(self.CFG)[0].samples, other[0].samples)

    def test_square_wave_without_noise_is_exactly_two_level(self):
        cfg = SynthConfig(
            classes=("square_wave", "staircase"),
            signals_per_class=2,
            signal_len=1024,
            noise_sigma=0.0,
            seed=1,
        )
        for signal in generate(cfg):
            if signal.label != "square_wave":
                continue
            assert len(np.unique(signal.samples)) == 2

    def test_every_signal_yields_at_least_one_event(self):
        detector = EventDetectorConfig()
        for signal in generate(self.CFG):
            repaired = impute_zeros(signal)
            assert len(detect_events(repaired, detector)) >= 1, signal.source_id

    def test_zeros_only_in_duty_cycled(self):
        for signal in generate(self.CFG):
            has_zeros = bool(np.any(signal.samples == 0.0))
            if signal.label == "duty_cycled":
                assert has_zeros
            else:
                assert not has_zeros

    def test_non_dropout_classes_survive_repair_unchanged(self):
        for signal in generate(self.CFG):
            repaired = impute_zeros(signal)
            if signal.label == "duty_cycled":
                zeros = signal.samples == 0.0
                assert np.array_equal(repaired.samples[~zeros], signal.samples[~zeros])
                assert np.all(repaired.samples > 0.0)
            else:
                assert np.array_equal(repaired.samples, signal.samples)

    def test_labels(self):
        signals = generate(self.CFG)
        assert {s.label for s in signals} == set(ARCHETYPES)


class TestWriteCorpus:
    def test_round_trip_is_exact(self, tmp_path):
        cfg = SynthConfig(
            classes=("square_wave", "duty_cycled"),
            signals_per_class=2,
            signal_len=512,
            noise_sigma=2.0,
            seed=3,
        )
        generated = sorted(generate(cfg), key=lambda s: (s.label, s.source_id))
        counts = write_corpus(generated, tmp_path / "corpus")
        assert counts == {"square_wave": 2, "duty_cycled": 2}
        loaded = load_dataset(tmp_path / "corpus")
        assert len(loaded) == len(generated)
        for a, b in zip(loaded, generated):
            assert a.label == b.label
            assert a.source_id == b.source_id
            assert np.array_equal(a.samples, b.samples)

    @pytest.mark.parametrize("field", ["label", "source_id"])
    @pytest.mark.parametrize("name", ["", ".", "..", "a/b", "/abs"])
    def test_a_name_that_is_not_one_path_component_is_refused(self, tmp_path, field, name):
        signal = generate(SynthConfig(classes=("square_wave", "staircase"), signals_per_class=1))[0]
        good = dataclasses.replace(signal, source_id="ok")
        bad = dataclasses.replace(signal, **{field: name})
        root = tmp_path / "corpus"
        with pytest.raises(ValueError, match=re.escape(f"{name!r} is not a single path component")):
            write_corpus([good, bad], root)
        assert not root.exists()
