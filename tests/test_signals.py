import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import detect_events_ref, detect_onsets_ref, impute_ref
from texture_nilm import (
    EventDetectorConfig,
    EventWindow,
    PowerSignal,
    detect_events,
    impute_zeros,
)
from texture_nilm.errors import AllZeroSignal, InvalidConfig


def sig(values, label="dev", source="rec"):
    return PowerSignal(np.asarray(values, dtype=float), 1.0, label, source)


class TestPowerSignal:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            sig([])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sig([1.0, np.nan])

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            PowerSignal(np.ones(3), 0.0, "dev", "rec")

    def test_len(self):
        assert len(sig([1, 2, 3])) == 3


class TestImputeZeros:
    def test_mean_of_two_neighbors(self):
        assert impute_zeros(sig([5, 0, 7])).samples.tolist() == [5, 6, 7]

    def test_left_boundary_takes_right_neighbor(self):
        assert impute_zeros(sig([0, 4, 4])).samples.tolist() == [4, 4, 4]

    def test_right_boundary_takes_left_neighbor(self):
        assert impute_zeros(sig([4, 4, 0])).samples.tolist() == [4, 4, 4]

    def test_zero_run_sees_nearest_nonzero_on_both_sides(self):
        # both zeros see left=3 and right=9
        assert impute_zeros(sig([3, 0, 0, 9])).samples.tolist() == [3, 6, 6, 9]

    def test_all_zero_rejected(self):
        with pytest.raises(AllZeroSignal):
            impute_zeros(sig([0, 0, 0]))

    def test_no_zeros_is_identity(self):
        values = [3.5, 1.0, 9.25]
        repaired = impute_zeros(sig(values))
        assert repaired.samples.tolist() == values

    @given(
        st.lists(
            st.one_of(st.just(0), st.integers(min_value=1, max_value=1000)),
            min_size=1,
            max_size=60,
        ).filter(lambda v: any(x != 0 for x in v))
    )
    def test_matches_reference_and_is_idempotent(self, values):
        repaired = impute_zeros(sig(values))
        assert repaired.samples.tolist() == impute_ref(values)
        again = impute_zeros(repaired)
        assert np.array_equal(again.samples, repaired.samples)

    @given(
        st.lists(
            st.one_of(st.just(0), st.integers(min_value=1, max_value=1000)),
            min_size=1,
            max_size=60,
        ).filter(lambda v: any(x != 0 for x in v))
    )
    def test_preserves_nonzero_samples(self, values):
        repaired = impute_zeros(sig(values)).samples
        for i, v in enumerate(values):
            if v != 0:
                assert repaired[i] == v
            else:
                assert repaired[i] > 0


class TestEventWindow:
    def test_pad_count_bounds(self):
        with pytest.raises(ValueError):
            EventWindow(np.ones(4), 0, "dev", pad_count=4)
        with pytest.raises(ValueError):
            EventWindow(np.ones(4), 0, "dev", pad_count=-1)


class TestEventDetectorConfig:
    def test_defaults(self):
        cfg = EventDetectorConfig()
        assert (cfg.delta_watts, cfg.steady_len, cfg.window_len) == (15.0, 5, 1024)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta_watts": 0.0},
            {"delta_watts": -3.0},
            {"steady_len": 0},
            {"window_len": 8},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(InvalidConfig):
            EventDetectorConfig(**kwargs)


class TestDetectEvents:
    CFG = EventDetectorConfig(delta_watts=50.0, steady_len=4, window_len=16)

    def test_flat_signal_has_no_events(self):
        flat = sig([50.0] * 100)
        assert detect_events(flat, EventDetectorConfig(delta_watts=10.0)) == []

    def test_reversed_constant_signal_has_no_events(self):
        flat = sig(list(reversed([7.0] * 64)))
        assert detect_events(flat, self.CFG) == []

    def test_step_onset_is_localized_at_the_step(self):
        x = sig([1.0] * 40 + [200.0] * 60)
        windows = detect_events(x, self.CFG)
        assert [w.onset_index for w in windows] == [40]
        assert len(windows[0]) == 16
        assert windows[0].pad_count == 0
        assert windows[0].samples.tolist() == [200.0] * 16

    def test_two_steps_half_window_apart_yield_one_window(self):
        x = sig([1.0] * 40 + [200.0] * 8 + [400.0] * 112)
        windows = detect_events(x, self.CFG)
        assert [w.onset_index for w in windows] == [40]

    def test_suppression_boundary(self):
        # onsets exactly window_len apart: second one suppressed
        exact = sig([1.0] * 40 + [200.0] * 16 + [400.0] * 104)
        assert [w.onset_index for w in detect_events(exact, self.CFG)] == [40]
        # one sample farther: both kept
        apart = sig([1.0] * 40 + [200.0] * 17 + [400.0] * 103)
        assert [w.onset_index for w in detect_events(apart, self.CFG)] == [40, 57]

    def test_window_padding_replicates_last_sample(self):
        x = sig([1.0] * 40 + [200.0] * 10)
        (window,) = detect_events(x, self.CFG)
        assert window.onset_index == 40
        assert window.pad_count == 6
        assert len(window) == 16
        assert window.samples[10:].tolist() == [200.0] * 6

    def test_signal_shorter_than_two_steady_runs(self):
        assert detect_events(sig([1.0, 500.0]), self.CFG) == []

    def test_label_inherited(self):
        x = sig([1.0] * 40 + [200.0] * 60, label="kettle")
        assert detect_events(x, self.CFG)[0].label == "kettle"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_reference_on_random_signals(self, data):
        # integer samples and power-of-two steady_len keep both mean paths exact
        n = data.draw(st.integers(min_value=16, max_value=150))
        values = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=400),
                min_size=n,
                max_size=n,
            )
        )
        cfg = EventDetectorConfig(delta_watts=30.5, steady_len=4, window_len=16)
        signal = sig([v or 1 for v in values])
        got = detect_events(signal, cfg)
        expected = detect_onsets_ref(signal.samples.tolist(), 30.5, 4, 16)
        assert [w.onset_index for w in got] == expected
        for w in got:
            assert len(w) == cfg.window_len


@st.composite
def stepped_signals(draw):
    """Piecewise-constant signals, with or without noise, and a detector."""
    w = draw(st.sampled_from([1, 2, 3, 4, 5]))
    length = draw(st.integers(min_value=9, max_value=24))
    delta = draw(st.sampled_from([0.5, 15.0, 30.5]))
    segments = draw(
        st.lists(
            st.tuples(st.integers(1, 400), st.integers(1, length + 2)), min_size=1, max_size=10
        )
    )
    levels, runs = zip(*segments)
    values = np.repeat(np.array(levels, dtype=np.float64), runs)
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**32 - 1))
        values += np.random.default_rng(seed).normal(0.0, 3.0, values.size)
        values[values == 0.0] = 1.0
    return values.tolist(), EventDetectorConfig(delta, w, length)


def two_steps(gap, length=16):
    """Steps at 40 and 40 + gap; the second is kept only if gap > length."""
    values = [1.0] * 40 + [200.0] * gap + [400.0] * (length + 8)
    return values, EventDetectorConfig(50.0, 4, length)


class TestDetectEventsParity:
    """detect_events against the frozen per-run, per-window original."""

    @settings(max_examples=300, deadline=None)
    @given(stepped_signals())
    # a two-sample spike: equal scores on a plateau inside one run
    @example(([1.0] * 8 + [101.0] * 2 + [1.0] * 8, EventDetectorConfig(20.0, 4, 16)))
    # hot runs at the first and at the last scored index
    @example(([300.0] + [1.0] * 20, EventDetectorConfig(20.0, 4, 16)))
    @example(([1.0] * 4 + [200.0] * 20, EventDetectorConfig(20.0, 4, 16)))
    @example(([1.0] * 20 + [200.0] * 4, EventDetectorConfig(20.0, 4, 16)))
    @example(([1.0] * 20 + [300.0], EventDetectorConfig(20.0, 4, 16)))
    # fewer than 2 * steady_len samples, and fewer than window_len
    @example(([1.0, 500.0, 1.0], EventDetectorConfig(20.0, 4, 16)))
    @example(([1.0] * 6 + [300.0] * 4, EventDetectorConfig(20.0, 2, 16)))
    # back-to-back steps exactly window_len and window_len + 1 apart
    @example(two_steps(16))
    @example(two_steps(17))
    def test_matches_frozen_detector(self, case):
        values, cfg = case
        signal = sig(values, label="kettle")
        got = detect_events(signal, cfg)
        expected = detect_events_ref(signal, cfg)
        assert [(w.onset_index, w.pad_count, w.label) for w in got] == [
            (w.onset_index, w.pad_count, w.label) for w in expected
        ]
        assert [w.samples.tobytes() for w in got] == [w.samples.tobytes() for w in expected]
