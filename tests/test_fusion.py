import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fuse_one, traced_peak
from oracles import fuse_ref
from texture_nilm import DescriptorHistogram, FusionStrategy
from texture_nilm.classify import LabeledDataset
from texture_nilm.errors import DegenerateProduct, EmptyHistogram
from texture_nilm.fusion import fuse_rows
from texture_nilm.pipeline import FeatureTable, dataset_from_records


def random_hist_pair(rng):
    a = rng.integers(0, 50, size=256).astype(float)
    b = rng.integers(0, 50, size=256).astype(float)
    # guarantee non-empty and overlapping support
    a[0] += 1
    b[0] += 1
    return a, b


def spiked(bin_index, count=2.0):
    bins = np.zeros(256)
    bins[bin_index] = count
    return bins


class TestFuse:
    def test_sum_of_identical_histograms_is_the_normalized_histogram(self):
        rng = np.random.default_rng(7)
        bins = rng.integers(0, 40, size=256).astype(float)
        bins[5] += 1
        result = fuse_one(bins, bins, "sum")
        assert np.allclose(result, bins / bins.sum(), atol=1e-12)

    def test_concat_shape_and_order(self):
        a = spiked(3)
        b = spiked(9)
        result = fuse_one(a, b, FusionStrategy.CONCAT)
        assert result.shape == (512,)
        assert result.sum() == pytest.approx(1.0, abs=1e-9)
        # LBP half first, WLD half second
        assert result[3] == 0.5
        assert result[265] == 0.5
        flipped = fuse_one(b, a, FusionStrategy.CONCAT)
        assert not np.array_equal(result, flipped)

    def test_mult_by_uniform_factor_cancels(self):
        rng = np.random.default_rng(11)
        b = rng.integers(1, 40, size=256).astype(float)
        uniform = np.ones(256)
        result = fuse_one(uniform, b, "mult")
        assert np.allclose(result, b / b.sum(), atol=1e-12)

    def test_disjoint_single_support_sum(self):
        # normalize-add-renormalize puts 0.5 on each active bin
        result = fuse_one(spiked(0), spiked(1), "sum")
        assert result[0] == 0.5
        assert result[1] == 0.5
        assert result[2:].sum() == 0.0

    def test_degenerate_product(self):
        with pytest.raises(DegenerateProduct):
            fuse_one(spiked(0), spiked(1), "mult")

    def test_empty_histogram(self):
        with pytest.raises(EmptyHistogram):
            fuse_one(np.zeros(256), spiked(1), "sum")
        with pytest.raises(EmptyHistogram):
            fuse_one(spiked(1), np.zeros(256), "concat")

    @pytest.mark.parametrize("strategy", ["sum", "mult"])
    def test_commutativity_is_exact(self, strategy):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a, b = random_hist_pair(rng)
            assert np.array_equal(fuse_one(a, b, strategy), fuse_one(b, a, strategy))

    @pytest.mark.parametrize("strategy", ["sum", "concat", "mult"])
    def test_output_is_probability_vector(self, strategy):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = random_hist_pair(rng)
            v = fuse_one(a, b, strategy)
            assert v.min() >= 0.0
            assert abs(v.sum() - 1.0) <= 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 10**6),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.sampled_from(["sum", "concat", "mult"]),
    )
    def test_scale_invariance(self, seed, scale_a, scale_b, strategy):
        rng = np.random.default_rng(seed)
        a, b = random_hist_pair(rng)
        base = fuse_one(a, b, strategy)
        scaled = fuse_one(a * scale_a, b * scale_b, strategy)
        assert np.allclose(base, scaled, atol=1e-9)


def per_record_dataset(table, strategy):
    """The dataset fused one record at a time by the frozen one-window fusion.

    DescriptorHistogram rejects a record's wrong-length, negative or
    non-finite bins before fuse_ref sees them. A record that cannot be fused
    is named by its label, source id and onset.
    """
    strategy = FusionStrategy(strategy)
    vectors = []
    for i, (lbp, wld) in enumerate(zip(table.lbp, table.wld)):
        lbp = DescriptorHistogram(lbp).bins
        wld = DescriptorHistogram(wld).bins
        try:
            vectors.append(fuse_ref(lbp, wld, strategy))
        except (DegenerateProduct, EmptyHistogram) as exc:
            where = (
                f"label {table.label[i]!r}, source_id {table.source_id[i]!r}, "
                f"onset {table.onset_index[i]}"
            )
            raise type(exc)(f"{exc} ({where})") from None
    return LabeledDataset(np.vstack(vectors), table.label)


def outcome(build, records, strategy):
    try:
        ds = build(records, strategy)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return ds.vectors.shape, ds.vectors.tobytes(), ds.labels


def random_records(rng, count):
    lbps, wlds = [], []
    for i in range(count):
        # sparse and dense rows, small and large counts
        density = rng.choice([0.02, 0.3, 1.0])
        scale = rng.choice([3, 1000, 10**9])
        lbp = rng.integers(0, scale, 256) * (rng.random(256) < density)
        wld = rng.integers(0, scale, 256) * (rng.random(256) < density)
        lbp[0] += 1
        wld[0] += 1
        lbps.append(lbp)
        wlds.append(wld)
    return FeatureTable(
        [f"c{i % 3}" for i in range(count)],
        [f"s{i}" for i in range(count)],
        list(range(count)),
        np.array(lbps),
        np.array(wlds),
    )


def with_columns_as(table, dtype):
    """A copy of ``table`` whose count columns are cast to ``dtype``. A table
    holds only integer counts, so the cast columns are set on the built copy."""
    copy = dataclasses.replace(table)
    copy.lbp, copy.wld = table.lbp.astype(dtype), table.wld.astype(dtype)
    return copy


class TestBatchedDatasetFusion:
    """dataset_from_records fuses all records at once, bitwise per record."""

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_matches_per_record_fuse(self, strategy, dtype):
        # the table's narrowed counts fuse bitwise as the same counts in dtype do
        records = random_records(np.random.default_rng(23), 300)
        expected = outcome(per_record_dataset, with_columns_as(records, dtype), strategy)
        assert not isinstance(expected[0], type)
        assert outcome(dataset_from_records, records, strategy) == expected

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    @pytest.mark.parametrize(
        "breakage",
        [
            {2: ("wld", "empty"), 4: ("lbp", "empty")},
            {3: ("lbp", "empty"), 4: ("wld", "empty")},
            {3: ("both", "empty")},
            {1: ("wld", "negative"), 2: ("lbp", "empty")},
            {5: ("lbp", "nan")},
            {2: ("wld", "short")},
            {3: ("both", "disjoint")},
            # a product failure ahead of an empty row is the one reported
            {1: ("both", "disjoint"), 3: ("lbp", "empty")},
        ],
    )
    def test_first_failing_record_raises_fuse_error(self, strategy, breakage):
        records = with_columns_as(random_records(np.random.default_rng(31), 8), np.float64)
        for index, (kind, how) in breakage.items():
            for name in ("lbp", "wld") if kind == "both" else (kind,):
                bins = getattr(records, name)[index]
                if how == "empty":
                    bins[:] = 0
                elif how == "negative":
                    bins[7] = -1
                elif how == "nan":
                    bins[7] = np.nan
                elif how == "short":
                    # a column holds whole rows: one short row shortens them all
                    setattr(records, name, getattr(records, name)[:, :100])
                else:  # lbp on even bins, wld on odd ones
                    bins[:] = 0
                    bins[0 if name == "lbp" else 1] = 4
        expected = outcome(per_record_dataset, records, strategy)
        # disjoint supports only have no product; sum and concat still fuse
        disjoint_only = {how for _, how in breakage.values()} == {"disjoint"}
        if strategy is FusionStrategy.MULT or not disjoint_only:
            assert isinstance(expected[0], type)
        actual = outcome(dataset_from_records, records, strategy)
        if ("wld", "short") in breakage.values():
            # fuse_rows rejects the short column before it fuses a row;
            # load_records never returns such a table
            assert actual[0] is expected[0] is ValueError
        else:
            assert actual == expected

    def test_concat_allocates_little_beyond_its_matrix(self, sweep_records):
        ds, peak = traced_peak(partial(dataset_from_records, sweep_records, "concat"))
        assert ds.vectors.shape == (1050, 512)
        # measured 4.31 MiB for the 4.10 MiB matrix (1.05x); normalized
        # copies of both halves, joined and then divided, peaked at 12.39 MiB
        assert peak < 1.2 * ds.vectors.nbytes

    def test_no_records(self):
        empty = np.zeros((0, 256), dtype=np.int64)
        with pytest.raises(ValueError):
            dataset_from_records(FeatureTable([], [], [], empty, empty), "sum")


def random_rows(rng, count):
    """Real-valued histogram rows, sparse and dense, across magnitudes."""
    scale = rng.choice([1e-3, 1.0, 1e6], size=(count, 1))
    density = rng.choice([0.02, 0.3, 1.0], size=(count, 1))
    rows = rng.random((count, 256)) * scale * (rng.random((count, 256)) < density)
    rows[:, 0] += scale[:, 0]
    return rows


def count_rows(rng, count, dtype):
    """Sparse count rows of ``dtype``; every row counts bin 0."""
    top = min(np.iinfo(dtype).max, 2**54)
    rows = rng.integers(0, top, (count, 256), dtype=dtype, endpoint=True)
    rows *= rng.random((count, 256)) < 0.3
    rows[:, 0] = np.maximum(rows[:, 0], 1)
    return rows


class TestFuseRows:
    """fuse_rows against the frozen original one-window fusion."""

    @pytest.mark.parametrize("strategy", ["sum", "concat", "mult"])
    def test_rows_match_original_fuse(self, strategy):
        rng = np.random.default_rng(41)
        pairs = [
            (random_rows(rng, 200), random_rows(rng, 200)),
            (rng.integers(0, 10**9, (200, 256)), rng.integers(1, 9, (200, 256))),
        ]
        # the count dtypes a FeatureTable holds, each column narrowed on its
        # own, with counts up to the dtype's largest (int64: past 2**53)
        dtypes = [np.uint8, np.uint16, np.uint32, np.int64]
        pairs += [
            (count_rows(rng, 40, a), count_rows(rng, 40, b)) for a in dtypes for b in dtypes
        ]
        for lbp, wld in pairs:
            fused = fuse_rows(lbp, wld, strategy)
            for i in range(len(lbp)):
                expected = fuse_ref(lbp[i], wld[i], strategy).tobytes()
                assert fused[i].tobytes() == expected

    @pytest.mark.parametrize("kind", ["lbp", "wld"])
    def test_empty_row_names_its_descriptor(self, kind):
        rows = {"lbp": np.ones((3, 256)), "wld": np.ones((3, 256))}
        rows[kind][1] = 0
        with pytest.raises(EmptyHistogram, match=f"^{kind} histogram"):
            fuse_rows(rows["lbp"], rows["wld"], "sum")

    def test_disjoint_row_has_no_product(self):
        lbp, wld = np.ones((3, 256)), np.ones((3, 256))
        lbp[2, 1:] = 0
        wld[2, 0] = 0
        assert fuse_rows(lbp, wld, "sum").shape == (3, 256)
        with pytest.raises(DegenerateProduct):
            fuse_rows(lbp, wld, "mult")

    @pytest.mark.parametrize(
        "lbp",
        [
            -np.ones((2, 256)),
            np.full((2, 256), np.nan),
            np.ones((2, 255)),
            np.ones(256),
            np.ones((1, 256)),
            np.ones((3, 256)),
        ],
    )
    @pytest.mark.parametrize("strategy", ["sum", "concat", "mult"])
    def test_invalid_rows_rejected(self, lbp, strategy):
        with pytest.raises(ValueError):
            fuse_rows(lbp, np.ones((2, 256)), strategy)
