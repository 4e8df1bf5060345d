import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fuse_one
from oracles import fuse_ref
from texture_nilm import DescriptorHistogram, FusionStrategy
from texture_nilm.classify import LabeledDataset
from texture_nilm.errors import DegenerateProduct, EmptyHistogram
from texture_nilm.fusion import fuse_rows
from texture_nilm.pipeline import WindowRecord, dataset_from_records


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


def per_record_dataset(records, strategy):
    """The dataset fused one record at a time by the frozen one-window fusion.

    DescriptorHistogram rejects a record's wrong-length, negative or
    non-finite bins before fuse_ref sees them.
    """
    strategy = FusionStrategy(strategy)
    vectors = []
    for r in records:
        lbp = DescriptorHistogram(r.lbp, "lbp").bins
        wld = DescriptorHistogram(r.wld, "wld").bins
        vectors.append(fuse_ref(lbp, wld, strategy))
    return LabeledDataset(np.vstack(vectors), [r.label for r in records], strategy)


def outcome(build, records, strategy):
    try:
        ds = build(records, strategy)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return ds.vectors.shape, ds.vectors.tobytes(), ds.labels, ds.strategy


def random_records(rng, count, dtype=np.int64):
    records = []
    for i in range(count):
        # sparse and dense rows, small and large counts
        density = rng.choice([0.02, 0.3, 1.0])
        scale = rng.choice([3, 1000, 10**9])
        lbp = rng.integers(0, scale, 256) * (rng.random(256) < density)
        wld = rng.integers(0, scale, 256) * (rng.random(256) < density)
        lbp[0] += 1
        wld[0] += 1
        records.append(
            WindowRecord(f"c{i % 3}", f"s{i}", i, lbp.astype(dtype), wld.astype(dtype))
        )
    return records


class TestBatchedDatasetFusion:
    """dataset_from_records fuses all records at once, bitwise per record."""

    @pytest.mark.parametrize("strategy", list(FusionStrategy))
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_matches_per_record_fuse(self, strategy, dtype):
        records = random_records(np.random.default_rng(23), 300, dtype)
        expected = outcome(per_record_dataset, records, strategy)
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
        records = random_records(np.random.default_rng(31), 8, np.float64)
        for index, (kind, how) in breakage.items():
            r = records[index]
            for name in ("lbp", "wld") if kind == "both" else (kind,):
                bins = getattr(r, name).copy()
                if how == "empty":
                    bins[:] = 0
                elif how == "negative":
                    bins[7] = -1
                elif how == "nan":
                    bins[7] = np.nan
                elif how == "short":
                    bins = bins[:100]
                else:  # lbp on even bins, wld on odd ones
                    bins[:] = 0
                    bins[0 if name == "lbp" else 1] = 4
                setattr(r, name, bins)
        expected = outcome(per_record_dataset, records, strategy)
        # disjoint supports only have no product; sum and concat still fuse
        disjoint_only = {how for _, how in breakage.values()} == {"disjoint"}
        if strategy is FusionStrategy.MULT or not disjoint_only:
            assert isinstance(expected[0], type)
        actual = outcome(dataset_from_records, records, strategy)
        if ("wld", "short") in breakage.values():
            # numpy rejects the ragged stack before fuse_rows sees a row;
            # load_records never returns such a record
            assert actual[0] is expected[0] is ValueError
        else:
            assert actual == expected

    def test_no_records(self):
        with pytest.raises(ValueError):
            dataset_from_records([], "sum")


def random_rows(rng, count):
    """Real-valued histogram rows, sparse and dense, across magnitudes."""
    scale = rng.choice([1e-3, 1.0, 1e6], size=(count, 1))
    density = rng.choice([0.02, 0.3, 1.0], size=(count, 1))
    rows = rng.random((count, 256)) * scale * (rng.random((count, 256)) < density)
    rows[:, 0] += scale[:, 0]
    return rows


class TestFuseRows:
    """fuse_rows against the frozen original one-window fusion."""

    @pytest.mark.parametrize("strategy", ["sum", "concat", "mult"])
    def test_rows_match_original_fuse(self, strategy):
        rng = np.random.default_rng(41)
        for lbp, wld in [
            (random_rows(rng, 200), random_rows(rng, 200)),
            (rng.integers(0, 10**9, (200, 256)), rng.integers(1, 9, (200, 256))),
        ]:
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
