import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import knn_predict_exact_ref, knn_predict_ref
from texture_nilm import (
    KnnConfig,
    LabeledDataset,
    Metric,
    VoteWeighting,
    classify,
    predict,
    predict_batch,
)
from texture_nilm.errors import (
    DimensionMismatch,
    EmptyTrainingSet,
    InvalidConfig,
    NonFiniteDistance,
)

FIVE_POINTS = LabeledDataset(
    np.array([[0.0, 0.0], [1.0, 0.0], [4.0, 0.0], [5.0, 0.0], [0.5, 3.0]]),
    ["A", "A", "B", "B", "A"],
)
QUERY = np.array([3.0, 0.0])


def uniform_feature():
    return np.full(256, 1 / 256)


class TestKnnConfig:
    def test_rejects_k_below_one(self):
        with pytest.raises(InvalidConfig):
            KnnConfig(k=0)

    def test_k1_forces_uniform_weighting(self):
        cfg = KnnConfig(k=1, weighting="inverse_distance")
        assert cfg.weighting is VoteWeighting.UNIFORM

    def test_string_coercion(self):
        cfg = KnnConfig(k=10, metric="cosine", weighting="inverse_distance")
        assert cfg.metric is Metric.COSINE
        assert cfg.weighting is VoteWeighting.INVERSE_DISTANCE


class TestLabeledDataset:
    def test_label_count_must_match(self):
        with pytest.raises(ValueError):
            LabeledDataset(np.zeros((3, 4)), ["a", "b"])



class TestPredict:
    def test_exact_match_wins_at_k1(self):
        for i, vec in enumerate(FIVE_POINTS.vectors):
            assert predict(FIVE_POINTS, vec, KnnConfig(k=1)) == FIVE_POINTS.labels[i]

    def test_equidistant_classes_fall_back_to_smaller_label(self):
        train = LabeledDataset(np.array([[0.0], [2.0]]), ["A", "B"])
        assert predict(train, np.array([1.0]), KnnConfig(k=1)) == "A"

    def test_neighbor_tie_at_kth_distance_uses_training_order(self):
        # same geometry, B stored first: the index rule picks B
        train = LabeledDataset(np.array([[0.0], [2.0]]), ["B", "A"])
        assert predict(train, np.array([1.0]), KnnConfig(k=1)) == "B"

    def test_five_point_fixture(self):
        # hand-computed distances to (3,0): [3, 2, 1, 2, 3.905...]
        assert predict(FIVE_POINTS, QUERY, KnnConfig(k=1)) == "B"
        # k=2 -> {B@1, A@2 via index tie-break} -> vote tie -> "A"
        assert predict(FIVE_POINTS, QUERY, KnnConfig(k=2)) == "A"
        # k=3 -> B, A, B -> majority "B"
        assert predict(FIVE_POINTS, QUERY, KnnConfig(k=3)) == "B"

    def test_inverse_distance_weighting_flips_majority(self):
        train = LabeledDataset(
            np.array([[0.1], [10.0], [-10.0]]), ["near", "far", "far"]
        )
        query = np.array([0.0])
        uniform = KnnConfig(k=3, weighting="uniform")
        weighted = KnnConfig(k=3, weighting="inverse_distance")
        assert predict(train, query, uniform) == "far"
        assert predict(train, query, weighted) == "near"

    def test_k_larger_than_training_set_is_capped(self):
        train = LabeledDataset(np.array([[0.0], [1.0]]), ["a", "b"])
        assert predict(train, np.array([0.2]), KnnConfig(k=50)) == "a"

    def test_accepts_feature_vectors(self):
        fv = uniform_feature()
        train = LabeledDataset(np.vstack([fv, fv]), ["x", "y"])
        assert train.class_set == ["x", "y"]
        assert len(train) == 2
        assert predict(train, fv, KnnConfig(k=1)) == "x"

    def test_empty_training_set(self):
        empty = LabeledDataset(np.zeros((0, 4)), [])
        with pytest.raises(EmptyTrainingSet):
            predict(empty, np.zeros(4), KnnConfig())

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            predict(FIVE_POINTS, np.zeros(3), KnnConfig())

    def test_cosine_rejects_zero_norm(self):
        train = LabeledDataset(np.array([[1.0, 0.0]]), ["a"])
        with pytest.raises(ValueError):
            predict(train, np.zeros(2), KnnConfig(k=1, metric="cosine"))

    def test_deterministic_across_repeated_calls(self):
        rng = np.random.default_rng(17)
        train = LabeledDataset(rng.normal(size=(40, 8)), [f"c{i % 4}" for i in range(40)])
        query = rng.normal(size=8)
        cfg = KnnConfig(k=5, weighting="inverse_distance")
        results = {predict(train, query, cfg) for _ in range(10)}
        assert len(results) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(-20, 20))
    def test_cosine_invariant_under_power_of_two_query_scaling(self, seed, exponent):
        rng = np.random.default_rng(seed)
        train = LabeledDataset(
            rng.uniform(0.1, 1.0, size=(20, 6)), [f"c{i % 3}" for i in range(20)]
        )
        query = rng.uniform(0.1, 1.0, size=6)
        cfg = KnnConfig(k=3, metric="cosine")
        base = predict(train, query, cfg)
        assert predict(train, query * 2.0**exponent, cfg) == base

    def test_cosine_invariant_under_arbitrary_positive_scaling(self):
        rng = np.random.default_rng(23)
        train = LabeledDataset(
            rng.uniform(0.1, 1.0, size=(30, 6)), [f"c{i % 3}" for i in range(30)]
        )
        cfg = KnnConfig(k=3, metric="cosine")
        for _ in range(20):
            query = rng.uniform(0.1, 1.0, size=6)
            base = predict(train, query, cfg)
            for factor in (1e-3, 0.037, 12.9, 1e3):
                assert predict(train, query * factor, cfg) == base

    def test_removing_the_winning_class_changes_the_prediction(self):
        rng = np.random.default_rng(31)
        train = LabeledDataset(
            rng.normal(size=(30, 5)), [f"c{i % 3}" for i in range(30)]
        )
        query = rng.normal(size=5)
        cfg = KnnConfig(k=3)
        winner = predict(train, query, cfg)
        keep = [i for i, label in enumerate(train.labels) if label != winner]
        reduced = LabeledDataset(
            train.vectors[keep], [train.labels[i] for i in keep]
        )
        assert predict(reduced, query, cfg) != winner

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 7), st.sampled_from(["euclidean", "cosine"]))
    def test_matches_reference(self, seed, k, metric):
        rng = np.random.default_rng(seed)
        vectors = rng.uniform(0.1, 1.0, size=(15, 4))
        labels = [f"c{i % 3}" for i in range(15)]
        query = rng.uniform(0.1, 1.0, size=4)
        train = LabeledDataset(vectors, labels)
        got = predict(train, query, KnnConfig(k=k, metric=metric))
        expected = knn_predict_ref(vectors.tolist(), labels, query.tolist(), k, metric)
        assert got == expected


class TestPredictBatch:
    def test_empty_queries(self):
        assert predict_batch(FIVE_POINTS, [], KnnConfig()) == []

    def test_singleton_matches_predict(self):
        assert predict_batch(FIVE_POINTS, [QUERY], KnnConfig(k=3)) == [
            predict(FIVE_POINTS, QUERY, KnnConfig(k=3))
        ]

    def test_shuffled_batch_alignment(self):
        rng = np.random.default_rng(5)
        queries = rng.normal(size=(12, 2))
        cfg = KnnConfig(k=3)
        base = predict_batch(FIVE_POINTS, queries, cfg)
        order = rng.permutation(12)
        shuffled = predict_batch(FIVE_POINTS, queries[order], cfg)
        assert shuffled == [base[i] for i in order]


VALUES = st.sampled_from([-3.0, -1.0, -0.5, 0.0, 0.1, 0.25, 1.0, 2.0]) | st.floats(
    -10.0, 10.0, allow_nan=False, allow_subnormal=False
)


def one_ulp(row, j, direction):
    out = row.copy()
    out[j] = np.nextafter(out[j], direction)
    return out


@st.composite
def near_tie_problems(draw):
    """Training rows and queries built to put neighbors at (near-)equal distance."""
    n = draw(st.integers(1, 10))
    d = draw(st.integers(1, 5))
    if draw(st.booleans()):
        # every sign flip of one vector: all distances to the origin are equal
        base = np.array(draw(st.lists(VALUES, min_size=d, max_size=d)))
        signs = np.array([draw(st.sampled_from([-1.0, 1.0])) for _ in range(n * d)])
        train = base * signs.reshape(n, d)
    else:
        train = np.array(
            [draw(st.lists(VALUES, min_size=d, max_size=d)) for _ in range(n)]
        )
        for i in range(1, n):
            src = train[draw(st.integers(0, i - 1))]
            action = draw(st.sampled_from(["keep", "duplicate", "ulp"]))
            if action == "duplicate":
                train[i] = src
            elif action == "ulp":
                j = draw(st.integers(0, d - 1))
                train[i] = one_ulp(src, j, draw(st.sampled_from([-np.inf, np.inf])))
    queries = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["origin", "row", "row_ulp", "free"]))
        row = train[draw(st.integers(0, n - 1))]
        if kind == "origin":
            queries.append(np.zeros(d))
        elif kind == "row":
            queries.append(row.copy())
        elif kind == "row_ulp":
            queries.append(one_ulp(row, draw(st.integers(0, d - 1)), np.inf))
        else:
            queries.append(np.array(draw(st.lists(VALUES, min_size=d, max_size=d))))
    labels = [draw(st.sampled_from(["a", "b", "c"])) for _ in range(n)]
    k = draw(st.sampled_from([1, 3, 5, n + 2]))
    return train, labels, np.array(queries), k


def reference_batch(train, labels, queries, cfg):
    """The exact reference per query, or ValueError for a rejected query."""
    out = []
    for q in queries:
        try:
            out.append(
                knn_predict_exact_ref(
                    train, labels, q, cfg.k, cfg.metric.value, cfg.weighting.value
                )
            )
        except ValueError:
            out.append(ValueError)
    return out


def assert_matches_reference(train, labels, queries, cfg):
    with np.errstate(all="ignore"):
        expected = reference_batch(train, labels, queries, cfg)
        if ValueError in expected:
            # e.g. zero-norm cosine: the whole batch is rejected
            with pytest.raises(ValueError):
                predict_batch(LabeledDataset(train, labels), queries, cfg)
        else:
            got = predict_batch(LabeledDataset(train, labels), queries, cfg)
            assert got == expected


class TestExactParity:
    """predict_batch equals the original per-query scan element by element."""

    @settings(max_examples=300, deadline=None)
    @given(
        near_tie_problems(),
        st.sampled_from(["euclidean", "cosine"]),
        st.sampled_from(["uniform", "inverse_distance"]),
    )
    def test_matches_exact_reference_on_near_ties(self, problem, metric, weighting):
        train, labels, queries, k = problem
        cfg = KnnConfig(k=k, metric=metric, weighting=weighting)
        assert_matches_reference(train, labels, queries, cfg)

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("k, weighting", [(1, "uniform"), (5, "inverse_distance")])
    def test_several_query_blocks_and_rerank_chunks(
        self, monkeypatch, metric, k, weighting
    ):
        # a coarse grid makes many exact ties; every third query is a training row
        monkeypatch.setattr(classify, "_RERANK_ELEMENTS", 50)
        rng = np.random.default_rng(3)
        train = rng.integers(1, 5, size=(60, 6)) / 4.0
        labels = [f"c{i % 4}" for i in range(60)]
        queries = rng.integers(1, 5, size=(2 * classify._QUERY_BLOCK + 7, 6)) / 4.0
        queries[::3] = train[rng.integers(0, 60, size=len(queries[::3]))]
        cfg = KnnConfig(k=k, metric=metric, weighting=weighting)
        assert_matches_reference(train, labels, queries, cfg)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("where", ["train", "query"])
    @pytest.mark.parametrize("k, weighting", [(1, "uniform"), (3, "inverse_distance")])
    def test_non_finite_and_overflowing_inputs(self, bad, where, k, weighting):
        rng = np.random.default_rng(11)
        train = rng.normal(size=(9, 3))
        queries = rng.normal(size=(4, 3))
        if where == "train":
            train[4, 1] = bad
        else:
            queries[2, 0] = bad
        labels = ["x", "y", "z"] * 3
        cfg = KnnConfig(k=k, weighting=weighting)
        assert_matches_reference(train, labels, queries, cfg)

    def test_nan_distances_in_a_weighted_vote_raise_a_named_error(self):
        # every vote weight is NaN, so no label reaches the maximum
        train = LabeledDataset(np.eye(3), ["a", "b", "c"])
        cfg = KnnConfig(k=3, weighting="inverse_distance")
        with pytest.raises(NonFiniteDistance):
            predict_batch(train, [np.array([np.nan, 0.0, 0.0])], cfg)

    @pytest.mark.parametrize("k, weighting", [(1, "uniform"), (3, "inverse_distance")])
    def test_cancellation_near_large_norm_rows(self, k, weighting):
        # distances around 1e-11 beside norms around 4e3: the GEMM form's
        # rounding error swamps the gaps, so only the bound keeps it exact
        rng = np.random.default_rng(29)
        base = rng.uniform(100.0, 1000.0, size=64)
        train = base + rng.normal(scale=1e-12, size=(200, 64))
        queries = base + rng.normal(scale=1e-12, size=(20, 64))
        labels = [f"item{i:03d}" for i in range(200)]
        cfg = KnnConfig(k=k, weighting=weighting)
        assert_matches_reference(train, labels, queries, cfg)

    def test_sqrt_ties_keep_the_lower_index(self):
        # squared distances 1 + 2**-52 and 1 differ, yet both sqrt to 1.0, so
        # the index rule picks item 0: the farther item must stay a candidate
        train = np.array([[1.0, 2.0**-26], [1.0, 0.0]])
        squared = np.sum(train * train, axis=1)
        assert squared[0] > squared[1] and np.sqrt(squared[0]) == np.sqrt(squared[1])
        ds = LabeledDataset(train, ["far", "near"])
        assert predict_batch(ds, np.zeros((1, 2)), KnnConfig()) == ["far"]
        assert_matches_reference(train, ["far", "near"], np.zeros((1, 2)), KnnConfig())

    def test_errors_are_raised_before_any_work(self):
        empty = LabeledDataset(np.zeros((0, 2)), [])
        assert predict_batch(empty, [], KnnConfig()) == []
        with pytest.raises(EmptyTrainingSet):
            predict_batch(empty, [np.zeros(2)], KnnConfig())
        with pytest.raises(DimensionMismatch):
            predict_batch(FIVE_POINTS, [QUERY, np.zeros(3)], KnnConfig())
