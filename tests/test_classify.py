import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import pehfault.classify
from hypothesis import given, settings
from hypothesis import strategies as st

from pehfault.classify import (
    SplitConfig,
    _distances,
    evaluate,
    knn_fit,
    knn_predict,
    repeated_evaluation,
    split,
)
from pehfault.dataset import build_feature_set
from pehfault.harvester import design_from_thickness
from tests.conftest import SMALL_SEGMENT_S, SMALL_SEGMENTS


def labeled(n_per_class, classes=("a", "b")):
    return [(np.array([float(i)]), c) for c in classes for i in range(n_per_class)]


def matrix(points):
    """The (n, dim) feature matrix and the n labels of (vector, label) pairs."""
    return np.array([vector for vector, _ in points], dtype=np.float64), [label for _, label in points]


def labels_of(points):
    return np.array([label for _, label in points])


def oracle_distance(vec, query):
    """Euclidean distance, squared differences summed in index order. Squares
    are products: Python's ** on a float calls libm pow, which rounds a few
    squares in 10^4 differently from the predictor's multiplication."""
    return math.sqrt(sum((x - q) * (x - q) for x, q in zip(vec, query)))


def brute_force_predict(points, k, query):
    """Independent oracle: exhaustive sort of (distance, index), same tie rules."""
    ranked = sorted((oracle_distance(vec, query), i) for i, (vec, _label) in enumerate(points))[:k]
    counts = Counter(points[i][1] for _, i in ranked)
    best = max(counts.values())
    for _, i in ranked:
        if counts[points[i][1]] == best:
            return points[i][1]


class TestSplit:
    def test_80_20_on_21_per_class(self):
        labels = labels_of(labeled(21))
        train, validation = split(labels, SplitConfig(0.8, seed=0))
        per_class = Counter(labels[train].tolist())
        assert per_class == {"a": 17, "b": 17}
        assert Counter(labels[validation].tolist()) == {"a": 4, "b": 4}

    def test_half_split_on_two_per_class(self):
        labels = labels_of(labeled(2))
        train, validation = split(labels, SplitConfig(0.5, seed=1))
        assert Counter(labels[train].tolist()) == {"a": 1, "b": 1}
        assert Counter(labels[validation].tolist()) == {"a": 1, "b": 1}

    def test_same_seed_identical(self):
        labels = labels_of(labeled(10))
        first = split(labels, SplitConfig(0.8, seed=42))
        second = split(labels, SplitConfig(0.8, seed=42))
        assert first[0].tolist() == second[0].tolist()
        assert first[1].tolist() == second[1].tolist()

    def test_single_sample_class_rejected(self):
        labels = labels_of(labeled(2)).tolist() + ["c"]
        with pytest.raises(ValueError, match="'c'"):
            split(labels, SplitConfig(0.8, seed=0))

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            SplitConfig(train_fraction=1.0)
        with pytest.raises(ValueError):
            SplitConfig(train_fraction=0.0)

    def test_unstratified_partition(self):
        train, validation = split(labels_of(labeled(10)), SplitConfig(0.8, seed=3, stratified=False))
        assert len(train) == 16 and len(validation) == 4


@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.05, max_value=0.95),
    st.lists(st.integers(min_value=2, max_value=20), min_size=1, max_size=4),
)
def test_split_is_partition(seed, fraction, class_sizes):
    labels = np.array([f"class{c}" for c, size in enumerate(class_sizes) for _ in range(size)])
    cfg = SplitConfig(train_fraction=fraction, seed=seed)
    train, validation = split(labels, cfg)
    assert sorted(train.tolist() + validation.tolist()) == list(range(len(labels)))
    assert list(train) == sorted(train) and list(validation) == sorted(validation)
    for c, size in enumerate(class_sizes):
        got = int((labels[train] == f"class{c}").sum())
        assert abs(got - fraction * size) <= 1.0


class TestKnnFit:
    def test_model_stores_points(self):
        model = knn_fit(*matrix(labeled(17)), k=3)
        assert model.k == 3
        assert model.space.shape == (34, 1)
        assert len(model.codes) == 34
        assert [model.classes[code] for code in model.codes] == matrix(labeled(17))[1]

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            knn_fit(*matrix(labeled(5)), k=0)

    def test_k_exceeding_points_rejected(self):
        with pytest.raises(ValueError):
            knn_fit(*matrix(labeled(2)), k=5)

    def test_mixed_dimensions_rejected(self):
        # Mixed dimensions cannot form one matrix: build_feature_sets rejects
        # them (tests/test_dataset.py); a set that is not an (n, dim) matrix
        # with n labels is rejected here.
        with pytest.raises(ValueError, match="dimension"):
            knn_fit(np.array([1.0, 2.0, 3.0]), ["a", "b", "b"], k=1)
        with pytest.raises(ValueError, match="dimension"):
            knn_fit(np.zeros((3, 2)), ["a", "b"], k=1)

    def test_bad_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            knn_fit(*matrix(labeled(3)), k=1, metric="cosine")


class TestKnnPredict:
    def test_single_nearest(self):
        model = knn_fit([[1.0], [2.0], [10.0]], ["A", "A", "B"], k=1)
        assert knn_predict(model, np.array([9.5])) == "B"

    def test_majority_two_vs_one(self):
        model = knn_fit([[1.0], [2.0], [3.0]], ["A", "A", "B"], k=3)
        assert knn_predict(model, np.array([2.5])) == "A"

    def test_vote_tie_prefers_nearest_label(self):
        # two A at distance 2 and 3, two B at distance 1 and 4: tie 2-2, B holds the nearest
        points = [(np.array([2.0]), "A"), (np.array([-3.0]), "A"), (np.array([1.0]), "B"), (np.array([4.0]), "B")]
        model = knn_fit(*matrix(points), k=4)
        assert knn_predict(model, np.array([0.0])) == "B"

    def test_distance_tie_prefers_lower_index(self):
        points = [(np.array([1.0]), "A"), (np.array([-1.0]), "B"), (np.array([2.0]), "B")]
        model = knn_fit(*matrix(points), k=1)
        assert knn_predict(model, np.array([0.0])) == "A"

    def test_dimension_mismatch_rejected(self):
        model = knn_fit(*matrix(labeled(3)), k=1)
        with pytest.raises(ValueError, match="dimension"):
            knn_predict(model, np.array([1.0, 2.0]))

    def test_log_metric_separates_by_magnitude(self):
        # energies decades apart: log distance groups by order of magnitude
        points = [(np.array([1e-6]), "small"), (np.array([2e-6]), "small"), (np.array([1.0]), "big")]
        model = knn_fit(*matrix(points), k=1, metric="log")
        assert knn_predict(model, np.array([4e-6])) == "small"
        assert knn_predict(model, np.array([0.5])) == "big"
        assert knn_predict(model, np.array([0.0])) == "small"  # floored, not -inf

    def test_agrees_with_brute_force_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(3, 41))
            dim = int(rng.integers(1, 4))
            # integer-valued coordinates make distance ties exact and frequent
            points = [
                (rng.integers(0, 8, size=dim).astype(float), rng.choice(["x", "y", "z"]))
                for _ in range(n)
            ]
            model = knn_fit(*matrix(points), k=int(rng.integers(1, n + 1)))
            for _ in range(20):
                query = rng.integers(0, 8, size=dim).astype(float)
                assert knn_predict(model, query) == brute_force_predict(points, model.k, query)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**31))
def test_knn_matches_oracle_property(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    dim = int(rng.integers(1, 5))
    points = [(rng.integers(-5, 6, size=dim).astype(float), rng.choice(["p", "q"])) for _ in range(n)]
    k = int(rng.integers(1, n + 1))
    model = knn_fit(*matrix(points), k=k)
    query = rng.integers(-5, 6, size=dim).astype(float)
    assert knn_predict(model, query) == brute_force_predict(points, k, query)


@pytest.mark.parametrize("dim", range(1, 13))
def test_oracle_distance_equals_block_distances_bit_for_bit(dim):
    rng = np.random.default_rng([17, dim])
    points = rng.uniform(-1.0, 1.0, size=(100, dim))
    queries = rng.uniform(-1.0, 1.0, size=(60, dim))
    expected = [[oracle_distance(point, query) for point in points] for query in queries]
    assert np.array_equal(_distances(points, queries), np.array(expected))


@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=1e-3, max_value=1e3))
def test_prediction_invariant_under_uniform_scaling(seed, scale):
    rng = np.random.default_rng(seed)
    points = [(rng.uniform(0, 10, size=2), rng.choice(["u", "v"])) for _ in range(12)]
    queries = [rng.uniform(0, 10, size=2) for _ in range(5)]
    model = knn_fit(*matrix(points), k=3)
    features, labels = matrix(points)
    scaled_model = knn_fit(features * scale, labels, k=3)
    for query in queries:
        assert knn_predict(model, query) == knn_predict(scaled_model, query * scale)


class TestEvaluate:
    def test_perfect_predictions(self):
        train = [(np.array([0.0]), "A"), (np.array([0.1]), "A"), (np.array([5.0]), "B"), (np.array([5.1]), "B")]
        model = knn_fit(*matrix(train), k=1)
        report = evaluate(model, [[0.05], [5.05]], ["A", "B"])
        assert report.accuracy == 1.0
        assert np.array_equal(report.confusion, np.eye(2, dtype=np.int64))

    def test_training_points_self_match(self):
        # distinct coordinates: a training point's nearest neighbor is itself
        train = [(np.array([float(i)]), "a") for i in range(5)] + [(np.array([i + 0.5]), "b") for i in range(5)]
        model = knn_fit(*matrix(train), k=1)
        assert evaluate(model, *matrix(train)).accuracy == 1.0

    def test_accuracy_recomputable_from_confusion(self):
        rng = np.random.default_rng(4)
        train = [(rng.uniform(0, 1, size=2), rng.choice(["A", "B"])) for _ in range(20)]
        validation = [(rng.uniform(0, 1, size=2), rng.choice(["A", "B"])) for _ in range(10)]
        report = evaluate(knn_fit(*matrix(train), k=3), *matrix(validation))
        assert report.accuracy == np.trace(report.confusion) / report.confusion.sum()

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError):
            evaluate(knn_fit(*matrix(labeled(3)), k=1), np.empty((0, 1)), [])


class TestRepeatedEvaluation:
    def test_deterministic(self):
        rng = np.random.default_rng(8)
        points = [(rng.uniform(0, 1, size=1), label) for label in ["A", "B"] * 10]
        runs = [repeated_evaluation(*matrix(points), 3, SplitConfig(0.8, seed=5), 4) for _ in range(2)]
        assert [r.accuracy for r in runs[0]] == [r.accuracy for r in runs[1]]

    def test_seeds_advance(self):
        """Report i is `evaluate` on the split seeded split_cfg.seed + i."""
        rng = np.random.default_rng(8)
        points = [(rng.uniform(0, 1, size=1), label) for label in ["A", "B"] * 10]
        features, labels = matrix(points)[0], labels_of(points)
        split_cfg = SplitConfig(0.8, seed=100)
        reports = repeated_evaluation(features, labels, 1, split_cfg, 3)
        for i, report in enumerate(reports):
            train, validation = split(labels, replace(split_cfg, seed=100 + i))
            expected = evaluate(knn_fit(features[train], labels[train], k=1), features[validation], labels[validation])
            assert (report.accuracy, report.labels) == (expected.accuracy, expected.labels)
            np.testing.assert_array_equal(report.confusion, expected.confusion)
        # the three splits score differently, so a seed that did not advance would show
        assert len({r.confusion.tobytes() for r in reports}) == 3

    @pytest.mark.parametrize(
        "features, shape",
        [
            (np.arange(12.0)[:, None], "(12, 1)"),  # more rows than labels
            (np.arange(6.0)[:, None], "(6, 1)"),  # fewer
            (np.arange(8.0), "(8,)"),  # not 2-D
            (np.arange(8.0)[:, None, None], "(8, 1, 1)"),
        ],
    )
    def test_a_matrix_not_matching_the_labels_is_rejected_before_any_split(self, features, shape, monkeypatch):
        """Scoring only the first len(labels) rows would be a silently
        meaningless result; the check comes before the splits are drawn."""

        def no_split(labels, cfg):
            raise AssertionError("split called")

        monkeypatch.setattr(pehfault.classify, "split", no_split)
        message = f"need an (n, dimension) feature matrix and n labels, got {shape} and 8"
        with pytest.raises(ValueError) as info:
            repeated_evaluation(features, ["a", "b"] * 4, 1, SplitConfig(), 2)
        assert str(info.value) == message

    @pytest.mark.parametrize("metric", ["raw", "log"])
    @pytest.mark.parametrize("dim", [1, 4])
    def test_features_whose_distances_could_overflow_are_rejected_before_any_split(self, metric, dim, monkeypatch):
        """Squared distances of features near 1e298 overflow to inf, so every
        neighbour would tie and every split score chance; in log space the
        same features are far from overflowing."""

        def no_split(labels, cfg):
            raise AssertionError("split called")

        features = np.full((8, dim), 1e298)
        features[::2] *= 2
        labels = ["a", "b"] * 4
        if metric == "log":
            reports = repeated_evaluation(features, labels, 1, SplitConfig(), 2, metric)
            assert [r.accuracy for r in reports] == [1.0, 1.0]
            return
        monkeypatch.setattr(pehfault.classify, "split", no_split)
        with pytest.raises(OverflowError) as info:
            repeated_evaluation(features, labels, 1, SplitConfig(), 2, metric)
        assert str(info.value) == "features reach 2e+298 in raw space, too large for finite kNN distances"

    def test_the_overflow_bound_counts_every_dimension(self):
        """(2 * 6e153)**2 fits in a float, four times that does not."""
        labels = ["a", "b"] * 4
        assert len(repeated_evaluation(np.full((8, 1), 6e153), labels, 1, SplitConfig(), 1)) == 1
        with pytest.raises(OverflowError):
            repeated_evaluation(np.full((8, 4), 6e153), labels, 1, SplitConfig(), 1)


def test_gain_rescaling_leaves_predictions_unchanged(small_corpus):
    """Scaling every design's peak gain by one factor squares into the energies
    but cannot move any kNN decision."""
    factor = 3.7
    base = design_from_thickness(0.50)
    scaled = replace(base, peak_gain_v_per_g=base.peak_gain_v_per_g * factor)
    rows, feats_base = build_feature_set(small_corpus, base, SMALL_SEGMENT_S, SMALL_SEGMENTS, SMALL_SEGMENT_S, 1.0)
    _, feats_scaled = build_feature_set(small_corpus, scaled, SMALL_SEGMENT_S, SMALL_SEGMENTS, SMALL_SEGMENT_S, 1.0)
    np.testing.assert_allclose(feats_scaled, factor**2 * feats_base, rtol=1e-9)
    train, validation = split(rows.labels, SplitConfig(0.8, seed=2))
    preds_b = knn_predict(knn_fit(feats_base[train], rows.labels[train], k=3), feats_base[validation])
    preds_s = knn_predict(knn_fit(feats_scaled[train], rows.labels[train], k=3), feats_scaled[validation])
    assert preds_b == preds_s
