import math
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from pehfault.classify import _distances, _nearest_blocks, _to_space, _vote, draw_splits, repeated_evaluation
from pehfault.dataset import build_feature_sets
from pehfault.harvester import design_from_thickness
from tests.conftest import SMALL_SEGMENT_S, SMALL_SEGMENTS
from tests.oracles import mask_rows, reference_split, row_labels, train_size
from tests.test_feature_arrays import interleaved_labels


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


def seeded_evaluation(features, labels, k, n_repeats, *, metric="raw", **split):
    """repeated_evaluation over the n_repeats splits draw_splits draws from
    the labels under these split settings."""
    return repeated_evaluation(features, labels, draw_splits(labels, n_repeats, **split), k, metric=metric)


def brute_force_reports(features, labels, k, n_repeats, *, train_fraction=0.8, seed=0, stratified=True):
    """The (names, confusions) repeated_evaluation should give, with every
    validation row of each reference_split labelled by brute_force_predict
    on the training rows of that split."""
    labels = np.asarray(labels)
    names = np.unique(labels)
    confusions = np.zeros((n_repeats, len(names), len(names)), dtype=np.int64)
    for i, confusion in enumerate(confusions):
        train, validation = reference_split(labels, train_fraction, seed + i, stratified)
        points = [(features[j], labels[j]) for j in train]
        for j in validation:
            predicted = brute_force_predict(points, k, features[j])
            confusion[np.searchsorted(names, labels[j]), np.searchsorted(names, predicted)] += 1
    return tuple(names.tolist()), confusions


def assert_same_reports(got, want):
    """The same label names, and confusion stacks of one dtype and shape that
    agree in every count."""
    (got_names, got_confusions), (want_names, want_confusions) = got, want
    assert type(got_names) is tuple and got_names == want_names
    assert got_confusions.dtype == want_confusions.dtype
    np.testing.assert_array_equal(got_confusions, want_confusions, strict=True)


def accuracies(confusions):
    """Each split's accuracy: its confusion matrix's trace over its count."""
    return np.trace(confusions, axis1=1, axis2=2) / confusions.sum(axis=(1, 2))


def engine_split(labels, train_fraction, seed, stratified=True):
    """The train and validation rows of the mask draw_splits draws for `seed`."""
    return mask_rows(draw_splits(labels, 1, train_fraction=train_fraction, seed=seed, stratified=stratified)[0])


def engine_labels(points, k, queries, metric="raw"):
    """The label repeated_evaluation's kNN engine gives each query row when
    `points` are the training rows: `_vote` over the `_nearest_blocks` order."""
    features, labels = matrix(points)
    names, codes = np.unique(labels, return_inverse=True)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    order = _nearest_blocks(_to_space(features, metric), _to_space(queries, metric), k)
    return names[_vote(codes[order], len(names))].tolist()


def random_instance(rng, n, dim, low, high, classes):
    """n points of integer-valued coordinates in [low, high), which make
    distance ties exact and frequent, and a k up to an unstratified 80 %
    split's training size."""
    points = [(rng.integers(low, high, size=dim).astype(float), str(rng.choice(classes))) for _ in range(n)]
    return points, int(rng.integers(1, train_size(n, 0.8) + 1))


class TestSplit:
    def test_80_20_on_21_per_class(self):
        labels = labels_of(labeled(21))
        train, validation = engine_split(labels, 0.8, 0)
        per_class = Counter(labels[train].tolist())
        assert per_class == {"a": 17, "b": 17}
        assert Counter(labels[validation].tolist()) == {"a": 4, "b": 4}

    def test_half_split_on_two_per_class(self):
        labels = labels_of(labeled(2))
        train, validation = engine_split(labels, 0.5, 1)
        assert Counter(labels[train].tolist()) == {"a": 1, "b": 1}
        assert Counter(labels[validation].tolist()) == {"a": 1, "b": 1}

    def test_same_seed_identical(self):
        labels = labels_of(labeled(10))
        first = engine_split(labels, 0.8, 42)
        second = engine_split(labels, 0.8, 42)
        assert first[0].tolist() == second[0].tolist()
        assert first[1].tolist() == second[1].tolist()

    def test_single_sample_class_rejected(self):
        with pytest.raises(ValueError, match="'c' has 1"):
            draw_splits(labels_of([*labeled(2), (np.array([9.0]), "c")]), 1)

    @pytest.mark.parametrize("fraction", [1.0, 0.0, 1.5, -0.2, math.nan])
    def test_bad_fraction_rejected(self, fraction):
        with pytest.raises(ValueError) as info:
            draw_splits(labels_of(labeled(5)), 1, train_fraction=fraction)
        assert str(info.value) == f"train fraction must lie in (0, 1), got {fraction}"

    def test_the_ith_split_is_seeded_seed_plus_i(self):
        labels = labels_of(labeled(10, classes=("b", "a", "c")))
        splits = draw_splits(labels, 4, train_fraction=0.6, seed=9, stratified=False)
        assert len(splits) == 4
        assert splits.shape == (4, 30) and splits.dtype == bool
        for i, in_train in enumerate(splits):
            for got, want in zip(mask_rows(in_train), reference_split(labels, 0.6, 9 + i, False), strict=True):
                np.testing.assert_array_equal(got, want, strict=True)

    def test_unstratified_partition(self):
        train, validation = engine_split(labels_of(labeled(10)), 0.8, 3, stratified=False)
        assert len(train) == 16 and len(validation) == 4


@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.05, max_value=0.95),
    st.lists(st.integers(min_value=2, max_value=20), min_size=1, max_size=4),
)
def test_split_is_partition(seed, fraction, class_sizes):
    labels = np.array([f"class{c}" for c, size in enumerate(class_sizes) for _ in range(size)])
    train, validation = engine_split(labels, fraction, seed)
    assert sorted(train.tolist() + validation.tolist()) == list(range(len(labels)))
    assert list(train) == sorted(train) and list(validation) == sorted(validation)
    for c, size in enumerate(class_sizes):
        got = int((labels[train] == f"class{c}").sum())
        assert abs(got - fraction * size) <= 1.0


@settings(max_examples=300)
@given(
    interleaved_labels(min_per_class=2),
    st.integers(min_value=0, max_value=2**32),
    st.floats(min_value=0.01, max_value=0.99),
    st.booleans(),
)
def test_engine_split_is_the_reference_split_bit_for_bit(labels, seed, fraction, stratified):
    got = engine_split(labels, fraction, seed, stratified)
    want = reference_split(labels, fraction, seed, stratified)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w, strict=True)


class TestArguments:
    def test_reports_name_the_sorted_labels(self):
        features, labels = matrix(labeled(17, classes=("b", "a")))
        names, confusions = seeded_evaluation(features, labels, 3, 2)
        assert names == ("a", "b")
        assert confusions.shape == (2, 2, 2) and confusions.dtype == np.int64
        assert confusions.sum(axis=(1, 2)).tolist() == [2 * (17 - train_size(17, 0.8))] * 2

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="positive integer"):
            seeded_evaluation(*matrix(labeled(5)), 0, 1)

    def test_k_exceeding_points_rejected(self):
        with pytest.raises(ValueError, match="exceeds the 2 training points"):
            seeded_evaluation(*matrix(labeled(2)), 5, 1)

    def test_k_is_bounded_by_the_smallest_training_side(self):
        """Hand-made splits need not share a training size: k is checked
        against every one of them, not only the first."""
        splits = np.arange(8) < np.array([[6], [2]])  # rows 0-5 train, then rows 0-1
        with pytest.raises(ValueError) as info:
            repeated_evaluation(*matrix(labeled(4)), splits, 3)
        assert str(info.value) == "k=3 exceeds the 2 training points"

    @pytest.mark.parametrize(
        "splits",
        [
            np.ones((0, 8), dtype=bool),
            np.ones((1, 7), dtype=bool),  # narrower than the matrix: its rows would misalign
            np.ones((1, 9), dtype=bool),
            np.ones(8, dtype=bool),
            np.ones((1, 8, 1), dtype=bool),
            np.ones((1, 8), dtype=np.int8),
        ],
        ids=["none", "narrower", "wider", "one-dimensional", "three-dimensional", "not-boolean"],
    )
    def test_no_split_rejected(self, splits):
        with pytest.raises(ValueError) as info:
            repeated_evaluation(*matrix(labeled(4)), splits, 1)
        assert str(info.value) == f"need at least one split, as an (n_splits, 8) boolean mask, got {splits.dtype} {splits.shape}"

    def test_mixed_dimensions_rejected(self):
        # Mixed dimensions cannot form one matrix: build_feature_sets rejects
        # them (tests/test_dataset.py); a set that is not an (n, dim) matrix
        # with n labels is rejected here.
        splits = np.array([[True, False, False]])
        with pytest.raises(ValueError, match="dimension"):
            repeated_evaluation(np.array([1.0, 2.0, 3.0]), ["a", "b", "b"], splits, 1)
        with pytest.raises(ValueError, match="dimension"):
            repeated_evaluation(np.zeros((3, 2)), ["a", "b"], splits, 1)

    def test_bad_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            seeded_evaluation(*matrix(labeled(3)), 1, 1, metric="cosine")


class TestNeighbors:
    def test_single_nearest(self):
        assert engine_labels([([1.0], "A"), ([2.0], "A"), ([10.0], "B")], 1, [[9.5]]) == ["B"]

    def test_majority_two_vs_one(self):
        assert engine_labels([([1.0], "A"), ([2.0], "A"), ([3.0], "B")], 3, [[2.5]]) == ["A"]

    def test_vote_tie_prefers_nearest_label(self):
        # two A at distance 2 and 3, two B at distance 1 and 4: tie 2-2, B holds the nearest
        points = [(np.array([2.0]), "A"), (np.array([-3.0]), "A"), (np.array([1.0]), "B"), (np.array([4.0]), "B")]
        assert engine_labels(points, 4, [[0.0]]) == ["B"]

    def test_distance_tie_prefers_lower_index(self):
        points = [(np.array([1.0]), "A"), (np.array([-1.0]), "B"), (np.array([2.0]), "B")]
        assert engine_labels(points, 1, [[0.0]]) == ["A"]

    def test_log_metric_separates_by_magnitude(self):
        # energies decades apart: log distance groups by order of magnitude
        points = [(np.array([1e-6]), "small"), (np.array([2e-6]), "small"), (np.array([1.0]), "big")]
        # 0.0 is floored, not -inf
        assert engine_labels(points, 1, [[4e-6], [0.5], [0.0]], metric="log") == ["small", "big", "small"]

    def test_agrees_with_brute_force_on_random_instances(self):
        rng = np.random.default_rng(17)
        for seed in range(20):
            points, k = random_instance(rng, int(rng.integers(3, 41)), int(rng.integers(1, 4)), 0, 8, ["x", "y", "z"])
            features, labels = matrix(points)
            split = dict(seed=seed, stratified=False)
            want = brute_force_reports(features, labels, k, 5, **split)
            assert_same_reports(seeded_evaluation(features, labels, k, 5, **split), want)


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=2**31))
def test_knn_matches_oracle_property(seed):
    rng = np.random.default_rng(seed)
    points, k = random_instance(rng, int(rng.integers(2, 30)), int(rng.integers(1, 5)), -5, 6, ["p", "q"])
    features, labels = matrix(points)
    split = dict(seed=seed, stratified=False)
    want = brute_force_reports(features, labels, k, 2, **split)
    assert_same_reports(seeded_evaluation(features, labels, k, 2, **split), want)


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
    features = rng.uniform(0, 10, size=(17, 2))
    labels = rng.choice(["u", "v"], size=17)
    split = dict(seed=seed, stratified=False)
    want = seeded_evaluation(features, labels, 3, 4, **split)
    assert_same_reports(seeded_evaluation(features * scale, labels, 3, 4, **split), want)


class TestReports:
    def test_perfect_predictions(self):
        points = [(np.array([i / 10]), "A") for i in range(5)] + [(np.array([5 + i / 10]), "B") for i in range(5)]
        _, confusions = seeded_evaluation(*matrix(points), 1, 3)
        assert accuracies(confusions).tolist() == [1.0] * 3
        assert np.array_equal(confusions, np.broadcast_to(np.eye(2, dtype=np.int64), (3, 2, 2)))

    def test_training_points_self_match(self):
        # distinct coordinates: a training point's nearest neighbor is itself
        train = [(np.array([float(i)]), "a") for i in range(5)] + [(np.array([i + 0.5]), "b") for i in range(5)]
        assert engine_labels(train, 1, matrix(train)[0]) == matrix(train)[1]

    def test_each_confusion_counts_the_validation_rows(self):
        rng = np.random.default_rng(4)
        features, labels = rng.uniform(0, 1, size=(30, 2)), rng.choice(["A", "B"], size=30)
        _, confusions = seeded_evaluation(features, labels, 3, 4, stratified=False)
        assert confusions.sum(axis=(1, 2)).tolist() == [30 - train_size(30, 0.8)] * 4

    @pytest.mark.parametrize("stratified", [True, False])
    def test_empty_validation_rejected(self, stratified):
        with pytest.raises(ValueError):
            seeded_evaluation(np.empty((0, 1)), [], 1, 1, stratified=stratified)


class TestRepeatedEvaluation:
    def test_deterministic(self):
        rng = np.random.default_rng(8)
        points = [(rng.uniform(0, 1, size=1), label) for label in ["A", "B"] * 10]
        runs = [seeded_evaluation(*matrix(points), 3, 4, seed=5) for _ in range(2)]
        assert_same_reports(runs[0], runs[1])

    def test_seeds_advance(self):
        """Confusion matrix i is that of the split seeded seed + i."""
        rng = np.random.default_rng(8)
        points = [(rng.uniform(0, 1, size=1), label) for label in ["A", "B"] * 10]
        features, labels = matrix(points)[0], labels_of(points)
        names, confusions = seeded_evaluation(features, labels, 1, 3, seed=100)
        assert_same_reports((names, confusions), brute_force_reports(features, labels, 1, 3, seed=100))
        # the three splits score differently, so a seed that did not advance would show
        assert len({confusion.tobytes() for confusion in confusions}) == 3

    @pytest.mark.parametrize(
        "features, shape",
        [
            (np.arange(12.0)[:, None], "(12, 1)"),  # more rows than labels
            (np.arange(6.0)[:, None], "(6, 1)"),  # fewer
            (np.arange(8.0), "(8,)"),  # not 2-D
            (np.arange(8.0)[:, None, None], "(8, 1, 1)"),
        ],
    )
    def test_a_matrix_not_matching_the_labels_is_rejected_before_any_split(self, features, shape):
        """Scoring only the first len(labels) rows would be a silently
        meaningless result; the check comes before the splits are read, so
        a mask of rows past the matrix does not get to fail first."""
        splits = np.ones((1, 30), dtype=bool)
        message = f"need an (n, dimension) feature matrix and n labels, got {shape} and 8"
        with pytest.raises(ValueError) as info:
            repeated_evaluation(features, ["a", "b"] * 4, splits, 1)
        assert str(info.value) == message

    @pytest.mark.parametrize("metric", ["raw", "log"])
    @pytest.mark.parametrize("dim", [1, 4])
    def test_features_whose_distances_could_overflow_are_rejected_before_any_split(self, metric, dim):
        """Squared distances of features near 1e298 overflow to inf, so every
        neighbour would tie and every split score chance; in log space the
        same features are far from overflowing. The check comes after the
        arguments are checked and before any split is scored."""
        features = np.full((8, dim), 1e298)
        features[::2] *= 2
        labels = ["a", "b"] * 4
        if metric == "log":
            _, confusions = seeded_evaluation(features, labels, 1, 2, metric=metric)
            assert accuracies(confusions).tolist() == [1.0, 1.0]
            return
        with pytest.raises(OverflowError) as info:
            seeded_evaluation(features, labels, 1, 2, metric=metric)
        assert str(info.value) == "features reach 2e+298 in raw space, too large for finite kNN distances"

    def test_the_overflow_bound_counts_every_dimension(self):
        """(2 * 6e153)**2 fits in a float, four times that does not."""
        labels = ["a", "b"] * 4
        assert seeded_evaluation(np.full((8, 1), 6e153), labels, 1, 1)[1].shape == (1, 2, 2)
        with pytest.raises(OverflowError):
            seeded_evaluation(np.full((8, 4), 6e153), labels, 1, 1)


def test_splits_are_held_and_scored_in_about_a_byte_per_row():
    """2,000 splits of 42 rows, the README corpus's count. draw_splits holds
    each as one boolean mask row, at most 1.1 bytes a row, and scoring them
    all adds a transient peak of at most 80 bytes a split, fixed costs and
    the returned confusion stack included. Splits held as index pairs, and
    turned back into masks and unions to be scored, cost about 870 and
    1,200 bytes a split here. Tracing makes every allocation slow, so the
    count stays at 2,000 (about 1 s)."""
    n_repeats, rows = 2_000, 42
    labels = np.repeat(["healthy", "ball_crack"], rows // 2)
    features = np.random.default_rng(0).uniform(size=(rows, 3))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        splits = draw_splits(labels, n_repeats)
        held = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        repeated_evaluation(features, labels, splits, 3)
        transient = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * rows * n_repeats
    assert transient <= 80 * n_repeats


def test_gain_rescaling_leaves_predictions_unchanged(small_corpus):
    """Scaling every design's peak gain by one factor squares into the energies
    but cannot move any kNN decision."""
    factor = 3.7
    base = design_from_thickness(0.50)
    scaled = replace(base, peak_gain_v_per_g=base.peak_gain_v_per_g * factor)
    ((feats_base,),) = build_feature_sets(small_corpus, [base], SMALL_SEGMENT_S, SMALL_SEGMENTS, [SMALL_SEGMENT_S], 1.0)
    ((feats_scaled,),) = build_feature_sets(small_corpus, [scaled], SMALL_SEGMENT_S, SMALL_SEGMENTS, [SMALL_SEGMENT_S], 1.0)
    np.testing.assert_allclose(feats_scaled, factor**2 * feats_base, rtol=1e-9)
    labels = row_labels(small_corpus, SMALL_SEGMENTS)
    want = seeded_evaluation(feats_base, labels, 3, 5, seed=2)
    assert_same_reports(seeded_evaluation(feats_scaled, labels, 3, 5, seed=2), want)
