"""Differential tests of repeated_evaluation over draw_splits' splits, which
ranks each row's nearest points once per feature matrix, against the
per-split loop it replaced."""

import numpy as np
import pytest

from pehfault import classify
from pehfault.classify import METRICS
from tests.oracles import reference_split
from tests.test_classify import assert_same_reports, seeded_evaluation
from tests.test_knn_block import per_query_knn_predict


def per_split_repeated_evaluation(
    features, labels, k, n_repeats, *, metric="raw", train_fraction=0.8, seed=0, stratified=True
):
    """The per-split loop repeated_evaluation replaced, as the reference: the
    train fraction is checked first, as the split configuration's
    constructor did; every reference_split then checks k and the metric as
    its fit did, labels each of its validation rows with
    per_query_knn_predict on its training rows and scores them over the
    sorted labels of all rows."""
    if not 0 < train_fraction < 1:
        raise ValueError(f"train fraction must lie in (0, 1), got {train_fraction}")
    if n_repeats < 1:
        raise ValueError(f"need at least one repeat, got {n_repeats}")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    names = np.unique(labels)
    confusions = np.zeros((n_repeats, len(names), len(names)), dtype=np.int64)
    for i, confusion in enumerate(confusions):
        train, validation = reference_split(labels, train_fraction, seed + i, stratified)
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        if k > len(train):
            raise ValueError(f"k={k} exceeds the {len(train)} training points")
        if metric not in METRICS:
            raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
        predicted = [per_query_knn_predict(features[train], labels[train], k, metric, row) for row in features[validation]]
        np.add.at(confusion, (np.searchsorted(names, labels[validation]), np.searchsorted(names, predicted)), 1)
    return tuple(names.tolist()), confusions


def instance(rng, integer, metric, stratified):
    """A feature matrix and its labels. Integer coordinates in a small range
    make distance ties frequent; in log space they are 0 (floored) or 1. An
    unstratified instance has a class of one row, which some splits leave out
    of training."""
    n = int(rng.integers(6, 71))
    dim = int(rng.integers(1, 5))
    if integer:
        low, high = (0, 2) if metric == "log" else (-3, 4)
        features = rng.integers(low, high, size=(n, dim)).astype(float)
    else:
        features = rng.uniform(1e-3, 1.0, size=(n, dim))
    labels = rng.choice(["x", "y", "z"], size=n)
    labels[:2], labels[2:4] = "x", "y"  # every class of a stratified split needs two rows
    if stratified:
        labels[labels == "z"] = "x"
        labels[4:6] = "z"
    else:
        labels[labels == "z"] = "y"
        labels[int(rng.integers(0, n))] = "z"
    return features, labels


def k_values(n_train):
    """k from 1 up to the training size: the small ks, then a spread."""
    return sorted({1, 2, 3, *range(1, n_train + 1, max(1, n_train // 3)), n_train})


HEAD_WIDTHS = {
    "default": classify._head_width,
    # One point per head: for k > 1 every validation row falls back; for k = 1 a row whose one point is
    # a training row (an equal row of lower index, or any row for a row with a NaN) does not.
    "one": lambda n, k: 1,
    "mixed": lambda n, k: min(n, k + 2),  # some rows fall back, some do not
}


@pytest.mark.parametrize("stratified", [True, False], ids=["stratified", "unstratified"])
@pytest.mark.parametrize("head", sorted(HEAD_WIDTHS))
@pytest.mark.parametrize("block_bytes", [1, 500, classify._BLOCK_BYTES])
@pytest.mark.parametrize("integer", [True, False], ids=["integer", "float"])
@pytest.mark.parametrize("metric", classify.METRICS)
def test_reuse_matches_per_split_reference(metric, integer, block_bytes, head, stratified, monkeypatch):
    monkeypatch.setattr(classify, "_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(classify, "_head_width", HEAD_WIDTHS[head])
    rng = np.random.default_rng([len(metric), int(integer), block_bytes, len(head), int(stratified)])
    seed = int(rng.integers(0, 1000))
    arguments = dict(metric=metric, seed=seed, stratified=stratified)
    lacking = 0
    for _ in range(3):
        features, labels = instance(rng, integer, metric, stratified)
        n_train = len(reference_split(labels, 0.8, seed, stratified)[0])
        for k in k_values(n_train):
            want = per_split_repeated_evaluation(features, labels, k, 4, **arguments)
            assert_same_reports(seeded_evaluation(features, labels, k, 4, **arguments), want)
        lacking += sum("z" not in labels[reference_split(labels, 0.8, seed + i, stratified)[0]] for i in range(4))
    if not stratified:
        assert lacking > 0, "no split left a class out of training"


@pytest.mark.parametrize("head", sorted(HEAD_WIDTHS))
@pytest.mark.parametrize("metric", classify.METRICS)
def test_nan_entry_matches_per_split_reference(metric, head, monkeypatch):
    monkeypatch.setattr(classify, "_head_width", HEAD_WIDTHS[head])
    rng = np.random.default_rng(len(metric))
    features = rng.uniform(1e-3, 1.0, size=(60, 3))
    features[7, 1] = np.nan
    labels = np.array(["a", "b", "c"] * 20)
    for k in (1, 3, 10, 47, 48):
        want = per_split_repeated_evaluation(features, labels, k, 6, metric=metric, seed=3)
        assert_same_reports(seeded_evaluation(features, labels, k, 6, metric=metric, seed=3), want)


@pytest.mark.parametrize(
    "k, n_repeats, metric, train_fraction, message, scale",
    [
        (0, 2, "raw", 0.8, "k must be a positive integer, got 0", 1.0),
        (3.0, 2, "raw", 0.8, "k must be a positive integer, got 3.0", 1.0),
        (41, 2, "raw", 0.8, "k=41 exceeds the 40 training points", 1.0),
        (3, 2, "cosine", 0.8, "metric must be one of ('raw', 'log'), got 'cosine'", 1.0),
        (3, 0, "raw", 0.8, "need at least one repeat, got 0", 1.0),
        (3, 0, "raw", 1.0, "train fraction must lie in (0, 1), got 1.0", 1.0),
        # features whose raw distances would overflow: the arguments are checked before any arithmetic
        (3, 2, "bogus", 0.8, "metric must be one of ('raw', 'log'), got 'bogus'", 1e300),
        (3, 2, "LOG", 0.8, "metric must be one of ('raw', 'log'), got 'LOG'", 1e300),
    ],
    ids=["0-2-raw", "3.0-2-raw", "41-2-raw", "3-2-cosine", "3-0-raw", "3-0-raw-fraction-1", "3-2-bogus-1e300", "3-2-LOG-1e300"],
)
def test_bad_arguments_raise_as_the_reference_does(k, n_repeats, metric, train_fraction, message, scale):
    features, labels = np.arange(50.0)[:, None] * scale, np.array(["a", "b"] * 25)
    arguments = dict(metric=metric, train_fraction=train_fraction)
    with pytest.raises(ValueError) as want:
        per_split_repeated_evaluation(features, labels, k, n_repeats, **arguments)
    with pytest.raises(ValueError) as got:
        seeded_evaluation(features, labels, k, n_repeats, **arguments)
    assert str(got.value) == str(want.value) == message


@pytest.mark.parametrize("k", [3, 240])
def test_no_distance_block_exceeds_the_block_budget(k, monkeypatch):
    """Ranking the heads never builds the (n, n) distance matrix, also when
    k is so large that a head is a whole row."""
    n = 300
    monkeypatch.setattr(classify, "_BLOCK_BYTES", 64 << 10)
    requested = []
    distances = classify._distances

    def spy(space, queries):
        requested.append(8 * len(space) * len(queries))
        return distances(space, queries)

    monkeypatch.setattr(classify, "_distances", spy)
    rng = np.random.default_rng(0)
    features, labels = rng.uniform(0, 1, size=(n, 4)), np.array(["a", "b", "c"] * (n // 3))
    seeded_evaluation(features, labels, k, 5)
    assert requested
    assert max(requested) <= max(classify._BLOCK_BYTES, 8 * n)
