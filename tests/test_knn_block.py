"""Differential tests of the kNN engine that repeated_evaluation runs on, the
block ranking of `_nearest_blocks` and the vote of `_vote`, against the
per-query predictor it replaced and against the brute-force oracle."""

import math

import numpy as np
import pytest

from pehfault import classify
from pehfault.classify import _distances
from tests.test_classify import brute_force_predict, engine_labels, matrix

_LOG_FLOOR = 1e-300


def _to_space(x: np.ndarray, metric: str) -> np.ndarray:
    if metric == "log":
        return np.log(np.maximum(x, _LOG_FLOOR))
    return x


def per_query_knn_predict(features, labels, k, metric, feature) -> str:
    """The per-query predictor the block ranking replaced, kept verbatim as
    the reference, except that the training matrix, labels, k and metric,
    which a fitted model held, are passed in.

    Distance ties resolve to the lower training index; vote ties resolve to
    the label of the nearest neighbor among the tied labels.
    """
    query = np.atleast_1d(np.asarray(feature, dtype=np.float64))
    if query.shape != (features.shape[1],):
        raise ValueError(f"query dimension {query.shape} does not match model dimension {features.shape[1]}")
    deltas = _to_space(features, metric) - _to_space(query, metric)
    distances = np.sqrt((deltas**2).sum(axis=1))
    order = np.argsort(distances, kind="stable")[:k]
    votes: dict[str, int] = {}
    for i in order:
        label = labels[i]
        votes[label] = votes.get(label, 0) + 1
    best = max(votes.values())
    for i in order:
        if votes[labels[i]] == best:
            return labels[i]
    raise AssertionError("unreachable: some neighbor must carry the winning label")


def instance(rng, dim, integer, metric):
    """Random training points, queries and k. Integer coordinates in a small
    range make distance ties, also at the k-th distance, frequent. In log
    space they are 0 (floored) or 1, so every squared difference is 0 or one
    constant and equal counts of differing coordinates sum to equal distances."""
    n = int(rng.integers(2, 41))

    def draw(size):
        if not integer:
            return rng.uniform(1e-3, 1.0, size=size)
        low, high = (0, 2) if metric == "log" else (-3, 4)
        return rng.integers(low, high, size=size).astype(float)

    points = [(draw(dim), str(rng.choice(["x", "y", "z"]))) for _ in range(n)]
    queries = draw((int(rng.integers(1, 30)), dim))
    return points, queries, int(rng.integers(1, n + 1))


def oracle_predict(points, k, query, metric):
    """brute_force_predict on the points and query mapped into metric space."""
    mapped = [(_to_space(vector, metric), label) for vector, label in points]
    return brute_force_predict(mapped, k, _to_space(query, metric))


# 8 MB, like the 1 MB default, takes every instance in one block.
@pytest.mark.parametrize("block_bytes", [1, 500, 8 << 20])
@pytest.mark.parametrize("integer", [True, False], ids=["integer", "float"])
@pytest.mark.parametrize("metric", classify.METRICS)
@pytest.mark.parametrize("dim", range(1, 13))
def test_block_matches_per_query_reference_and_oracle(dim, metric, integer, block_bytes, monkeypatch):
    monkeypatch.setattr(classify, "_BLOCK_BYTES", block_bytes)
    rng = np.random.default_rng([dim, len(metric), int(integer)])
    # numpy's .sum adds 8 or more terms pairwise, not in index order, so the
    # per-query reference rounds like the oracle only below 8 dimensions or
    # when every sum is exact (integer coordinates in raw space).
    exact_reference = dim < 8 or (integer and metric == "raw")
    boundary_ties = 0
    for _ in range(6):
        points, queries, k = instance(rng, dim, integer, metric)
        features, labels = matrix(points)
        predicted = engine_labels(points, k, queries, metric)
        assert len(predicted) == len(queries)
        for query, label in zip(queries, predicted):
            assert label == oracle_predict(points, k, query, metric)
            if exact_reference:
                assert label == per_query_knn_predict(features, labels, k, metric, query)
        ranked = np.sort(_distances(_to_space(features, metric), _to_space(queries, metric)), axis=1)
        if k < len(points):
            boundary_ties += int((ranked[:, k - 1] == ranked[:, k]).sum())
    if integer:
        assert boundary_ties > 0, "no query had more than k points within its k-th distance"


@pytest.mark.parametrize("metric", classify.METRICS)
@pytest.mark.parametrize("dim", range(1, 13))
def test_distances_equal_oracle_sum_bit_for_bit(dim, metric):
    rng = np.random.default_rng(dim)
    space = _to_space(rng.uniform(1e-3, 1.0, size=(17, dim)), metric)
    queries = _to_space(rng.uniform(1e-3, 1.0, size=(5, dim)), metric)
    # Squares as products: numpy squares by multiplying, while Python's ** on
    # a float calls libm pow, which rounds a few squares in 10^4 differently.
    expected = [[math.sqrt(sum((x - q) * (x - q) for x, q in zip(point, query))) for point in space] for query in queries]
    assert np.array_equal(_distances(space, queries), np.array(expected))

