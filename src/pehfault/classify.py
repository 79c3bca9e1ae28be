"""Seeded stratified splitting, an exact small-scale kNN classifier, and
repeated accuracy evaluation."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

METRICS = ("raw", "log")
_LOG_FLOOR = 1e-300  # keeps log-energy finite for exactly-zero features


@dataclass(frozen=True)
class SplitConfig:
    train_fraction: float = 0.8
    seed: int = 0
    stratified: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.train_fraction < 1:
            raise ValueError(f"train fraction must lie in (0, 1), got {self.train_fraction}")


def train_size(n: int, train_fraction: float) -> int:
    """Training members of a group of n: round(train_fraction * n), half up,
    clamped so both sides stay non-empty."""
    return min(max(math.floor(train_fraction * n + 0.5), 1), n - 1)


def split(labels, cfg: SplitConfig) -> tuple[np.ndarray, np.ndarray]:
    """Seeded train/validation partition of the rows with these labels: per
    class when stratified (classes in order of first appearance, each
    shuffled by one rng.permutation call), else of all rows at once; each
    group gets train_size of its rows.

    Returns the train and validation row indices, each ascending.
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng(cfg.seed)
    if cfg.stratified:
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        groups = [np.flatnonzero(inverse == c) for c in np.argsort(first)]
        for group in groups:
            if len(group) < 2:
                label = labels[group[0]].item()
                raise ValueError(f"stratified split needs >= 2 samples per class; {label!r} has {len(group)}")
    else:
        if len(labels) < 2:
            raise ValueError(f"split needs >= 2 samples, got {len(labels)}")
        groups = [np.arange(len(labels))]
    in_train = np.zeros(len(labels), dtype=bool)
    for group in groups:
        in_train[group[rng.permutation(len(group))[: train_size(len(group), cfg.train_fraction)]]] = True
    return np.flatnonzero(in_train), np.flatnonzero(~in_train)


@dataclass(frozen=True)
class KnnModel:
    """Lazy learner: the training rows in metric space, which every
    prediction reuses, and their labels as codes into the sorted `classes`."""

    k: int
    metric: str
    space: np.ndarray
    classes: tuple[str, ...]
    codes: np.ndarray


def _to_space(x: np.ndarray, metric: str) -> np.ndarray:
    if metric == "log":
        return np.log(np.maximum(x, _LOG_FLOOR))
    return x


def _feature_matrix(features, labels) -> np.ndarray:
    """`features` as float64, which must be an (n, dimension) matrix for the n labels."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or len(features) != len(labels):
        raise ValueError(f"need an (n, dimension) feature matrix and n labels, got {features.shape} and {len(labels)}")
    return features


def knn_fit(features, labels, k: int, metric: str = "raw") -> KnnModel:
    """Store an (n, dim) training matrix with the labels of its n rows."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > len(features):
        raise ValueError(f"k={k} exceeds the {len(features)} training points")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    features = _feature_matrix(features, labels)
    classes, codes = np.unique(labels, return_inverse=True)
    return KnnModel(k, metric, _to_space(features, metric), tuple(classes.tolist()), codes)


# Bytes of one (queries x train) float64 distance block; queries are taken in
# blocks of as many rows as fit, at least one.
_BLOCK_BYTES = 1 << 20


def _distances(space: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """(queries x train) Euclidean distances in metric space. Squared
    differences are added one dimension at a time in index order, the
    brute-force oracle's sum, so equal sums and hence ties are the same."""
    total = np.zeros((len(queries), len(space)))
    delta = np.empty_like(total)
    for j in range(space.shape[1]):
        np.subtract(space[:, j], queries[:, j, None], out=delta)
        total += np.multiply(delta, delta, out=delta)
    return np.sqrt(total, out=total)


def _nearest(distances: np.ndarray, k: int) -> np.ndarray:
    """Per row, the indices of the k nearest points in (distance, index)
    order: the first k of a stable argsort of the row."""
    chosen = np.sort(np.argpartition(distances, k - 1, axis=1)[:, :k], axis=1)
    by_distance = np.argsort(np.take_along_axis(distances, chosen, axis=1), axis=1, kind="stable")
    order = np.take_along_axis(chosen, by_distance, axis=1)
    # Unless exactly k points lie within the k-th distance (more tie at it, or
    # a NaN distance compares false), the partition may have picked the wrong
    # ones, so sort the row in full.
    kth = np.take_along_axis(distances, order[:, -1:], axis=1)
    for row in np.flatnonzero((distances <= kth).sum(axis=1) != k):
        order[row] = np.argsort(distances[row], kind="stable")[:k]
    return order


def _nearest_blocks(space: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """`_nearest(_distances(space, queries), k)`, computed for consecutive
    blocks of query rows so that each block's distances fit _BLOCK_BYTES."""
    order = np.empty((len(queries), k), dtype=np.intp)
    rows = max(1, _BLOCK_BYTES // (8 * len(space)))
    for start in range(0, len(queries), rows):
        order[start : start + rows] = _nearest(_distances(space, queries[start : start + rows]), k)
    return order


def _vote(neighbors: np.ndarray, n_classes: int) -> np.ndarray:
    """Per row of neighbor label codes, nearest first, the winning code: the
    label with the most votes; a tie goes to the label of the nearest
    neighbor among the tied labels."""
    votes = (neighbors[:, :, None] == np.arange(n_classes)).sum(axis=1)
    held = np.take_along_axis(votes, neighbors, axis=1)
    first_best = np.argmax(held == held.max(axis=1, keepdims=True), axis=1)
    return neighbors[np.arange(len(neighbors)), first_best]


def knn_predict(model: KnnModel, queries):
    """Majority label among the k nearest points by Euclidean distance.

    `queries` is one vector, which returns one label, or a 2-D block of query
    rows, which returns a tuple of labels. Distance ties resolve to the lower
    training index; vote ties resolve to the label of the nearest neighbor
    among the tied labels.
    """
    block = np.asarray(queries, dtype=np.float64)
    single = block.ndim < 2
    block = np.atleast_2d(block)
    dim = model.space.shape[1]
    if block.shape[1:] != (dim,):
        raise ValueError(f"query dimension {block.shape[1:]} does not match model dimension {dim}")
    order = _nearest_blocks(model.space, _to_space(block, model.metric), model.k)
    labels = tuple(model.classes[code] for code in _vote(model.codes[order], len(model.classes)).tolist())
    return labels[0] if single else labels


@dataclass(frozen=True)
class EvalReport:
    """Accuracy plus the label-by-label confusion matrix (rows true, columns predicted)."""

    accuracy: float
    labels: tuple[str, ...]
    confusion: np.ndarray


def _report(names: np.ndarray, true: np.ndarray, predicted: np.ndarray) -> EvalReport:
    """Score predicted against true label codes, both indices into `names`."""
    confusion = np.zeros((len(names), len(names)), dtype=np.int64)
    np.add.at(confusion, (true, predicted), 1)
    accuracy = float(np.trace(confusion) / confusion.sum())
    return EvalReport(accuracy, tuple(names.tolist()), confusion)


def evaluate(model: KnnModel, features, labels) -> EvalReport:
    """Predict the rows of an (n, dim) validation matrix and score them against their labels."""
    if len(labels) == 0:
        raise ValueError("validation set is empty")
    names = np.union1d(model.classes, labels)
    predicted = knn_predict(model, features)
    return _report(names, np.searchsorted(names, labels), np.searchsorted(names, predicted))


def _head_width(n: int, k: int) -> int:
    """Points ranked per row of a feature set, enough that a split rarely
    leaves fewer than k training points among them."""
    return min(n, 4 * k + 32)


def repeated_evaluation(
    features,
    labels,
    k: int,
    split_cfg: SplitConfig,
    n_repeats: int,
    metric: str = "raw",
) -> list[EvalReport]:
    """Repeat split/fit/evaluate on the rows of one feature matrix: report i
    equals `evaluate(knn_fit(...), ...)` on the split seeded
    split_cfg.seed + i.

    The matrix is mapped to metric space once, and the head of each row
    some split validates, its first `_head_width` points in (distance,
    index) order, is ranked once. Training indices ascend, so a validation
    row's k nearest training points are the first k training members of its
    head; a row whose head holds fewer is ranked against that split's
    training rows alone. Features whose distances could overflow (NaN
    entries aside) raise OverflowError before any split is drawn.
    """
    if n_repeats < 1:
        raise ValueError(f"need at least one repeat, got {n_repeats}")
    features = _feature_matrix(features, labels)
    space = _to_space(features, metric)
    reach = float(np.fmax.reduce(np.abs(space), axis=None, initial=0.0))
    if not 2 * reach * math.sqrt(space.shape[1]) <= math.sqrt(sys.float_info.max):  # bounds dim * (2 * reach)**2
        raise OverflowError(f"features reach {reach:g} in {metric} space, too large for finite kNN distances")
    labels = np.asarray(labels)
    splits = [split(labels, replace(split_cfg, seed=split_cfg.seed + i)) for i in range(n_repeats)]
    # knn_fit's checks depend on the split only through its size, which every seed shares.
    knn_fit(features[splits[0][0]], labels[splits[0][0]], k, metric)
    names, codes = np.unique(labels, return_inverse=True)
    # Heads only for rows some split validates, only among rows some split trains on.
    trained, queried = (np.unique(np.concatenate(side)) for side in zip(*splits))
    slot = np.empty(len(space), dtype=np.intp)
    slot[queried] = np.arange(len(queried))
    head = trained[_nearest_blocks(space[trained], space[queried], _head_width(len(trained), k))]
    in_train = np.zeros(len(space), dtype=bool)
    reports = []
    for train, validation in splits:
        in_train[:] = False
        in_train[train] = True
        candidates = head[slot[validation]]
        member = in_train[candidates]
        rank = np.cumsum(member, axis=1)
        full = rank[:, -1] >= k
        neighbors = np.empty((len(validation), k), dtype=np.intp)
        neighbors[full] = candidates[full][(member & (rank <= k))[full]].reshape(-1, k)
        short = validation[~full]
        if short.size:
            neighbors[~full] = train[_nearest_blocks(space[train], space[short], k)]
        reports.append(_report(names, codes[validation], _vote(codes[neighbors], len(names))))
    return reports
