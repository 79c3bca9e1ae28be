"""The repeated accuracy of an exact kNN classifier over seeded
train/validation splits of one feature matrix."""

from __future__ import annotations

import math
import sys

import numpy as np

METRICS = ("raw", "log")
_LOG_FLOOR = 1e-300  # keeps log-energy finite for exactly-zero features


def draw_splits(
    labels, n_repeats: int, *, train_fraction: float = 0.8, seed: int = 0, stratified: bool = True
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The ascending train and validation rows of n_repeats seeded splits of
    the rows of `labels`, the i-th seeded seed + i. A split shuffles each
    class, in order of first appearance, when stratified, else all rows, by
    one rng.permutation call per group, each of >= 2 rows; the first
    round(train_fraction * size) rows of each group's permutation, half up
    and clamped so that both sides keep one, train."""
    if not 0 < train_fraction < 1:
        raise ValueError(f"train fraction must lie in (0, 1), got {train_fraction}")
    if n_repeats < 1:
        raise ValueError(f"need at least one repeat, got {n_repeats}")
    labels = np.asarray(labels)
    if not stratified and len(labels) < 2:
        raise ValueError(f"split needs >= 2 samples, got {len(labels)}")
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    groups = [np.flatnonzero(inverse == c) for c in np.argsort(first)] if stratified else [np.arange(len(labels))]
    for group in groups:
        if len(group) < 2:
            raise ValueError(f"stratified split needs >= 2 samples per class; {labels[group[0]].item()!r} has {len(group)}")
    splits = []
    for i in range(n_repeats):
        rng = np.random.default_rng(seed + i)
        in_train = np.zeros(len(labels), dtype=bool)
        for group in groups:
            n_train = min(max(math.floor(train_fraction * len(group) + 0.5), 1), len(group) - 1)
            in_train[group[rng.permutation(len(group))[:n_train]]] = True
        splits.append((np.flatnonzero(in_train), np.flatnonzero(~in_train)))
    return splits


def _to_space(x: np.ndarray, metric: str) -> np.ndarray:
    if metric == "log":
        if (low := float(np.min(x, initial=np.inf, where=x > 0))) < _LOG_FLOOR:
            raise FloatingPointError(f"features fall to {low:g}, under the log floor {_LOG_FLOOR:g}, too small for log space")
        return np.log(np.maximum(x, _LOG_FLOOR))
    return x


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


def _head_width(n: int, k: int) -> int:
    """Points ranked per row of a feature set, enough that a split rarely
    leaves fewer than k training points among them."""
    return min(n, 4 * k + 32)


def repeated_evaluation(features, labels, splits, k: int, *, metric: str = "raw") -> tuple[tuple[str, ...], np.ndarray]:
    """Score the kNN classifier on each (train, validation) split of the
    rows of one (n, dim) feature matrix, ascending rows as draw_splits gives
    them: the sorted label names, and a (len(splits), C, C) int64 stack of
    confusion matrices (rows true, columns predicted), one per split. Each
    validation row takes the majority label of its k nearest training rows
    by Euclidean distance in metric space. A distance tie goes to the lower
    training index, a vote tie to the label of the nearest neighbor among
    the tied labels. No split may train fewer than k rows.

    The matrix is mapped to metric space once, and the head of each row
    some split validates, its first `_head_width` points in (distance,
    index) order, is ranked once. Training indices ascend, so a validation
    row's k nearest training points are the first k training members of its
    head; a row whose head holds fewer is ranked against that split's
    training rows alone. Features whose distances could overflow (NaN
    entries aside) raise OverflowError, and features too small to tell apart
    (in log space, any positive one under _LOG_FLOOR) FloatingPointError.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or len(features) != len(labels):
        raise ValueError(f"need an (n, dimension) feature matrix and n labels, got {features.shape} and {len(labels)}")
    space = _to_space(features, metric)
    reach = float(np.fmax.reduce(np.abs(space), axis=None, initial=0.0))
    if not 2 * reach * math.sqrt(space.shape[1]) <= math.sqrt(sys.float_info.max):  # bounds dim * (2 * reach)**2
        raise OverflowError(f"features reach {reach:g} in {metric} space, too large for finite kNN distances")
    if 0 < reach and reach * reach < sys.float_info.min:  # the largest square is subnormal: distances underflow
        raise FloatingPointError(f"features reach {reach:g} in {metric} space, too small for kNN distances to tell apart")
    if not splits:
        raise ValueError("need at least one split")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > (n_train := min(len(train) for train, _ in splits)):
        raise ValueError(f"k={k} exceeds the {n_train} training points")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    names, codes = np.unique(labels, return_inverse=True)
    # Heads only for rows some split validates, only among rows some split trains on.
    trained, queried = (np.unique(np.concatenate(side)) for side in zip(*splits))
    slot = np.empty(len(space), dtype=np.intp)
    slot[queried] = np.arange(len(queried))
    head = trained[_nearest_blocks(space[trained], space[queried], _head_width(len(trained), k))]
    in_train = np.zeros(len(space), dtype=bool)
    confusions = np.zeros((len(splits), len(names), len(names)), dtype=np.int64)
    for confusion, (train, validation) in zip(confusions, splits):
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
        np.add.at(confusion, (codes[validation], _vote(codes[neighbors], len(names))), 1)
    return tuple(names.tolist()), confusions
