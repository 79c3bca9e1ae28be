"""Seeded stratified splitting, an exact small-scale kNN classifier, accuracy
evaluation, and the design x integration-period sweep."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, replace
from typing import Sequence

import numpy as np

from .dataset import Manifest, build_feature_sets, csv_text
from .harvester import PehDesign

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


def knn_fit(features, labels, k: int, metric: str = "raw") -> KnnModel:
    """Store an (n, dim) training matrix with the labels of its n rows."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > len(features):
        raise ValueError(f"k={k} exceeds the {len(features)} training points")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or len(features) != len(labels):
        raise ValueError(f"need an (n, dimension) feature matrix and n labels, got {features.shape} and {len(labels)}")
    classes, codes = np.unique(labels, return_inverse=True)
    return KnnModel(k, metric, _to_space(features, metric), tuple(classes.tolist()), codes)


# Bytes of one (queries x train) float64 distance block; queries are taken in
# blocks of as many rows as fit, at least one.
_BLOCK_BYTES = 8 << 20


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
    block = _to_space(block, model.metric)
    rows = max(1, _BLOCK_BYTES // (8 * len(model.space)))
    winners = []
    for start in range(0, len(block), rows):
        neighbors = model.codes[_nearest(_distances(model.space, block[start : start + rows]), model.k)]
        # votes per label code; the nearest neighbor whose label has the most wins
        votes = (neighbors[:, :, None] == np.arange(len(model.classes))).sum(axis=1)
        held = np.take_along_axis(votes, neighbors, axis=1)
        first_best = np.argmax(held == held.max(axis=1, keepdims=True), axis=1)
        winners.extend(neighbors[np.arange(len(neighbors)), first_best].tolist())
    labels = tuple(model.classes[code] for code in winners)
    return labels[0] if single else labels


@dataclass(frozen=True)
class EvalReport:
    """Accuracy plus the label-by-label confusion matrix (rows true, columns predicted)."""

    accuracy: float
    labels: tuple[str, ...]
    confusion: np.ndarray
    config: dict = field(default_factory=dict)


def evaluate(model: KnnModel, features, labels, config: dict | None = None) -> EvalReport:
    """Predict the rows of an (n, dim) validation matrix and score them against their labels."""
    if len(labels) == 0:
        raise ValueError("validation set is empty")
    names = np.union1d(model.classes, labels)
    predicted = knn_predict(model, features)
    confusion = np.zeros((len(names), len(names)), dtype=np.int64)
    np.add.at(confusion, (np.searchsorted(names, labels), np.searchsorted(names, predicted)), 1)
    accuracy = float(np.trace(confusion) / confusion.sum())
    return EvalReport(accuracy, tuple(names.tolist()), confusion, dict(config or {}))


def repeated_evaluation(
    features,
    labels,
    k: int,
    split_cfg: SplitConfig,
    n_repeats: int,
    metric: str = "raw",
    config: dict | None = None,
) -> list[EvalReport]:
    """Repeat split/fit/evaluate on the rows of one feature matrix with seeds split_cfg.seed + i."""
    if n_repeats < 1:
        raise ValueError(f"need at least one repeat, got {n_repeats}")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    reports = []
    for i in range(n_repeats):
        cfg_i = replace(split_cfg, seed=split_cfg.seed + i)
        train, validation = split(labels, cfg_i)
        model = knn_fit(features[train], labels[train], k, metric)
        echo = dict(config or {})
        echo.update(seed=cfg_i.seed, k=k, n_train=len(train), n_validation=len(validation))
        reports.append(evaluate(model, features[validation], labels[validation], echo))
    return reports


@dataclass(frozen=True)
class SweepRow:
    design: str
    thickness_mm: float
    t_s: float
    mean_accuracy: float
    std_accuracy: float
    n_repeats: int
    seed0: int


def accuracy_sweep(
    manifest: Manifest,
    designs: Sequence[PehDesign],
    t_values: Sequence[float],
    *,
    segment_s: float,
    segments_per_recording: int,
    r_ohm: float,
    k: int,
    split_cfg: SplitConfig,
    n_repeats: int,
    metric: str = "raw",
) -> list[SweepRow]:
    """Mean/std accuracy for every (design, integration period) combination.

    Features for all combinations come from one pass over the recordings
    (see build_feature_sets); each combination reuses the same seed sequence
    so rows are comparable. Rows are in design order, then period order.
    """
    feature_rows, sets = build_feature_sets(manifest, designs, segment_s, segments_per_recording, t_values, r_ohm)
    rows = []
    for design, design_sets in zip(designs, sets):
        for t_s, features in zip(t_values, design_sets):
            reports = repeated_evaluation(features, feature_rows.labels, k, split_cfg, n_repeats, metric)
            accuracies = np.array([r.accuracy for r in reports])
            rows.append(
                SweepRow(
                    design=design.name,
                    thickness_mm=design.thickness_mm,
                    t_s=t_s,
                    mean_accuracy=float(accuracies.mean()),
                    std_accuracy=float(accuracies.std()),
                    n_repeats=n_repeats,
                    seed0=split_cfg.seed,
                )
            )
    return rows


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    header = ["design", "thickness_mm", "T_s", "mean_accuracy", "std_accuracy", "n_repeats", "seed0"]
    return csv_text(header, map(astuple, rows))
