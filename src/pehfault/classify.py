"""Seeded stratified splitting, an exact small-scale kNN classifier, accuracy
evaluation, and the design x integration-period sweep."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .dataset import LabeledFeature, Manifest, build_feature_sets
from .harvester import PehDesign

__all__ = [
    "SplitConfig",
    "KnnModel",
    "EvalReport",
    "SweepRow",
    "split",
    "points_from_features",
    "knn_fit",
    "knn_predict",
    "evaluate",
    "repeated_evaluation",
    "accuracy_sweep",
    "sweep_csv",
]

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


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def split(items: Sequence, cfg: SplitConfig, label_of: Callable = lambda item: item.label):
    """Seeded train/validation partition; round(train_fraction * n) per class
    when stratified, clamped so both sides stay non-empty.

    Membership is randomized but each returned part preserves the input order.
    """
    rng = np.random.default_rng(cfg.seed)

    def pick(indices: list[int]) -> tuple[list[int], list[int]]:
        n_train = min(max(_round_half_up(cfg.train_fraction * len(indices)), 1), len(indices) - 1)
        shuffled = [indices[p] for p in rng.permutation(len(indices))]
        return shuffled[:n_train], shuffled[n_train:]

    if cfg.stratified:
        by_label: dict = {}
        for i, item in enumerate(items):
            by_label.setdefault(label_of(item), []).append(i)
        train_idx: list[int] = []
        val_idx: list[int] = []
        for label, indices in by_label.items():
            if len(indices) < 2:
                raise ValueError(f"stratified split needs >= 2 samples per class; {label!r} has {len(indices)}")
            tr, va = pick(indices)
            train_idx += tr
            val_idx += va
    else:
        if len(items) < 2:
            raise ValueError(f"split needs >= 2 samples, got {len(items)}")
        train_idx, val_idx = pick(list(range(len(items))))

    train_idx.sort()
    val_idx.sort()
    return [items[i] for i in train_idx], [items[i] for i in val_idx]


@dataclass(frozen=True)
class KnnModel:
    """Lazy learner: stores the training points verbatim."""

    k: int
    features: np.ndarray
    labels: tuple[str, ...]
    metric: str = "raw"


def points_from_features(features: Sequence[LabeledFeature]) -> list[tuple[np.ndarray, str]]:
    """(vector, label) pairs of pipeline output: the points fit/evaluate take."""
    return [(lf.values, lf.label.value) for lf in features]


def _to_space(x: np.ndarray, metric: str) -> np.ndarray:
    if metric == "log":
        return np.log(np.maximum(x, _LOG_FLOOR))
    return x


def knn_fit(train: Sequence, k: int, metric: str = "raw") -> KnnModel:
    """Store (vector, label) training points; vectors must share one dimension."""
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > len(train):
        raise ValueError(f"k={k} exceeds the {len(train)} training points")
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    vectors = [np.atleast_1d(np.asarray(vector, dtype=np.float64)) for vector, _ in train]
    dim = len(vectors[0])
    for v in vectors:
        if len(v) != dim:
            raise ValueError(f"inconsistent feature dimensions: {len(v)} vs {dim}")
    return KnnModel(k, np.vstack(vectors), tuple(label for _, label in train), metric)


def knn_predict(model: KnnModel, feature) -> str:
    """Majority label among the k nearest points by Euclidean distance.

    Distance ties resolve to the lower training index; vote ties resolve to
    the label of the nearest neighbor among the tied labels.
    """
    query = np.atleast_1d(np.asarray(feature, dtype=np.float64))
    if query.shape != (model.features.shape[1],):
        raise ValueError(f"query dimension {query.shape} does not match model dimension {model.features.shape[1]}")
    deltas = _to_space(model.features, model.metric) - _to_space(query, model.metric)
    distances = np.sqrt((deltas**2).sum(axis=1))
    order = np.argsort(distances, kind="stable")[: model.k]
    votes: dict[str, int] = {}
    for i in order:
        label = model.labels[i]
        votes[label] = votes.get(label, 0) + 1
    best = max(votes.values())
    for i in order:
        if votes[model.labels[i]] == best:
            return model.labels[i]
    raise AssertionError("unreachable: some neighbor must carry the winning label")


@dataclass(frozen=True)
class EvalReport:
    """Accuracy plus the label-by-label confusion matrix (rows true, columns predicted)."""

    accuracy: float
    labels: tuple[str, ...]
    confusion: np.ndarray
    config: dict = field(default_factory=dict)


def evaluate(model: KnnModel, validation: Sequence, config: dict | None = None) -> EvalReport:
    if not validation:
        raise ValueError("validation set is empty")
    labels = tuple(sorted(set(model.labels) | {label for _, label in validation}))
    index = {label: i for i, label in enumerate(labels)}
    confusion = np.zeros((len(labels), len(labels)), dtype=np.int64)
    for vector, label in validation:
        confusion[index[label], index[knn_predict(model, vector)]] += 1
    accuracy = float(np.trace(confusion) / confusion.sum())
    return EvalReport(accuracy, labels, confusion, dict(config or {}))


def repeated_evaluation(
    points: Sequence,
    k: int,
    split_cfg: SplitConfig,
    n_repeats: int,
    metric: str = "raw",
    config: dict | None = None,
) -> list[EvalReport]:
    """Repeat split/fit/evaluate with seeds split_cfg.seed + i."""
    if n_repeats < 1:
        raise ValueError(f"need at least one repeat, got {n_repeats}")
    reports = []
    for i in range(n_repeats):
        cfg_i = replace(split_cfg, seed=split_cfg.seed + i)
        train, validation = split(points, cfg_i, label_of=lambda point: point[1])
        model = knn_fit(train, k, metric)
        echo = dict(config or {})
        echo.update(seed=cfg_i.seed, k=k, n_train=len(train), n_validation=len(validation))
        reports.append(evaluate(model, validation, echo))
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
    sets = build_feature_sets(manifest, designs, segment_s, segments_per_recording, t_values, r_ohm)
    rows = []
    for design, design_sets in zip(designs, sets):
        for t_s, features in zip(t_values, design_sets):
            points = points_from_features(features)
            reports = repeated_evaluation(points, k, split_cfg, n_repeats, metric)
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


def _fmt(x: float) -> str:
    """The one number format of every CSV: repr, so values round-trip exactly."""
    return repr(float(x))


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["design,thickness_mm,T_s,mean_accuracy,std_accuracy,n_repeats,seed0"]
    for row in rows:
        lines.append(
            f"{row.design},{_fmt(row.thickness_mm)},{_fmt(row.t_s)},{_fmt(row.mean_accuracy)},"
            f"{_fmt(row.std_accuracy)},{row.n_repeats},{row.seed0}"
        )
    return "\n".join(lines) + "\n"
