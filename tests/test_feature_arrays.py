"""Differential tests of the array forms of `split` and `mean_state_energy`
against the (vector, label) pair forms they replaced, kept verbatim below as
the reference."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pehfault.classify import SplitConfig, split
from pehfault.frontend import mean_state_energy


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def pair_split(items, cfg, label_of=lambda item: item.label):
    """The pair-based split the array split replaced, kept verbatim."""
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


def pair_mean_state_energy(features):
    """The pair-based mean_state_energy the array form replaced, kept verbatim."""
    sums: dict = {}
    counts: dict = {}
    for values, label in features:
        values = np.ravel(values)
        sums[label] = sums.get(label, 0.0) + float(values.sum())
        counts[label] = counts.get(label, 0) + len(values)
    if not sums:
        raise ValueError("no features given")
    return {label: sums[label] / counts[label] for label in sums}


STATES = ("healthy", "inner_crack", "outer_crack", "ball_crack", "inner_outer", "inner_ball", "outer_ball")


@st.composite
def interleaved_labels(draw, min_per_class=1):
    """1 to 7 labels, each on min_per_class to 12 rows, in a drawn order: the
    classes interleave and their first appearances need not be sorted."""
    names = draw(st.lists(st.sampled_from(STATES), min_size=1, max_size=7, unique=True))
    sizes = draw(st.lists(st.integers(min_per_class, 12), min_size=len(names), max_size=len(names)))
    return draw(st.permutations([name for name, size in zip(names, sizes) for _ in range(size)]))


@settings(max_examples=300)
@given(
    interleaved_labels(),
    st.integers(min_value=0, max_value=2**32),
    st.floats(min_value=0.01, max_value=0.99),
    st.booleans(),
)
def test_array_split_picks_the_pair_split_members_in_order(labels, seed, fraction, stratified):
    cfg = SplitConfig(train_fraction=fraction, seed=seed, stratified=stratified)
    items = list(enumerate(labels))
    try:
        expected = pair_split(items, cfg, label_of=lambda item: item[1])
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            split(np.array(labels), cfg)
        assert str(info.value) == str(exc)
        return
    train, validation = split(np.array(labels), cfg)
    assert train.tolist() == [i for i, _ in expected[0]]
    assert validation.tolist() == [i for i, _ in expected[1]]


def test_split_visits_classes_in_order_of_first_appearance():
    """Sorted order would give the first permutation to "a", not "b", and move
    the split."""
    labels = ["b", "a", "b", "c", "a", "c", "b", "a", "c", "b", "a", "c"]
    items = list(enumerate(labels))
    for seed in range(20):
        cfg = SplitConfig(0.5, seed=seed)
        train, validation = split(np.array(labels), cfg)
        expected_train, expected_validation = pair_split(items, cfg, label_of=lambda item: item[1])
        assert train.tolist() == [i for i, _ in expected_train]
        assert validation.tolist() == [i for i, _ in expected_validation]


@settings(max_examples=200)
@given(interleaved_labels(), st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**32))
def test_array_mean_state_energy_equals_the_pair_form_bit_for_bit(labels, dim, seed):
    rng = np.random.default_rng(seed)
    # Magnitudes over 15 decades, so a change in summation order shows in the last bits.
    features = rng.uniform(0.0, 1.0, size=(len(labels), dim)) * 10.0 ** rng.uniform(-12, 3, size=(len(labels), dim))
    expected = pair_mean_state_energy(list(zip(features, labels)))
    got = mean_state_energy(features, np.array(labels))
    assert got == expected
    assert all(type(value) is float for value in got.values())
