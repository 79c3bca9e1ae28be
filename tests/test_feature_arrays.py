"""Differential tests of the array forms of the kNN split (`draw_splits`)
and of `mean_state_energy` against the (vector, label) pair forms they
replaced, kept verbatim below as the reference, of the threaded feature
pipeline and the thought experiment against the per-segment segment ->
simulate_voltage -> make_feature chain of tests/oracles.py, of the blocked
pipeline against the per-recording one there, and of the feature kernel
against its one-call-per-row form there."""

import itertools
import math
import os
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pehfault.dataset
from pehfault.classify import draw_splits
from pehfault.dataset import build_feature_sets, filter_and_integrate, load_manifest, load_recording, write_recording_f32
from pehfault.errors import DataError
from pehfault.frontend import mean_state_energy
from pehfault.harvester import DEFAULT_DESIGNS, design_from_thickness, filter_coefficients
from pehfault.report import run_thought_experiment
from pehfault.signals import synth_sine
from tests.oracles import filter_and_integrate_rows, make_feature, per_recording_feature_sets, segment, simulate_voltage


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
    cfg = SimpleNamespace(train_fraction=fraction, seed=seed, stratified=stratified)
    items = list(enumerate(labels))
    try:
        expected = pair_split(items, cfg, label_of=lambda item: item[1])
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            draw_splits(labels, 1, train_fraction=fraction, seed=seed, stratified=stratified)
        assert str(info.value) == str(exc)
        return
    ((train, validation),) = draw_splits(labels, 1, train_fraction=fraction, seed=seed, stratified=stratified)
    assert train.tolist() == [i for i, _ in expected[0]]
    assert validation.tolist() == [i for i, _ in expected[1]]


def test_split_visits_classes_in_order_of_first_appearance():
    """Sorted order would give the first permutation to "a", not "b", and move
    the split."""
    labels = ["b", "a", "b", "c", "a", "c", "b", "a", "c", "b", "a", "c"]
    items = list(enumerate(labels))
    for seed in range(20):
        cfg = SimpleNamespace(train_fraction=0.5, seed=seed, stratified=True)
        ((train, validation),) = draw_splits(labels, 1, train_fraction=0.5, seed=seed)
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


DESIGNS = [design_from_thickness(t) for t in (0.35, 0.45, 0.50)]
PERIODS = [0.1, 0.25, 0.15]
SEGMENT_S, SEGMENTS = 0.5, 3
R_OHM = 3.3  # with fs, a divisor whose reciprocal is inexact, so x * (1 / s) != x / s shows


@pytest.fixture(scope="module")
def mixed_length_manifest(tmp_path_factory):
    """Seven noise-plus-tone recordings at 8000 Hz whose lengths differ, all
    long enough for SEGMENTS segments and some with a partial tail."""
    root = tmp_path_factory.mktemp("mixed_lengths")
    rng = np.random.default_rng(11)
    lines = ["path,label,bearing_type,load_w,fs_hz"]
    for i, n in enumerate((12000, 12001, 20000, 12800, 16384, 13001, 30000)):
        t = np.arange(n) / 8000.0
        samples = rng.standard_normal(n) * 0.3 + np.sin(2 * np.pi * rng.uniform(100, 250) * t)
        name = f"r{i}.f32"
        write_recording_f32(samples, 8000.0, root / name)
        lines.append(f"{name},{('healthy', 'ball_crack')[i % 2]},6204,0,8000")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    return load_manifest(root / "manifest.csv")


def per_segment_reference(manifest, designs, periods):
    """sets[i][j] as the per-segment loop builds it: segment, then one
    simulate_voltage per design, then one make_feature per period."""
    sets = [[[] for _ in periods] for _ in designs]
    for meta in manifest.entries:
        for piece in segment(load_recording(meta, manifest.root), SEGMENT_S, SEGMENTS):
            for design, design_sets in zip(designs, sets):
                voltage = simulate_voltage(design, piece)
                for period_s, rows in zip(periods, design_sets):
                    rows.append(make_feature(voltage, period_s, R_OHM))
    return [[np.vstack(rows) for rows in design_sets] for design_sets in sets]


@pytest.mark.parametrize("cpus", [{0}, {0, 1}, {0, 1, 2, 3}])
def test_pipeline_equals_the_per_segment_loop_bit_for_bit(cpus, mixed_length_manifest, monkeypatch):
    """One worker, two, and more than this machine may have cores, switching
    threads every few microseconds: each must give the reference's matrices,
    so a row written to the wrong place or twice shows."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sets = build_feature_sets(mixed_length_manifest, DESIGNS, SEGMENT_S, SEGMENTS, PERIODS, R_OHM)
    finally:
        sys.setswitchinterval(interval)
    expected = per_segment_reference(mixed_length_manifest, DESIGNS, PERIODS)
    assert len(sets) == len(DESIGNS) and all(len(design_sets) == len(PERIODS) for design_sets in sets)
    for design_sets, design_expected in zip(sets, expected):
        for got, want in zip(design_sets, design_expected):
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got, want)



# Rates at which a 0.01 s segment gives 40, 40 and 50 samples, and each period
# of STACK_PERIODS the same feature count: 4000 and 4001 Hz differ in rate
# alone, so they must not share a block.
STACK_RATES = (4000, 4001, 5000)
STACK_SEGMENT_S = 0.01
STACK_PERIODS = (0.01, 0.005, 0.0025)


@st.composite
def stacked_corpora(draw):
    """A manifest of 1-9 recordings in runs of one rate, each long enough
    for its segments plus a drawn tail, raw or text; one in ten text ones is
    scaled to 1e200, so its features overflow. With the segment count, a
    block cap on both sides of a recording's stacked samples (40-150), 1-3
    designs and 1-3 periods."""
    count = draw(st.integers(1, 3))
    runs = draw(st.lists(st.tuples(st.sampled_from(STACK_RATES), st.integers(1, 4)), min_size=1, max_size=3))
    rates = [rate for rate, length in runs for _ in range(length)]
    recordings = [
        (rate, draw(st.integers(0, 30)), draw(st.booleans()), draw(st.integers(0, 9)) == 0) for rate in rates
    ]
    designs = draw(st.lists(st.sampled_from(DEFAULT_DESIGNS), min_size=1, max_size=3, unique=True))
    periods = draw(st.lists(st.sampled_from(STACK_PERIODS), min_size=1, max_size=3, unique=True))
    return count, recordings, draw(st.integers(1, 200)), designs, periods, draw(st.integers(0, 2**32))


def _write_corpus(root, count, recordings, seed):
    rng = np.random.default_rng(seed)
    lines = ["path,label,bearing_type,load_w,fs_hz"]
    for index, (rate, tail, text, huge) in enumerate(recordings):
        samples = rng.standard_normal(count * round(STACK_SEGMENT_S * rate) + tail) * (1e200 if text and huge else 1.0)
        name = f"r{index}.{'txt' if text else 'f32'}"
        if text:
            (root / name).write_text("".join(f"{v!r}\n" for v in samples.tolist()))
        else:
            write_recording_f32(samples, rate, root / name)
        lines.append(f"{name},{('healthy', 'ball_crack')[index % 2]},6204,0,{rate}")
    (root / "manifest.csv").write_text("\n".join(lines) + "\n")
    return load_manifest(root / "manifest.csv")


def _outcome(build):
    try:
        return build()
    except DataError as exc:
        return str(exc)


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
@settings(max_examples=60, deadline=None)
@given(stacked_corpora())
def test_stacked_blocks_equal_the_per_recording_pipeline_bit_for_bit(cpus, corpus):
    """Whatever the blocks (recordings one, several or all to a block, runs
    cut by rate changes, a cap below one recording's samples), the pipeline
    gives the per-recording pipeline's matrices, inf included, or its first
    error."""
    count, recordings, cap, designs, periods, seed = corpus
    with tempfile.TemporaryDirectory() as root, pytest.MonkeyPatch.context() as patch:
        manifest = _write_corpus(Path(root), count, recordings, seed)
        patch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        patch.setattr(pehfault.dataset, "BLOCK_SAMPLES", cap)
        args = (manifest, designs, STACK_SEGMENT_S, count, periods, 1.0)
        got, want = _outcome(lambda: build_feature_sets(*args)), _outcome(lambda: per_recording_feature_sets(*args))
    if isinstance(want, str):
        assert got == want
        return
    for design_sets, design_expected in zip(got, want, strict=True):
        for matrix, reference in zip(design_sets, design_expected, strict=True):
            assert matrix.dtype == np.float64 and matrix.shape == reference.shape
            assert np.array_equal(matrix.view(np.int64), reference.view(np.int64))


def test_thought_experiment_equals_the_per_segment_chain_bit_for_bit():
    """Every ordered pair of designs, each driven at its own resonance, at
    every period, load and rate of the grid: the pipeline's kernel must give
    the energies of simulate_voltage then make_feature exactly, so a changed
    scale, square or interval layout shows."""
    loads, f0s = (1.0, 47.0), [design.f0_hz for design in DEFAULT_DESIGNS]
    for period_s, fs in itertools.product((0.07, 1.0, 3.0, 4.0), (8000.0, 44100.0, 51200.0)):
        reference = {}
        for design, f_hz in itertools.product(DEFAULT_DESIGNS, f0s):
            voltage = simulate_voltage(design, synth_sine(f_hz, 1.0, 0.0, fs, period_s))
            for r_ohm in loads:
                reference[f_hz, design.name, r_ohm] = make_feature(voltage, period_s, r_ohm)[0]
        for design_a, design_b, r_ohm in itertools.product(DEFAULT_DESIGNS, DEFAULT_DESIGNS, loads):
            inputs = (design_a.f0_hz, design_b.f0_hz)
            got = run_thought_experiment(*inputs, design_a, design_b, period_s, r_ohm, fs)
            want = [[reference[f_hz, design.name, r_ohm] for design in (design_a, design_b)] for f_hz in inputs]
            assert np.array_equal(got, want), (design_a.name, design_b.name, period_s, r_ohm, fs)


@st.composite
def kernel_calls(draw):
    """One filter_and_integrate call: 1-6 segments of a drawn length at a
    drawn rate through one default design, 1-4 drawn windows plus one of a
    sample per interval, and each row scaled by up to 1e308, so some rows
    overflow in the square, in the filter or in the scaling itself."""
    segments, n_win = draw(st.integers(1, 6)), draw(st.integers(1, 3000))
    fs = draw(st.sampled_from([8000.0, 12800.0, 44100.0, 51200.0]))
    b, a = filter_coefficients(draw(st.sampled_from(DEFAULT_DESIGNS)), fs)
    n_pers = draw(st.lists(st.integers(1, n_win), min_size=1, max_size=4)) + [1]
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    scales = 10.0 ** np.array(draw(st.lists(st.integers(0, 308), min_size=segments, max_size=segments)), dtype=float)
    with np.errstate(over="ignore"):
        pieces = rng.standard_normal((segments, n_win)) * scales[:, None]
    return pieces, b, a, [(n_per, n_win // n_per) for n_per in n_pers], draw(st.sampled_from([1.0, 3.3])) * fs


@settings(max_examples=300, deadline=None)
@given(kernel_calls())
def test_the_kernel_equals_its_one_call_per_row_form_bit_for_bit(call):
    """The one-call kernel against the per-row loop it replaced: equal bits,
    inf and NaN included, for every window (n_per dividing n_win or not)."""
    got, want = filter_and_integrate(*call), filter_and_integrate_rows(*call)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.float64 and g.shape == w.shape
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
