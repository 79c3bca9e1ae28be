"""Independent references the tests check the package against.

The package computes features one way: `dataset.filter_and_integrate` on
whole segments. These are the older per-segment chain (`segment` ->
`simulate_voltage` -> `make_feature`), the kernel's one-call-per-row form
(`filter_and_integrate_rows`) and the spectral and frequency-response
oracles: the analytic FRF, the measured steady-state sine gain, Parseval
through a one-sided spectrum, and the digital band energy. The FRF-fidelity,
Parseval, `A^2*T/2`, per-segment and per-row differential tests run on them.
`per_recording_feature_sets` is the feature pipeline as it ran before it
stacked recordings into blocks: one recording at a time, serially.
`row_labels` is the label of each of its rows, which are the manifest's
entries x segments. `reference_split` is the seeded train/validation split
the kNN tests score their references on, written from the rule
`classify.draw_splits` documents, as ascending row indices; `mask_rows`
reads one of draw_splits' training masks in that form; `train_size` is the
training size per group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from pehfault.dataset import load_recording
from pehfault.errors import DataError
from pehfault.frontend import interval_samples
from pehfault.harvester import PehDesign, filter_coefficients
from pehfault.signals import TimeSeries, _check_rate_and_duration, _check_tone, synth_sine, window_samples


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum over [0, fs_origin/2].

    Interior bins carry a sqrt(2) factor so that sum(magnitudes**2) equals the
    two-sided Parseval total: sum(x**2) == sum(magnitudes**2) / N for a
    transform of length N.
    """

    magnitudes: np.ndarray
    df: float
    fs_origin: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "magnitudes", np.asarray(self.magnitudes, dtype=np.float64))

    @property
    def frequencies(self) -> np.ndarray:
        return np.arange(len(self.magnitudes)) * self.df


def synth_composite(
    tones: Iterable[tuple[float, float]],
    noise_sigma: float,
    fs: float,
    duration_s: float,
    seed: int,
) -> TimeSeries:
    """Sum of zero-phase sinusoids (f_hz, amplitude) plus seeded white Gaussian noise.

    Deterministic for a given seed.
    """
    _check_rate_and_duration(fs, duration_s)
    if noise_sigma < 0:
        raise ValueError(f"noise sigma must be non-negative, got {noise_sigma}")
    n = int(round(duration_s * fs))
    idx = np.arange(n)
    samples = np.zeros(n)
    for f_hz, amplitude in tones:
        _check_tone(f_hz, fs)
        samples += amplitude * np.sin(2 * np.pi * f_hz * idx / fs)
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        samples += noise_sigma * rng.standard_normal(n)
    return TimeSeries(samples, fs)


def fft_magnitude(ts: TimeSeries) -> Spectrum:
    """Energy-preserving one-sided magnitude spectrum, DC bin first.

    Uses the full series length as transform length (no zero-padding, no
    window), so bin spacing is fs/N.
    """
    n = len(ts)
    if n == 0:
        raise ValueError("cannot transform an empty series")
    mags = np.abs(np.fft.rfft(ts.samples))
    scale = np.full(len(mags), np.sqrt(2.0))
    scale[0] = 1.0
    if n % 2 == 0:
        scale[-1] = 1.0  # Nyquist bin appears once in the two-sided transform
    return Spectrum(mags * scale, df=ts.fs / n, fs_origin=ts.fs)


def band_energy_digital(ts: TimeSeries, f_lo: float, f_hi: float, r_ohm: float = 1.0) -> float:
    """Energy of the signal restricted to [f_lo, f_hi], computed spectrally.

    Selects bins whose center frequency lies in the closed band and applies
    Parseval; over [0, fs/2] this equals signal_energy exactly.
    """
    if not 0 <= f_lo < f_hi <= ts.fs / 2:
        raise ValueError(f"invalid band [{f_lo}, {f_hi}] for fs={ts.fs}: need 0 <= f_lo < f_hi <= fs/2")
    if r_ohm <= 0:
        raise ValueError(f"load resistance must be positive, got {r_ohm}")
    sp = fft_magnitude(ts)
    sel = (sp.frequencies >= f_lo) & (sp.frequencies <= f_hi)
    return float(np.sum(sp.magnitudes[sel] ** 2) / (len(ts) * r_ohm * ts.fs))


def segment(ts: TimeSeries, window_s: float, count: int) -> list[TimeSeries]:
    """Split into `count` contiguous non-overlapping windows starting at t=0.

    Each window holds round(window_s * fs) samples; the series must be long
    enough to supply all of them.
    """
    n_win = window_samples(len(ts), ts.fs, window_s, count)
    return [TimeSeries(ts.samples[i * n_win : (i + 1) * n_win], ts.fs) for i in range(count)]


def frf_magnitude(design: PehDesign, f_hz):
    """Analytic |H(j*2*pi*f)| in V/g: G / sqrt(1 + Q**2 * (f/f0 - f0/f)**2), 0 at f=0.

    Accepts a scalar or an array of frequencies.
    """
    f = np.asarray(f_hz, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("frequency must be non-negative")
    gain = np.zeros_like(f)
    nz = f > 0
    ratio = f[nz] / design.f0_hz
    gain[nz] = design.peak_gain_v_per_g / np.sqrt(1.0 + design.quality**2 * (ratio - 1.0 / ratio) ** 2)
    return float(gain) if np.ndim(f_hz) == 0 else gain


def simulate_voltage(design: PehDesign, accel: TimeSeries) -> TimeSeries:
    """Voltage trace of a design driven by base acceleration, zero initial state."""
    b, a = filter_coefficients(design, accel.fs)
    from scipy.signal import lfilter

    return TimeSeries(lfilter(b, a, accel.samples), accel.fs)


def measure_steady_gain(
    design: PehDesign,
    fs: float,
    f_hz: float,
    settle_s: float = 1.0,
    measure_s: float = 1.0,
) -> float:
    """Measured steady-state sine gain: drive a unit sine, discard the settling
    transient, and estimate the output amplitude by quadrature demodulation."""
    probe = synth_sine(f_hz, 1.0, 0.0, fs, settle_s + measure_s)
    v = simulate_voltage(design, probe)
    n0 = int(round(settle_s * fs))
    tail = v.samples[n0:]
    t = np.arange(n0, len(v)) / fs
    return float(2.0 * np.abs(np.mean(tail * np.exp(-2j * np.pi * f_hz * t))))


def verify_discretization(design: PehDesign, fs: float, probes) -> float:
    """Worst relative error between measured steady-state gain and the analytic
    response over the probe frequencies."""
    worst = 0.0
    for f_hz in probes:
        if not 0 < f_hz < fs / 2:
            raise ValueError(f"probe frequency {f_hz} Hz must lie in (0, fs/2)")
        measured = measure_steady_gain(design, fs, f_hz)
        analytic = frf_magnitude(design, f_hz)
        worst = max(worst, abs(measured - analytic) / analytic)
    return worst


def make_feature(v: TimeSeries, period_s: float, r_ohm: float) -> np.ndarray:
    """Feature vector of per-interval energies: sum(v**2) / (R * fs) over each
    consecutive disjoint round(period_s * fs)-sample window; a trailing partial
    interval is discarded, so dimension = floor(duration / period_s).

    The caller is responsible for choosing period_s to cover many signal
    cycles (the CLI requires MIN_CYCLES_PER_PERIOD resonance cycles) so the
    samples form a low-frequency sequence.
    """
    n_per, n_intervals = interval_samples(len(v), v.fs, period_s, r_ohm)
    squared = v.samples[: n_intervals * n_per] ** 2
    return squared.reshape(n_intervals, n_per).sum(axis=1) / (r_ohm * v.fs)


def filter_and_integrate_rows(pieces, b, a, windows, scale) -> list[np.ndarray]:
    """`dataset.filter_and_integrate` as it was before it filtered a block in
    one lfilter call: one call per row, each row squared and summed into
    every window's matrix in turn."""
    from scipy.signal import lfilter

    matrices = [np.empty((len(pieces), dim)) for _, dim in windows]
    for row, piece in enumerate(pieces):
        v = lfilter(b, a, piece)
        with np.errstate(all="ignore"):
            np.square(v, out=v)
            for (n_per, dim), matrix in zip(windows, matrices):
                matrix[row] = v[: dim * n_per].reshape(dim, n_per).sum(axis=1) / scale
    return matrices


def per_recording_feature_sets(manifest, designs, segment_s: float, count: int, periods, r_ohm: float):
    """`dataset.build_feature_sets` one recording at a time: each recording
    loaded, widened to float64 and segmented on its own, and its segments
    through each design's filter_and_integrate_rows; then its feature counts
    checked against the first recording's and each of its matrices (designs
    outer, periods inner) checked for a feature that is not finite. Returns
    sets[i][j]; the first error is a DataError prefixed with its recording's
    path."""
    sets = [[[] for _ in periods] for _ in designs]
    for meta in manifest.entries:
        try:
            ts = load_recording(meta, manifest.root)
            n_win = window_samples(len(ts), ts.fs, segment_s, count)
            pieces = np.asarray(ts.samples[: count * n_win], dtype=np.float64).reshape(count, n_win)
            filters = [filter_coefficients(design, ts.fs) for design in designs]
            windows = [interval_samples(n_win, ts.fs, period_s, r_ohm) for period_s in periods]
            results = [filter_and_integrate_rows(pieces, b, a, windows, r_ohm * ts.fs) for b, a in filters]
            for matrices, design_sets in zip(results, sets):
                for period_s, matrix, rows in zip(periods, matrices, design_sets):
                    if rows and rows[0].shape[1] != matrix.shape[1]:
                        raise DataError(
                            f"{matrix.shape[1]} features per segment at T={period_s:g}s, where "
                            f"{manifest.entries[0].path} gives {rows[0].shape[1]} (the sampling rates differ)"
                        )
            for design, matrices in zip(designs, results):
                for period_s, matrix in zip(periods, matrices):
                    if not np.isfinite(matrix).all():
                        raise DataError(f"a feature of {design.name} at T={period_s:g}s, r_ohm={r_ohm:g} is not finite")
        except (DataError, ValueError) as exc:
            raise DataError(f"{meta.path}: {exc}") from exc
        for matrices, design_sets in zip(results, sets):
            for matrix, rows in zip(matrices, design_sets):
                rows.append(matrix)
    return [
        [np.vstack(matrices) if matrices else np.empty((0, 0)) for matrices in design_sets] for design_sets in sets
    ]


def row_labels(manifest, count: int) -> np.ndarray:
    """The label of each feature row: row r is segment r % count of the
    (r // count)-th manifest entry."""
    return np.repeat([meta.label.value for meta in manifest.entries], count)


def train_size(n: int, train_fraction: float) -> int:
    """Training members of a group of n: round(train_fraction * n), half up,
    clamped to [1, n - 1]."""
    return min(max(math.floor(train_fraction * n + 0.5), 1), n - 1)


def reference_split(labels, train_fraction: float, seed: int, stratified: bool) -> tuple[np.ndarray, np.ndarray]:
    """The ascending train and validation rows of the split seeded `seed`:
    the rows form one group per label in order of first appearance when
    stratified, else one group; one rng.permutation call per group, in that
    order, shuffles it, and the first round(train_fraction * size) of its
    shuffled rows, half up and clamped to [1, size - 1], train."""
    rng = np.random.default_rng(seed)
    groups: dict = {}
    for row, label in enumerate(labels):
        groups.setdefault(label if stratified else None, []).append(row)
    train = []
    for rows in groups.values():
        train += [rows[p] for p in rng.permutation(len(rows))[: train_size(len(rows), train_fraction)]]
    validation = sorted(set(range(len(labels))) - set(train))
    return np.array(sorted(train), dtype=np.intp), np.array(validation, dtype=np.intp)


def mask_rows(in_train) -> tuple[np.ndarray, np.ndarray]:
    """The ascending train and validation rows of one split's training mask,
    a row of `classify.draw_splits`, in reference_split's form."""
    return np.flatnonzero(in_train), np.flatnonzero(~in_train)
