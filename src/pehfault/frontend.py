"""Rectifier + integrator + low-rate sampler.

Converts a voltage trace into the sequence of per-interval harvested energies
(the ideal rectifier dissipates v**2/R into the load; each integration
interval spans round(period_s * fs) samples). That energy array is the
feature vector the classifier sees.
"""

from __future__ import annotations

import numpy as np

from .signals import TimeSeries

# An integration period must span at least this many cycles of the lowest
# harvester resonance in use, so the energies form a low-rate sequence.
MIN_CYCLES_PER_PERIOD = 10.0


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


def interval_samples(n: int, fs: float, period_s: float, r_ohm: float) -> tuple[int, int]:
    """The checks of `make_feature` on a trace of n samples at fs, and its
    (samples per interval, number of intervals)."""
    if period_s <= 0:
        raise ValueError(f"integration period must be positive, got {period_s}")
    if r_ohm <= 0:
        raise ValueError(f"load resistance must be positive, got {r_ohm}")
    n_per = int(round(period_s * fs))
    if n_per < 1:
        raise ValueError(f"integration period {period_s}s is shorter than one sample at fs={fs}")
    n_intervals = n // n_per
    if n_intervals == 0:
        raise ValueError(f"trace of {n / fs:g}s is shorter than one integration period of {period_s:g}s")
    return n_per, n_intervals


def mean_state_energy(features: np.ndarray, labels) -> dict:
    """Arithmetic mean energy per label over the rows of an (n, dim) feature
    matrix, averaged over all components: each row is summed, then the row
    sums of a label are added in row order."""
    if len(features) == 0:
        raise ValueError("no features given")
    classes, codes = np.unique(labels, return_inverse=True)
    sums = np.bincount(codes, weights=features.sum(axis=1))
    counts = np.bincount(codes) * features.shape[1]
    return dict(zip(classes.tolist(), (sums / counts).tolist()))
