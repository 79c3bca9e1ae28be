"""Rectifier + integrator + low-rate sampler: the ideal rectifier dissipates
v**2/R into the load, and each integration interval of round(period_s * fs)
samples yields one energy sum(v**2) / (R * fs) of the feature vector."""

from __future__ import annotations

import numpy as np

from .signals import sample_count

# An integration period must span at least this many cycles of the lowest
# harvester resonance in use, so the energies form a low-rate sequence.
MIN_CYCLES_PER_PERIOD = 10.0


def interval_samples(n: int, fs: float, period_s: float, r_ohm: float) -> tuple[int, int]:
    """(samples per interval, number of intervals) of a trace of n samples at
    fs integrated over period_s into a load of r_ohm; a trailing partial
    interval is discarded. The energies are divided by r_ohm * fs, which
    must be finite: past it every energy would read 0."""
    if period_s <= 0:
        raise ValueError(f"integration period must be positive, got {period_s}")
    if r_ohm <= 0:
        raise ValueError(f"load resistance must be positive, got {r_ohm}")
    n_per = sample_count(period_s, fs, "integration period")
    if n_per < 1:
        raise ValueError(f"integration period {period_s}s is shorter than one sample at fs={fs}")
    n_intervals = n // n_per
    if n_intervals == 0:
        raise ValueError(f"trace of {n / fs:g}s is shorter than one integration period of {period_s:g}s")
    if not np.isfinite(r_ohm * fs):
        raise ValueError(f"r_ohm={r_ohm:g} times the sampling rate {fs:g} Hz is not finite")
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
