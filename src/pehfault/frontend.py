"""Rectifier + integrator + low-rate sampler.

Converts a voltage trace into the sequence of per-interval harvested energies
(the ideal rectifier dissipates v**2/R into the load; each integration
interval spans round(period_s * fs) samples). That energy array is the
feature vector the classifier sees.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .signals import TimeSeries

__all__ = ["MIN_CYCLES_PER_PERIOD", "integrate_energy", "make_feature", "mean_state_energy"]

# An integration period must span at least this many cycles of the lowest
# harvester resonance in use, so the energies form a low-rate sequence.
MIN_CYCLES_PER_PERIOD = 10.0


def integrate_energy(v: TimeSeries, period_s: float, r_ohm: float) -> np.ndarray:
    """Energy per consecutive disjoint interval: sum(v**2) / (R * fs) over each
    round(period_s * fs)-sample window; a trailing partial interval is discarded.

    The caller is responsible for choosing period_s to cover many signal
    cycles (the CLI requires MIN_CYCLES_PER_PERIOD resonance cycles) so the
    samples form a low-frequency sequence.
    """
    if period_s <= 0:
        raise ValueError(f"integration period must be positive, got {period_s}")
    if r_ohm <= 0:
        raise ValueError(f"load resistance must be positive, got {r_ohm}")
    if len(v) == 0:
        raise ValueError("cannot integrate an empty series")
    n_per = int(round(period_s * v.fs))
    if n_per < 1:
        raise ValueError(f"integration period {period_s}s is shorter than one sample at fs={v.fs}")
    n_intervals = len(v) // n_per
    squared = v.samples[: n_intervals * n_per] ** 2
    return squared.reshape(n_intervals, n_per).sum(axis=1) / (r_ohm * v.fs)


def make_feature(v: TimeSeries, period_s: float, r_ohm: float) -> np.ndarray:
    """Feature vector of per-interval energies; dimension = floor(duration / period_s)."""
    energies = integrate_energy(v, period_s, r_ohm)
    if len(energies) == 0:
        raise ValueError(
            f"trace of {v.duration_s:g}s is shorter than one integration period of {period_s:g}s"
        )
    return energies


def mean_state_energy(features: Iterable[tuple[np.ndarray, object]]) -> dict:
    """Arithmetic mean energy per label over (values, label) pairs, averaged
    over all vector components."""
    sums: dict = {}
    counts: dict = {}
    for values, label in features:
        values = np.ravel(values)
        sums[label] = sums.get(label, 0.0) + float(values.sum())
        counts[label] = counts.get(label, 0) + len(values)
    if not sums:
        raise ValueError("no features given")
    return {label: sums[label] / counts[label] for label in sums}
