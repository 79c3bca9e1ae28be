"""Signal container, sine synthesis, discrete energy, and the sample counts
of a recording's segmentation.

Energy convention used throughout the package: the energy of a sampled trace
v[n] dissipated in a resistive load R is sum(v**2) / (R * fs) Joules, the
left-point Riemann approximation of the integral of v(t)**2 / R.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real-valued signal; the samples keep their dtype
    (float32 for a raw recording as loaded)."""

    samples: np.ndarray
    fs: float

    def __post_init__(self) -> None:
        if not 0 < self.fs < np.inf:  # NaN fails too
            raise ValueError(f"sampling rate must be positive and finite, got {self.fs}")
        object.__setattr__(self, "samples", np.asarray(self.samples))

    def __len__(self) -> int:
        return len(self.samples)


def _check_rate_and_duration(fs: float, duration_s: float) -> None:
    if not 0 < fs < np.inf:  # NaN fails too
        raise ValueError(f"sampling rate must be positive and finite, got {fs}")
    if not 0 < duration_s < np.inf:
        raise ValueError(f"duration must be positive and finite, got {duration_s}")


def _check_tone(f_hz: float, fs: float) -> None:
    if not 0 < f_hz < fs / 2:
        raise ValueError(f"tone frequency {f_hz} Hz must lie in (0, fs/2) = (0, {fs / 2}) to avoid aliasing")


def sample_count(seconds: float, fs: float, what: str) -> int:
    """round(seconds * fs), the samples `seconds` spans at fs; a product that
    is not finite is a ValueError naming `what`."""
    if not math.isfinite(seconds * fs):
        raise ValueError(f"{what} of {seconds:g}s at fs={fs:g} Hz is not a finite number of samples")
    return int(round(seconds * fs))


def synth_sine(f_hz: float, amplitude: float, phase_rad: float, fs: float, duration_s: float) -> TimeSeries:
    """Pure sinusoid: amplitude * sin(2*pi*f*n/fs + phase), round(duration*fs) samples."""
    _check_rate_and_duration(fs, duration_s)
    _check_tone(f_hz, fs)
    n = sample_count(duration_s, fs, "duration")
    if n > np.iinfo(np.intp).max // 8:  # past the address space numpy raises ValueError, not MemoryError
        raise MemoryError(f"{n} samples exceed the address space")
    return TimeSeries(amplitude * np.sin(2 * np.pi * f_hz * np.arange(n) / fs + phase_rad), fs)


def signal_energy(ts: TimeSeries, r_ohm: float = 1.0) -> float:
    """Total discrete energy sum(x**2) / (R * fs) in Joules, squared and
    summed in float64 whatever the samples' dtype."""
    if r_ohm <= 0:
        raise ValueError(f"load resistance must be positive, got {r_ohm}")
    if len(ts) == 0:
        raise ValueError("cannot compute the energy of an empty series")
    return float(np.sum(np.square(ts.samples, dtype=np.float64)) / (r_ohm * ts.fs))


def window_samples(n: int, fs: float, window_s: float, count: int) -> int:
    """The samples in each of `count` contiguous windows of window_s seconds
    from the start of a recording of n samples at fs, which must hold them
    all."""
    if window_s <= 0:
        raise ValueError(f"window must be positive, got {window_s}")
    if count < 1:
        raise ValueError(f"segment count must be >= 1, got {count}")
    n_win = sample_count(window_s, fs, "window")
    if n_win < 1:
        raise ValueError(f"window of {window_s}s is shorter than one sample at fs={fs}")
    if count * n_win > n:
        raise ValueError(f"insufficient duration: need {count}x{window_s}s = {count * n_win} samples, have {n}")
    return n_win
