"""Signal containers, synthesis, spectra, segmentation, and the digital
band-energy baseline.

Energy convention used throughout the package: the energy of a sampled trace
v[n] dissipated in a resistive load R is sum(v**2) / (R * fs) Joules, the
left-point Riemann approximation of the integral of v(t)**2 / R.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable

import numpy as np


class SignalUnit(enum.Enum):
    """Physical unit of a sampled trace."""

    ACCELERATION_G = "acceleration_g"
    VOLTS = "volts"


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real-valued signal with a unit tag."""

    samples: np.ndarray
    fs: float
    unit: SignalUnit

    def __post_init__(self) -> None:
        if self.fs <= 0:
            raise ValueError(f"sampling rate must be positive, got {self.fs}")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration_s(self) -> float:
        return len(self.samples) / self.fs


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


def _check_rate_and_duration(fs: float, duration_s: float) -> None:
    if fs <= 0:
        raise ValueError(f"sampling rate must be positive, got {fs}")
    if duration_s <= 0:
        raise ValueError(f"duration must be positive, got {duration_s}")


def _check_tone(f_hz: float, fs: float) -> None:
    if not 0 < f_hz < fs / 2:
        raise ValueError(f"tone frequency {f_hz} Hz must lie in (0, fs/2) = (0, {fs / 2}) to avoid aliasing")


def synth_sine(
    f_hz: float,
    amplitude: float,
    phase_rad: float,
    fs: float,
    duration_s: float,
    unit: SignalUnit = SignalUnit.ACCELERATION_G,
) -> TimeSeries:
    """Pure sinusoid: amplitude * sin(2*pi*f*n/fs + phase), round(duration*fs) samples."""
    _check_rate_and_duration(fs, duration_s)
    _check_tone(f_hz, fs)
    n = int(round(duration_s * fs))
    idx = np.arange(n)
    return TimeSeries(amplitude * np.sin(2 * np.pi * f_hz * idx / fs + phase_rad), fs, unit)


def synth_composite(
    tones: Iterable[tuple[float, float]],
    noise_sigma: float,
    fs: float,
    duration_s: float,
    seed: int,
    unit: SignalUnit = SignalUnit.ACCELERATION_G,
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
    return TimeSeries(samples, fs, unit)


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


def signal_energy(ts: TimeSeries, r_ohm: float = 1.0) -> float:
    """Total discrete energy sum(x**2) / (R * fs) in Joules."""
    if r_ohm <= 0:
        raise ValueError(f"load resistance must be positive, got {r_ohm}")
    if len(ts) == 0:
        raise ValueError("cannot compute the energy of an empty series")
    return float(np.sum(ts.samples**2) / (r_ohm * ts.fs))


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
    if window_s <= 0:
        raise ValueError(f"window must be positive, got {window_s}")
    if count < 1:
        raise ValueError(f"segment count must be >= 1, got {count}")
    n_win = int(round(window_s * ts.fs))
    if n_win < 1:
        raise ValueError(f"window of {window_s}s is shorter than one sample at fs={ts.fs}")
    if count * n_win > len(ts):
        raise ValueError(
            f"insufficient duration: need {count}x{window_s}s = {count * n_win} samples, have {len(ts)}"
        )
    return [TimeSeries(ts.samples[i * n_win : (i + 1) * n_win], ts.fs, ts.unit) for i in range(count)]
