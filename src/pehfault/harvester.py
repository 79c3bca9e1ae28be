"""Parametric harvester model: a resonant band-pass from base acceleration to
output voltage.

The continuous-time model is the unit-peak second-order band-pass

    H(s) = G * (s*w0/Q) / (s**2 + s*w0/Q + w0**2),    w0 = 2*pi*f0,  Q = f0/bw

scaled to peak gain G at resonance. The pipeline filters with the biquad that
discretizes H(s) by the bilinear transform, prewarped at f0 so the resonance
peak lands exactly on f0 regardless of sample rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Simulation accuracy guard: require fs >= MIN_FS_PER_F0 * f0.
MIN_FS_PER_F0 = 20.0


@dataclass(frozen=True)
class PehDesign:
    """One harvester design, characterized by its band-pass response.

    peak_gain_v_per_g is the voltage amplitude per 1 g of sinusoidal base
    acceleration at resonance.
    """

    name: str
    thickness_mm: float
    f0_hz: float
    bw3db_hz: float
    peak_gain_v_per_g: float = 1.0

    def __post_init__(self) -> None:
        for what, value in (
            ("thickness", self.thickness_mm),
            ("resonance frequency", self.f0_hz),
            ("peak gain", self.peak_gain_v_per_g),
        ):
            if not 0 < value < math.inf:  # NaN fails too
                raise ValueError(f"{what} must be positive and finite, got {value}")
        if not 0 < self.bw3db_hz < self.f0_hz:
            raise ValueError(f"3-dB bandwidth must lie in (0, f0), got {self.bw3db_hz} for f0={self.f0_hz}")

    @property
    def quality(self) -> float:
        return self.f0_hz / self.bw3db_hz


# Resonance rises monotonically with substrate thickness; peak gains default
# to 1.0 and are overridable via dataset.load_design_table.
DEFAULT_DESIGNS: tuple[PehDesign, ...] = (
    PehDesign("peh_0.35mm", 0.35, 125.0, 10.0),
    PehDesign("peh_0.40mm", 0.40, 150.0, 10.0),
    PehDesign("peh_0.45mm", 0.45, 175.0, 10.0),
    PehDesign("peh_0.50mm", 0.50, 200.0, 10.0),
)


def float_text(x: float) -> str:
    """A number as a sidecar, a manifest or a message states it: the shortest
    repr that reads back as the same float, without a trailing `.0` (51200,
    12345.678, 0.42)."""
    return repr(float(x)).removesuffix(".0")


def design_from_thickness(thickness_mm: float, table: tuple[PehDesign, ...] = DEFAULT_DESIGNS) -> PehDesign:
    """Look up the design with exactly the given substrate thickness."""
    for design in table:
        if design.thickness_mm == thickness_mm:
            return design
    known = ", ".join(float_text(design.thickness_mm) for design in table)
    raise ValueError(f"unknown design: thickness {float_text(thickness_mm)} mm not in table ({known} mm)")


def _biquad_coefficients(design: PehDesign, fs: float) -> tuple[np.ndarray, np.ndarray]:
    # Bilinear transform of H(s) with prewarp constant k = w0 / tan(w0 / (2*fs)).
    w0 = 2 * np.pi * design.f0_hz
    q = design.quality
    k = w0 / np.tan(w0 / (2 * fs))
    a0 = k * k + (w0 / q) * k + w0 * w0
    b0 = design.peak_gain_v_per_g * (w0 / q) * k / a0
    b = np.array([b0, 0.0, -b0])
    a = np.array([1.0, 2 * (w0 * w0 - k * k) / a0, (k * k - (w0 / q) * k + w0 * w0) / a0])
    return b, a


def filter_coefficients(design: PehDesign, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """The biquad (b, a) of a design at sampling rate fs, which must cover
    MIN_FS_PER_F0 * f0."""
    if fs < MIN_FS_PER_F0 * design.f0_hz:
        raise ValueError(
            f"sampling rate too low: {fs} Hz < {MIN_FS_PER_F0:g} * f0 = {MIN_FS_PER_F0 * design.f0_hz:g} Hz"
        )
    return _biquad_coefficients(design, fs)
