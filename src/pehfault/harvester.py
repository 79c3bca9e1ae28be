"""Parametric harvester model: a resonant band-pass from base acceleration to
output voltage.

The continuous-time model is the unit-peak second-order band-pass

    H(s) = G * (s*w0/Q) / (s**2 + s*w0/Q + w0**2),    w0 = 2*pi*f0,  Q = f0/bw

scaled to peak gain G at resonance. Time-domain simulation discretizes H(s)
with the bilinear transform, prewarped at f0 so the resonance peak lands
exactly on f0 regardless of sample rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signals import SignalUnit, TimeSeries, synth_sine

# Simulation accuracy guard: require fs >= MIN_FS_PER_F0 * f0.
MIN_FS_PER_F0 = 20.0


@dataclass(frozen=True)
class PehDesign:
    """One harvester design, characterized by its band-pass response.

    peak_gain_v_per_g is the voltage amplitude per 1 g of sinusoidal base
    acceleration at resonance; r_ohm is the load across which harvested
    energy is dissipated.
    """

    name: str
    thickness_mm: float
    f0_hz: float
    bw3db_hz: float
    peak_gain_v_per_g: float = 1.0
    r_ohm: float = 1.0

    def __post_init__(self) -> None:
        if self.f0_hz <= 0:
            raise ValueError(f"resonance frequency must be positive, got {self.f0_hz}")
        if not 0 < self.bw3db_hz < self.f0_hz:
            raise ValueError(f"3-dB bandwidth must lie in (0, f0), got {self.bw3db_hz} for f0={self.f0_hz}")
        if self.peak_gain_v_per_g <= 0:
            raise ValueError(f"peak gain must be positive, got {self.peak_gain_v_per_g}")
        if self.r_ohm <= 0:
            raise ValueError(f"load resistance must be positive, got {self.r_ohm}")

    @property
    def quality(self) -> float:
        return self.f0_hz / self.bw3db_hz


# Resonance rises monotonically with substrate thickness; peak gains and load
# resistance default to 1.0 and are overridable via dataset.load_design_table.
DEFAULT_DESIGNS: tuple[PehDesign, ...] = (
    PehDesign("peh_0.35mm", 0.35, 125.0, 10.0),
    PehDesign("peh_0.40mm", 0.40, 150.0, 10.0),
    PehDesign("peh_0.45mm", 0.45, 175.0, 10.0),
    PehDesign("peh_0.50mm", 0.50, 200.0, 10.0),
)


def design_from_thickness(thickness_mm: float, table: tuple[PehDesign, ...] = DEFAULT_DESIGNS) -> PehDesign:
    """Look up the design with the given substrate thickness (exact table entry)."""
    for design in table:
        if abs(design.thickness_mm - thickness_mm) < 1e-9:
            return design
    known = ", ".join(f"{d.thickness_mm:g}" for d in table)
    raise ValueError(f"unknown design: thickness {thickness_mm:g} mm not in table ({known} mm)")


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


def simulate_voltage(design: PehDesign, accel: TimeSeries) -> TimeSeries:
    """Voltage trace of a design driven by base acceleration, zero initial state."""
    if accel.unit is not SignalUnit.ACCELERATION_G:
        raise ValueError(f"input must be acceleration in g, got unit {accel.unit.value}")
    if len(accel) == 0:
        raise ValueError("cannot simulate an empty series")
    if accel.fs < MIN_FS_PER_F0 * design.f0_hz:
        raise ValueError(
            f"sampling rate too low: {accel.fs} Hz < {MIN_FS_PER_F0:g} * f0 = {MIN_FS_PER_F0 * design.f0_hz:g} Hz"
        )
    from scipy.signal import lfilter  # on first use: a ~1 s import that energy-report and surrogate-gen never need

    return TimeSeries(lfilter(*_biquad_coefficients(design, accel.fs), accel.samples), accel.fs, SignalUnit.VOLTS)


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
