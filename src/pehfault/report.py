"""Cross-architecture sampling/energy comparison, the two-design frequency-shift
demo, and a deterministic SVG rendering of the per-design class-mean scatter."""

from __future__ import annotations

import html
import math
from typing import Sequence

import numpy as np

from .dataset import filter_and_integrate
from .frontend import interval_samples
from .harvester import PehDesign, filter_coefficients
from .signals import synth_sine


def format_sampling_cost(
    fs_raw_hz: float, period_s: float, e_adc_per_sample_j: float, e_tx_per_sample_j: float, bits_per_sample: int
) -> str:
    """Compare raw-rate acquisition against one energy sample per integration
    period, both costed at the same ADC and radio energy per sample (J) and
    bits per sample. The caller checks each value: the rate and the period
    positive and finite, the costs and the bits non-negative and at most the
    largest float (the CLI's RunConfig table does). A per-sample cost, rate,
    ratio or power that leaves the floating-point range is a ValueError naming
    the inputs."""
    per_sample = e_adc_per_sample_j + e_tx_per_sample_j
    if per_sample == math.inf:
        raise ValueError(f"e_adc_per_sample_j + e_tx_per_sample_j must be finite, got {per_sample}")
    feature_rate = 1.0 / period_s
    ratio = fs_raw_hz * period_s
    raw_bits, feature_bits = fs_raw_hz * bits_per_sample, feature_rate * bits_per_sample
    raw_power, feature_power = fs_raw_hz * per_sample, feature_rate * per_sample
    if not (ratio > 0 and all(map(math.isfinite, (feature_rate, ratio, raw_bits, feature_bits, raw_power, feature_power)))):
        raise ValueError(
            f"fs_raw_hz={fs_raw_hz:g}, period_s={period_s:g}, e_adc_per_sample_j={e_adc_per_sample_j:g}, "
            f"e_tx_per_sample_j={e_tx_per_sample_j:g} and bits_per_sample={bits_per_sample:g} "
            "give a rate, ratio or power out of floating-point range"
        )
    rate = np.format_float_positional(feature_rate, precision=2, unique=False, fractional=False, trim="-")
    lines = [
        f"raw architecture:     {fs_raw_hz:g} Hz sampling ({raw_bits:g} bit/s)",
        f"feature architecture: {rate} Hz sampling ({feature_bits:g} bit/s)",
        f"sampling reduction:   {ratio:g}x (10^{math.log10(ratio):.2f})",
        f"modeled ADC+TX power: raw {raw_power:g} J/s, feature {feature_power:g} J/s",
    ]
    return "\n".join(lines)


def run_thought_experiment(
    f_healthy_hz: float,
    f_faulty_hz: float,
    design_healthy: PehDesign,
    design_faulty: PehDesign,
    period_s: float,
    r_ohm: float,
    fs: float,
) -> np.ndarray:
    """Drive a unit sine of one integration period at each machine-state
    frequency through both designs, with the pipeline's feature kernel, and
    return the energies: energies[i, j] is that of input i (0 healthy, 1
    faulty) through design j. An energy that is not finite is a ValueError.

    design_healthy should be tuned near f_healthy_hz and design_faulty near
    f_faulty_hz for the decision rule to be meaningful.
    """
    vibrations = np.stack([synth_sine(f_hz, 1.0, 0.0, fs, period_s).samples for f_hz in (f_healthy_hz, f_faulty_hz)])
    # Each sine spans exactly one interval, so the kernel gives one (2, 1) matrix per design.
    interval = interval_samples(vibrations.shape[1], fs, period_s, r_ohm)
    designs = (design_healthy, design_faulty)
    energies = np.hstack(
        [filter_and_integrate(vibrations, *filter_coefficients(d, fs), [interval], r_ohm * fs)[0] for d in designs]
    )
    if not np.isfinite(energies).all():
        raise ValueError(f"an energy at r_ohm={r_ohm:g} and T={period_s:g}s is not finite")
    return energies


def format_thought_experiment(
    f_healthy_hz: float, f_faulty_hz: float, design_names: Sequence[str], energies: np.ndarray
) -> str:
    name_a, name_b = design_names
    width = max(len(name_a), len(name_b), 12)
    lines = [
        f"machine states: healthy vibrates at {f_healthy_hz:g} Hz, faulty at {f_faulty_hz:g} Hz",
        f"{'input':>18} | {name_a:>{width}} | {name_b:>{width}} | decision",
    ]
    for row_label, row in zip((f"healthy ({f_healthy_hz:g} Hz)", f"faulty ({f_faulty_hz:g} Hz)"), energies):
        # Decision rule: the design harvesting more energy marks the state
        # whose vibration frequency sits in its pass-band.
        decision = "healthy" if row[0] >= row[1] else "faulty"
        lines.append(f"{row_label:>18} | {row[0]:>{width}.6g} | {row[1]:>{width}.6g} | {decision}")
    return "\n".join(lines)


_SVG_SIZE = 640
_SVG_MARGIN = 70


def scatter_svg(names: Sequence[str], points: Sequence[tuple[float, float]]) -> str:
    """Fixed-layout SVG scatter of mean faulty vs mean healthy energy, one
    (healthy, faulty) point per name, with the dashed 45-degree diagonal.
    Pure function of its arguments (no timestamps). An energy too large for
    finite coordinates is a ValueError naming the largest point."""
    span = max([energy for point in points for energy in point], default=1.0)
    span = span * 1.1 if span > 0 else 1.0
    plot = _SVG_SIZE - 2 * _SVG_MARGIN
    if not math.isfinite(plot * span):  # no energy exceeds span, so this bounds every coordinate
        name, point = max(zip(names, points), key=lambda item: max(item[1]))
        raise ValueError(f"{name}: mean energy {max(point):g} J is too large to plot")

    def sx(value: float) -> float:
        return _SVG_MARGIN + plot * value / span

    def sy(value: float) -> float:
        return _SVG_SIZE - _SVG_MARGIN - plot * value / span

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}">',
        f'<rect x="0" y="0" width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(span):.2f}" y2="{sy(0):.2f}" stroke="black"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(0):.2f}" y2="{sy(span):.2f}" stroke="black"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(span):.2f}" y2="{sy(span):.2f}" '
        'stroke="gray" stroke-dasharray="8,6"/>',
        f'<text x="{_SVG_SIZE / 2:.0f}" y="{_SVG_SIZE - 18}" text-anchor="middle" font-size="14">'
        "mean healthy energy (J)</text>",
        f'<text x="18" y="{_SVG_SIZE / 2:.0f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {_SVG_SIZE / 2:.0f})">mean faulty energy (J)</text>',
    ]
    for name, (healthy, faulty) in zip(names, points):
        cx, cy = sx(healthy), sy(faulty)
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="5" fill="steelblue"/>')
        parts.append(f'<text x="{cx + 8:.2f}" y="{cy - 8:.2f}" font-size="12">{html.escape(name, quote=False)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
