"""Cross-architecture sampling/energy comparison, the two-design frequency-shift
demo, and per-design class-mean scatter data with a deterministic SVG rendering."""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import Sequence

import numpy as np

from .dataset import MachineState, Manifest, build_feature_sets, csv_text
from .errors import DataError
from .frontend import integrate_energy, mean_state_energy
from .harvester import PehDesign, simulate_voltage
from .signals import synth_sine


@dataclass(frozen=True)
class EnergyCostModel:
    """Linear per-sample acquisition costs.

    Defaults are illustrative placeholders for a generic ADC + low-power radio,
    not measured figures; both architectures are costed with the same model.
    """

    e_adc_per_sample_j: float = 2e-9
    e_tx_per_sample_j: float = 1.6e-6
    bits_per_sample: int = 16

    def __post_init__(self) -> None:
        if self.e_adc_per_sample_j < 0 or self.e_tx_per_sample_j < 0 or self.bits_per_sample < 0:
            raise ValueError("cost model entries must be non-negative")


@dataclass(frozen=True)
class SamplingCostReport:
    fs_raw_hz: float
    feature_rate_hz: float
    reduction_ratio: float
    log10_reduction: float
    raw_power_w: float
    feature_power_w: float
    raw_bits_per_s: float
    feature_bits_per_s: float


def sampling_cost_report(fs_raw_hz: float, period_s: float, cost: EnergyCostModel = EnergyCostModel()) -> SamplingCostReport:
    """Compare raw-rate acquisition against one energy sample per integration period."""
    if fs_raw_hz <= 0 or period_s <= 0:
        raise ValueError("raw rate and integration period must be positive")
    feature_rate = 1.0 / period_s
    ratio = fs_raw_hz * period_s
    per_sample = cost.e_adc_per_sample_j + cost.e_tx_per_sample_j
    return SamplingCostReport(
        fs_raw_hz=fs_raw_hz,
        feature_rate_hz=feature_rate,
        reduction_ratio=ratio,
        log10_reduction=math.log10(ratio),
        raw_power_w=fs_raw_hz * per_sample,
        feature_power_w=feature_rate * per_sample,
        raw_bits_per_s=fs_raw_hz * cost.bits_per_sample,
        feature_bits_per_s=feature_rate * cost.bits_per_sample,
    )


def format_sampling_cost(report: SamplingCostReport) -> str:
    lines = [
        f"raw architecture:     {report.fs_raw_hz:g} Hz sampling ({report.raw_bits_per_s:g} bit/s)",
        f"feature architecture: {report.feature_rate_hz:.2f} Hz sampling ({report.feature_bits_per_s:g} bit/s)",
        f"sampling reduction:   {report.reduction_ratio:g}x (10^{report.log10_reduction:.2f})",
        f"modeled ADC+TX power: raw {report.raw_power_w:g} J/s, feature {report.feature_power_w:g} J/s",
    ]
    return "\n".join(lines)


@dataclass(frozen=True)
class ThoughtExperimentReport:
    """Per-interval energies of two sinusoid machine states through two designs.

    energies[i][j] is the first integration-interval energy of input i
    (0 healthy, 1 faulty) through design j.
    """

    f_healthy_hz: float
    f_faulty_hz: float
    design_names: tuple[str, str]
    energies: np.ndarray
    decisions: tuple[str, str] = field(init=False)

    def __post_init__(self) -> None:
        # Decision rule: the design harvesting more energy marks the state
        # whose vibration frequency sits in its pass-band.
        labels = ("healthy", "faulty")
        object.__setattr__(
            self,
            "decisions",
            tuple(labels[0] if row[0] >= row[1] else labels[1] for row in self.energies),
        )


def run_thought_experiment(
    f_healthy_hz: float,
    f_faulty_hz: float,
    design_healthy: PehDesign,
    design_faulty: PehDesign,
    period_s: float = 3.0,
    r_ohm: float = 1.0,
    fs: float = 51200.0,
) -> ThoughtExperimentReport:
    """Drive unit sines at both machine-state frequencies through both designs
    and collect the first integration-interval energy of each combination.

    design_healthy should be tuned near f_healthy_hz and design_faulty near
    f_faulty_hz for the decision rule to be meaningful.
    """
    energies = np.empty((2, 2))
    for i, f_hz in enumerate((f_healthy_hz, f_faulty_hz)):
        vibration = synth_sine(f_hz, 1.0, 0.0, fs, period_s)
        for j, design in enumerate((design_healthy, design_faulty)):
            voltage = simulate_voltage(design, vibration)
            energies[i, j] = integrate_energy(voltage, period_s, r_ohm)[0]
    return ThoughtExperimentReport(
        f_healthy_hz=f_healthy_hz,
        f_faulty_hz=f_faulty_hz,
        design_names=(design_healthy.name, design_faulty.name),
        energies=energies,
    )


def format_thought_experiment(report: ThoughtExperimentReport) -> str:
    name_a, name_b = report.design_names
    width = max(len(name_a), len(name_b), 12)
    lines = [
        f"machine states: healthy vibrates at {report.f_healthy_hz:g} Hz, faulty at {report.f_faulty_hz:g} Hz",
        f"{'input':>18} | {name_a:>{width}} | {name_b:>{width}} | decision",
    ]
    for row_label, row, decision in zip(
        (f"healthy ({report.f_healthy_hz:g} Hz)", f"faulty ({report.f_faulty_hz:g} Hz)"),
        report.energies,
        report.decisions,
    ):
        lines.append(f"{row_label:>18} | {row[0]:>{width}.6g} | {row[1]:>{width}.6g} | {decision}")
    return "\n".join(lines)


@dataclass(frozen=True)
class ScatterPoint:
    """Class-mean energies for one design and its distance from the 45-degree line."""

    design: str
    thickness_mm: float
    mean_healthy_j: float
    mean_faulty_j: float
    diag_distance_j: float


def scatter_points(
    manifest: Manifest,
    designs: Sequence[PehDesign],
    *,
    segment_s: float,
    segments_per_recording: int,
    period_s: float,
    r_ohm: float,
    fault_label: MachineState = MachineState.BALL_CRACK,
) -> list[ScatterPoint]:
    """Mean faulty vs mean healthy harvested energy per design, in design order.

    The features of every design come from one pass over the recordings (see
    build_feature_sets). diag_distance_j is the perpendicular distance to the
    45-degree line, |healthy - faulty| / sqrt(2); designs far from the line
    separate the two states well. A manifest without recordings of either
    state is a DataError, raised before any recording is read.
    """
    present = {meta.label for meta in manifest.entries}
    for state in (MachineState.HEALTHY, fault_label):
        if state not in present:
            raise DataError(f"manifest holds no {state.value!r} recordings")
    rows, sets = build_feature_sets(manifest, designs, segment_s, segments_per_recording, [period_s], r_ohm)
    points = []
    for design, (features,) in zip(designs, sets):
        means = mean_state_energy(features, rows.labels)
        healthy = means[MachineState.HEALTHY.value]
        faulty = means[fault_label.value]
        points.append(
            ScatterPoint(design.name, design.thickness_mm, healthy, faulty, abs(healthy - faulty) / math.sqrt(2.0))
        )
    return points


def scatter_csv(points: Sequence[ScatterPoint]) -> str:
    header = ["design", "thickness_mm", "mean_healthy_j", "mean_faulty_j", "diag_distance_j"]
    return csv_text(header, map(astuple, points))


_SVG_SIZE = 640
_SVG_MARGIN = 70


def scatter_svg(points: Sequence[ScatterPoint]) -> str:
    """Fixed-layout SVG scatter of mean faulty vs mean healthy energy with the
    dashed 45-degree diagonal. Pure function of the points (no timestamps)."""
    span = max([p.mean_healthy_j for p in points] + [p.mean_faulty_j for p in points], default=1.0)
    span = span * 1.1 if span > 0 else 1.0
    plot = _SVG_SIZE - 2 * _SVG_MARGIN

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
    for p in points:
        cx, cy = sx(p.mean_healthy_j), sy(p.mean_faulty_j)
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="5" fill="steelblue"/>')
        parts.append(f'<text x="{cx + 8:.2f}" y="{cy - 8:.2f}" font-size="12">{p.design}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
