"""Acceptance gate: one test per release criterion, each printing a pass/fail
line (run with `pytest tests/test_acceptance.py -v -s` to see them).

Criterion 7 reproduces the published-dataset experiment and only runs when a
converted manifest is supplied via the PEHFAULT_DATASET_MANIFEST environment
variable; when the dataset is absent the surrogate end-to-end check
(criterion 6) stands in for it, as documented below.
"""

import math
import os
import time

import numpy as np
import pytest

from pehfault.classify import SplitConfig, knn_fit, knn_predict, repeated_evaluation
from pehfault.cli import EXIT_OK, main
from pehfault.dataset import (
    DEFAULT_SURROGATE_SPEC,
    MachineState,
    build_feature_set,
    filter_manifest,
    load_manifest,
    synth_surrogate_corpus,
)
from pehfault.frontend import integrate_energy
from pehfault.harvester import (
    DEFAULT_DESIGNS,
    PehDesign,
    design_from_thickness,
    frf_magnitude,
    measure_steady_gain,
    simulate_voltage,
)
from pehfault.report import run_thought_experiment
from pehfault.signals import SignalUnit, band_energy_digital, signal_energy, synth_composite, synth_sine
from tests.test_classify import brute_force_predict, matrix

FS = 51200.0


def _conclude(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}" + (f" — {detail}" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_analytic_integration():
    started = time.perf_counter()
    voltage = synth_sine(200.0, 1.0, 0.0, FS, 3.0, unit=SignalUnit.VOLTS)  # 600 full cycles
    energy = integrate_energy(voltage, 3.0, 1.0)[0]
    elapsed = time.perf_counter() - started
    ok = abs(energy - 1.5) / 1.5 <= 1e-3 and elapsed < 1.0
    _conclude("criterion 1: sine integration matches A^2*T/2", ok, f"y={energy:.6f} J in {elapsed:.2f}s")


def _measured_gain(design: PehDesign, f_hz: float) -> float:
    return measure_steady_gain(design, FS, f_hz, settle_s=0.5, measure_s=0.5)


def _half_power_edge(design: PehDesign, lo: float, hi: float, target: float, rising: bool) -> float:
    for _ in range(14):
        mid = 0.5 * (lo + hi)
        above_edge = _measured_gain(design, mid) >= target
        if above_edge == rising:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_criterion_2_frequency_response_fidelity():
    started = time.perf_counter()
    worst_gain_err = 0.0
    worst_edge_err = 0.0
    for design in DEFAULT_DESIGNS:
        for f_probe in (design.f0_hz - 5.0, design.f0_hz, design.f0_hz + 5.0):
            err = abs(_measured_gain(design, f_probe) - frf_magnitude(design, f_probe)) / frf_magnitude(
                design, f_probe
            )
            worst_gain_err = max(worst_gain_err, err)
        target = _measured_gain(design, design.f0_hz) / math.sqrt(2.0)
        low_edge = _half_power_edge(design, design.f0_hz - 8.0, design.f0_hz - 2.0, target, rising=True)
        high_edge = _half_power_edge(design, design.f0_hz + 2.0, design.f0_hz + 8.0, target, rising=False)
        worst_edge_err = max(
            worst_edge_err,
            abs(low_edge - (design.f0_hz - 5.0)),
            abs(high_edge - (design.f0_hz + 5.0)),
        )
    elapsed = time.perf_counter() - started
    ok = worst_gain_err <= 0.02 and worst_edge_err <= 0.5 and elapsed < 10.0
    _conclude(
        "criterion 2: measured response matches analytic curve",
        ok,
        f"gain err {worst_gain_err:.2e}, edge err {worst_edge_err:.3f} Hz in {elapsed:.2f}s",
    )


def test_criterion_3_two_design_frequency_shift():
    started = time.perf_counter()
    report = run_thought_experiment(
        200.0, 150.0, design_from_thickness(0.50), design_from_thickness(0.40), period_s=3.0, r_ohm=1.0, fs=FS
    )
    healthy_ratio = report.energies[0, 0] / report.energies[0, 1]
    faulty_ratio = report.energies[1, 1] / report.energies[1, 0]
    elapsed = time.perf_counter() - started
    ok = healthy_ratio >= 20.0 and faulty_ratio >= 20.0 and elapsed < 5.0
    _conclude(
        "criterion 3: pass-band energy dominates by the analytic margin",
        ok,
        f"ratios {healthy_ratio:.1f}/{faulty_ratio:.1f} in {elapsed:.2f}s",
    )


def test_criterion_4_knn_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(2, 101))
        dim = int(rng.integers(1, 6))
        points = [
            (rng.integers(-6, 7, size=dim).astype(float), str(rng.choice(["a", "b", "c"]))) for _ in range(n)
        ]
        k = int(rng.integers(1, n + 1))
        model = knn_fit(*matrix(points), k=k)
        query = rng.integers(-6, 7, size=dim).astype(float)
        if knn_predict(model, query) != brute_force_predict(points, k, query):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 5.0
    _conclude("criterion 4: classifier agrees with exhaustive oracle", ok, f"{mismatches} mismatches in {elapsed:.2f}s")


def test_criterion_5_parseval_and_baseline_consistency():
    noise = synth_composite([], 1.0, FS, 1.0, seed=99, unit=SignalUnit.VOLTS)
    time_energy = signal_energy(noise)
    spectral_energy = band_energy_digital(noise, 0.0, FS / 2)
    parseval_err = abs(time_energy - spectral_energy) / time_energy

    design = PehDesign("gain2", 0.45, 175.0, 10.0, peak_gain_v_per_g=2.0)
    accel = synth_sine(design.f0_hz, 1.0, 0.0, FS, 3.0)
    harvested = float(integrate_energy(simulate_voltage(design, accel), 3.0, design.r_ohm).sum())
    band = band_energy_digital(accel, design.f0_hz - 10.0, design.f0_hz + 10.0, design.r_ohm)
    pipeline_err = abs(harvested - design.peak_gain_v_per_g**2 * band) / (design.peak_gain_v_per_g**2 * band)

    ok = parseval_err <= 1e-6 and pipeline_err <= 0.05
    _conclude(
        "criterion 5: spectral baseline consistent with time domain and analog pipeline",
        ok,
        f"parseval err {parseval_err:.2e}, pipeline err {pipeline_err:.2%}",
    )


def test_criterion_6_surrogate_end_to_end(tmp_path):
    started = time.perf_counter()
    manifest = synth_surrogate_corpus(DEFAULT_SURROGATE_SPEC, seed=0, out_dir=tmp_path / "corpus")
    rows, features = build_feature_set(manifest, design_from_thickness(0.50), 3.0, 3, 3.0, 1.0)
    reports = repeated_evaluation(features, rows.labels, 3, SplitConfig(0.8, seed=0), 20)
    mean_accuracy = float(np.mean([r.accuracy for r in reports]))
    elapsed = time.perf_counter() - started
    ok = mean_accuracy >= 0.85 and elapsed < 60.0
    _conclude(
        "criterion 6: surrogate corpus classified end to end",
        ok,
        f"mean accuracy {mean_accuracy:.3f} over 20 splits in {elapsed:.1f}s",
    )


def test_criterion_7_published_dataset_reproduction():
    """Ball-crack vs healthy on the converted public dataset: 0.45 mm design,
    T=3 s, k=3, 20 seeded 80/20 splits, mean accuracy within 7 points of 89%.

    Conditional: needs PEHFAULT_DATASET_MANIFEST to point at a manifest of
    converted recordings. Without it this test is skipped and criterion 6
    (surrogate end-to-end) substitutes as the pipeline-level gate.
    """
    manifest_path = os.environ.get("PEHFAULT_DATASET_MANIFEST", "")
    if not manifest_path:
        pytest.skip("PEHFAULT_DATASET_MANIFEST not set; criterion 6 substitutes for the dataset reproduction")
    manifest = filter_manifest(
        load_manifest(manifest_path), labels=(MachineState.HEALTHY, MachineState.BALL_CRACK)
    )
    rows, features = build_feature_set(manifest, design_from_thickness(0.45), 3.0, 3, 3.0, 1.0)
    reports = repeated_evaluation(features, rows.labels, 3, SplitConfig(0.8, seed=0), 20)
    mean_accuracy = float(np.mean([r.accuracy for r in reports]))
    ok = abs(mean_accuracy - 0.89) <= 0.07
    _conclude("criterion 7: published-dataset accuracy reproduced", ok, f"mean accuracy {mean_accuracy:.3f}")


def test_criterion_8_sampling_reduction_report(capsys):
    code = main(["energy-report", "--fs-raw", "51200", "--T", "3"])
    out = capsys.readouterr().out
    ok = code == EXIT_OK and "153600" in out and "0.33 Hz" in out
    with capsys.disabled():
        _conclude("criterion 8: exact 153600x reduction at a 0.33 Hz feature rate", ok)


def test_criterion_9_rerun_determinism(tmp_path, capsys):
    manifest = synth_surrogate_corpus(DEFAULT_SURROGATE_SPEC, seed=4, out_dir=tmp_path / "corpus")
    manifest_arg = str(manifest.root / "manifest.csv")
    outputs = {}
    for name in ("first", "second"):
        out_dir = tmp_path / name
        assert main(["extract", "--manifest", manifest_arg, "--out", str(out_dir), "--seed", "5"]) == EXIT_OK
        assert main(["classify", "--manifest", manifest_arg, "--out", str(out_dir), "--seed", "5"]) == EXIT_OK
        outputs[name] = (
            (out_dir / "features.csv").read_bytes(),
            (out_dir / "classification.csv").read_bytes(),
        )
    capsys.readouterr()
    ok = outputs["first"] == outputs["second"]
    with capsys.disabled():
        _conclude("criterion 9: extract and classify reruns are byte-identical", ok)
