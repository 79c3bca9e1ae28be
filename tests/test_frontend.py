import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pehfault.frontend import integrate_energy, make_feature, mean_state_energy
from pehfault.harvester import design_from_thickness, simulate_voltage
from pehfault.signals import SignalUnit, TimeSeries, band_energy_digital, synth_sine


def volts(samples, fs=1024.0):
    return TimeSeries(np.asarray(samples, dtype=np.float64), fs, SignalUnit.VOLTS)


def trapezoid_oracle(v, period_s, r_ohm):
    """Independent integration oracle: trapezoid rule over each full interval."""
    n_per = int(round(period_s * v.fs))
    power = v.samples**2 / r_ohm
    out = []
    k = 0
    while (k + 1) * n_per + 1 <= len(v):  # needs the right endpoint sample
        chunk = power[k * n_per : (k + 1) * n_per + 1]
        out.append(float(np.trapezoid(chunk, dx=1.0 / v.fs)))
        k += 1
    return np.array(out)


class TestIntegrateEnergy:
    def test_constant_trace(self):
        fs, period, c, r = 1000.0, 2.0, 3.0, 5.0
        v = volts(np.full(int(period * fs), c), fs=fs)
        result = integrate_energy(v, period, r)
        assert len(result) == 1
        assert result[0] == pytest.approx(c * c * period / r, rel=1e-9)

    def test_unit_sine_closed_form(self):
        v = synth_sine(200.0, 1.0, 0.0, 51200.0, 3.0, unit=SignalUnit.VOLTS)
        result = integrate_energy(v, 3.0, 1.0)
        assert result[0] == pytest.approx(1.5, rel=1e-3)

    def test_matches_trapezoid_oracle_on_noise(self):
        rng = np.random.default_rng(21)
        v = volts(rng.standard_normal(8192), fs=2048.0)
        result = integrate_energy(v, 0.5, 2.0)
        oracle = trapezoid_oracle(v, 0.5, 2.0)
        assert len(result) >= len(oracle)
        for got, want in zip(result, oracle):
            assert got == pytest.approx(want, rel=5e-3)

    def test_trailing_partial_interval_discarded(self):
        v = volts(np.ones(2500), fs=1000.0)
        result = integrate_energy(v, 1.0, 1.0)
        assert len(result) == 2  # floor(2.5 / 1.0)

    def test_rejects_bad_arguments(self):
        v = volts(np.ones(100))
        with pytest.raises(ValueError):
            integrate_energy(v, 0.0, 1.0)
        with pytest.raises(ValueError):
            integrate_energy(v, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_energy(volts([]), 1.0, 1.0)
        with pytest.raises(ValueError):
            integrate_energy(v, 1e-9, 1.0)  # shorter than one sample


class TestMakeFeature:
    def test_scalar_feature_when_period_equals_duration(self):
        v = volts(np.ones(3000), fs=1000.0)
        assert make_feature(v, 3.0, 1.0).shape == (1,)

    def test_three_dimensional_feature(self):
        v = volts(np.ones(3000), fs=1000.0)
        assert make_feature(v, 1.0, 1.0).shape == (3,)

    def test_period_longer_than_trace_rejected(self):
        v = volts(np.ones(3000), fs=1000.0)
        with pytest.raises(ValueError):
            make_feature(v, 5.0, 1.0)


class TestMeanStateEnergy:
    def test_singleton(self):
        assert mean_state_energy(np.array([[2.0]]), ["healthy"]) == {"healthy": 2.0}

    def test_two_features_same_label(self):
        assert mean_state_energy(np.array([[1.0], [3.0]]), ["healthy", "healthy"])["healthy"] == pytest.approx(2.0)

    def test_matches_flat_recomputation(self):
        rng = np.random.default_rng(9)
        rows, labels = [], []
        raw = {"a": [], "b": []}
        for label in ("a", "b"):
            for _ in range(5):
                values = rng.uniform(0.0, 2.0, size=3)
                raw[label].extend(values.tolist())
                rows.append(values)
                labels.append(label)
        means = mean_state_energy(np.array(rows), labels)
        for label in ("a", "b"):
            assert means[label] == pytest.approx(float(np.mean(raw[label])), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_state_energy(np.empty((0, 1)), [])


def test_analog_energy_consistent_with_digital_baseline():
    # An in-band sinusoid sees a near-flat gain G, so the harvested energy
    # should match the spectrally computed band energy scaled by G^2.
    design = design_from_thickness(0.45)
    accel = synth_sine(design.f0_hz, 1.0, 0.0, 51200.0, 3.0)
    voltage = simulate_voltage(design, accel)
    harvested = float(integrate_energy(voltage, 3.0, design.r_ohm).sum())
    band = band_energy_digital(accel, design.f0_hz - 10.0, design.f0_hz + 10.0, design.r_ohm)
    assert harvested == pytest.approx(design.peak_gain_v_per_g**2 * band, rel=0.05)


noise_trace = hnp.arrays(
    np.float64,
    st.integers(min_value=8, max_value=512),
    elements=st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, width=64),
)


@given(noise_trace, st.integers(min_value=1, max_value=16))
def test_energies_never_negative(samples, n_per):
    v = volts(samples, fs=64.0)
    result = integrate_energy(v, n_per / 64.0, 1.0)
    assert np.all(result >= 0.0)


@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=8), st.integers(min_value=2, max_value=6))
def test_interval_sums_are_additive(seed, n_per, n_int):
    rng = np.random.default_rng(seed)
    fs = 64.0
    v = volts(rng.standard_normal(n_per * n_int), fs=fs)
    fine = integrate_energy(v, n_per / fs, 1.0)
    coarse = integrate_energy(v, n_per * n_int / fs, 1.0)
    assert len(fine) == n_int
    assert float(fine.sum()) == pytest.approx(float(coarse[0]), rel=1e-12)


@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=0.01, max_value=100.0),
    st.floats(min_value=0.01, max_value=100.0),
)
def test_amplitude_and_resistance_scale_laws(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    fs = 64.0
    samples = rng.standard_normal(128)
    base = integrate_energy(volts(samples, fs), 0.5, 1.0)
    scaled_v = integrate_energy(volts(alpha * samples, fs), 0.5, 1.0)
    scaled_r = integrate_energy(volts(samples, fs), 0.5, beta)
    np.testing.assert_allclose(scaled_v, alpha**2 * base, rtol=1e-12)
    np.testing.assert_allclose(scaled_r, base / beta, rtol=1e-12)
