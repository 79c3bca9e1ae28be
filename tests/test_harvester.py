import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pehfault.dataset import load_design_table
from pehfault.errors import DataError
from pehfault.harvester import DEFAULT_DESIGNS, PehDesign, _biquad_coefficients, design_from_thickness
from pehfault.signals import TimeSeries, synth_sine
from tests.oracles import frf_magnitude, measure_steady_gain, simulate_voltage, verify_discretization

FS = 51200.0


def complex_response(design, f_hz):
    """Independent oracle: evaluate H(s) at s = j*2*pi*f with complex arithmetic."""
    w0 = 2 * math.pi * design.f0_hz
    s = 2j * math.pi * f_hz
    h = design.peak_gain_v_per_g * (s * w0 / design.quality) / (s * s + s * w0 / design.quality + w0 * w0)
    return abs(h)


class TestDesignTable:
    def test_thickness_resonance_pairs(self):
        assert design_from_thickness(0.45).f0_hz == 175.0
        assert design_from_thickness(0.45).bw3db_hz == 10.0
        assert design_from_thickness(0.35).f0_hz == 125.0

    def test_all_defaults(self):
        pairs = [(d.thickness_mm, d.f0_hz) for d in DEFAULT_DESIGNS]
        assert pairs == [(0.35, 125.0), (0.40, 150.0), (0.45, 175.0), (0.50, 200.0)]
        assert all(d.peak_gain_v_per_g == 1.0 for d in DEFAULT_DESIGNS)

    def test_unknown_thickness(self):
        with pytest.raises(ValueError, match="unknown design"):
            design_from_thickness(0.42)

    def test_a_thickness_matches_exactly(self):
        """A thickness 1e-10 mm off a table entry is not that entry; the
        message states it as given."""
        with pytest.raises(ValueError) as info:
            design_from_thickness(0.5000000001)
        assert str(info.value) == "unknown design: thickness 0.5000000001 mm not in table (0.35, 0.4, 0.45, 0.5 mm)"
        table = (PehDesign("A", 0.5, 200.0, 10.0), PehDesign("B", 0.5000000001, 150.0, 10.0))
        assert [design_from_thickness(t, table).name for t in (0.5000000001, 0.5)] == ["B", "A"]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            PehDesign("bad", 0.4, -150.0, 10.0)
        with pytest.raises(ValueError):
            PehDesign("bad", 0.4, 150.0, 150.0)  # bw must stay below f0
        with pytest.raises(ValueError):
            PehDesign("bad", 0.4, 150.0, 10.0, peak_gain_v_per_g=0.0)

    def test_table_override_file(self, tmp_path):
        path = tmp_path / "designs.csv"
        path.write_text(
            "name,thickness_mm,f0_hz,bw3db_hz,peak_gain_v_per_g\n"
            "custom_a,0.35,130,12,2.5\n"
            "custom_b,0.50,210,8,1.5\n"
        )
        table = load_design_table(path)
        assert len(table) == 2
        assert table[0].peak_gain_v_per_g == 2.5
        assert design_from_thickness(0.50, table).f0_hz == 210.0

    def test_table_bad_header(self, tmp_path):
        path = tmp_path / "designs.csv"
        path.write_text("name,thickness\nx,0.35\n")
        with pytest.raises(DataError, match="header"):
            load_design_table(path)

    def test_table_quoted_name_with_comma(self, tmp_path):
        path = tmp_path / "designs.csv"
        path.write_text('name,thickness_mm,f0_hz,bw3db_hz,peak_gain_v_per_g\n"peh,a",0.35,130,12,2.5\n')
        assert [d.name for d in load_design_table(path)] == ["peh,a"]

    def test_table_error_names_physical_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "designs.csv"
        path.write_text("name,thickness_mm,f0_hz,bw3db_hz,peak_gain_v_per_g\n\n\nx,0.35,130\n")
        with pytest.raises(DataError, match=r"designs\.csv:4: expected 5 fields"):
            load_design_table(path)

    def test_table_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_design_table(tmp_path / "nope.csv")


class TestFrfMagnitude:
    def test_peak_at_resonance(self):
        for design in DEFAULT_DESIGNS:
            assert frf_magnitude(design, design.f0_hz) == pytest.approx(design.peak_gain_v_per_g, rel=1e-12)

    def test_half_power_near_band_edges(self):
        # The exact half-power edges are geometrically symmetric about f0, so
        # the gain at the arithmetic edges f0 +- bw/2 only approximates the
        # half-power level (to ~1/(8*Q^2), about 1.04% at Q=12.5).
        for design in DEFAULT_DESIGNS:
            for edge in (design.f0_hz - design.bw3db_hz / 2, design.f0_hz + design.bw3db_hz / 2):
                assert frf_magnitude(design, edge) == pytest.approx(design.peak_gain_v_per_g / math.sqrt(2), rel=0.011)

    def test_exact_half_power_bandwidth(self):
        # f_lo * f_hi = f0^2 and f_hi - f_lo = bw3db hold exactly for this model.
        for design in DEFAULT_DESIGNS:
            q = design.quality
            half_width = design.f0_hz / (2 * q)
            center = design.f0_hz * math.sqrt(1 + 1 / (4 * q * q))
            f_lo, f_hi = center - half_width, center + half_width
            for edge in (f_lo, f_hi):
                assert frf_magnitude(design, edge) == pytest.approx(design.peak_gain_v_per_g / math.sqrt(2), rel=1e-9)
            assert f_hi - f_lo == pytest.approx(design.bw3db_hz, rel=1e-9)
            assert abs(f_lo - (design.f0_hz - design.bw3db_hz / 2)) < 0.11
            assert abs(f_hi - (design.f0_hz + design.bw3db_hz / 2)) < 0.11

    def test_closed_form_against_complex_oracle(self):
        design = PehDesign("ref", 0.5, 200.0, 10.0)  # Q = 20
        value = frf_magnitude(design, 150.0)
        assert value == pytest.approx(complex_response(design, 150.0), rel=1e-12)
        assert value == pytest.approx(0.0854011, rel=1e-5)

    def test_zero_frequency(self):
        assert frf_magnitude(DEFAULT_DESIGNS[0], 0.0) == 0.0

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            frf_magnitude(DEFAULT_DESIGNS[0], -1.0)

    def test_array_input(self):
        design = DEFAULT_DESIGNS[3]
        freqs = np.array([0.0, 100.0, design.f0_hz])
        gains = frf_magnitude(design, freqs)
        assert gains.shape == (3,)
        assert gains[0] == 0.0
        assert gains[2] == pytest.approx(1.0)


class TestSimulateVoltage:
    def test_zero_input_zero_output(self):
        silent = TimeSeries(np.zeros(1000), FS)
        out = simulate_voltage(DEFAULT_DESIGNS[0], silent)
        assert out.fs == FS
        assert np.all(out.samples == 0.0)

    def test_resonant_steady_state_amplitude(self):
        design = design_from_thickness(0.45)
        drive = synth_sine(175.0, 1.0, 0.0, FS, 2.0)
        out = simulate_voltage(design, drive)
        settled = out.samples[len(out) // 2 :]
        assert np.abs(settled).max() == pytest.approx(design.peak_gain_v_per_g, rel=0.02)

    def test_mismatched_design_attenuates(self):
        drive = synth_sine(200.0, 1.0, 0.0, FS, 2.0)
        matched = simulate_voltage(design_from_thickness(0.50), drive)
        mismatched = simulate_voltage(design_from_thickness(0.40), drive)
        half = len(drive) // 2
        assert np.abs(mismatched.samples[half:]).max() < np.abs(matched.samples[half:]).max()

    def test_sampling_rate_guard(self):
        slow = TimeSeries(np.zeros(100), 1000.0)
        with pytest.raises(ValueError, match="sampling rate too low"):
            simulate_voltage(design_from_thickness(0.50), slow)

    def test_poles_stable_for_all_designs(self):
        for design in DEFAULT_DESIGNS:
            _b, a = _biquad_coefficients(design, FS)
            assert np.all(np.abs(np.roots(a)) < 1.0)

    def test_resonant_gain_holds_at_50x_rate(self):
        # prewarping pins the resonance gain even at modest oversampling
        design = PehDesign("coarse", 0.4, 150.0, 10.0)
        measured = measure_steady_gain(design, 50 * design.f0_hz, design.f0_hz)
        assert measured == pytest.approx(design.peak_gain_v_per_g, rel=0.02)


class TestVerifyDiscretization:
    def test_probe_triplet_within_tolerance(self):
        design = design_from_thickness(0.50)
        assert verify_discretization(design, FS, [190.0, 200.0, 210.0]) <= 0.02

    def test_resonance_probe_alone(self):
        design = design_from_thickness(0.50)
        assert verify_discretization(design, FS, [design.f0_hz]) <= 0.02

    def test_low_rate_rejected(self):
        design = design_from_thickness(0.50)
        with pytest.raises(ValueError):
            verify_discretization(design, 1000.0, [200.0])

    def test_probe_outside_nyquist_rejected(self):
        design = design_from_thickness(0.35)
        with pytest.raises(ValueError, match="probe"):
            verify_discretization(design, FS, [30000.0])


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    design = PehDesign("lin", 0.4, 150.0, 12.0)
    fs = 8192.0
    u1 = rng.standard_normal(2048)
    u2 = rng.standard_normal(2048)
    sim = lambda x: simulate_voltage(design, TimeSeries(x, fs)).samples
    combined = sim(a * u1 + b * u2)
    separate = a * sim(u1) + b * sim(u2)
    scale = max(1.0, float(np.abs(combined).max()))
    assert float(np.abs(combined - separate).max()) <= 1e-9 * scale


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.integers(min_value=1, max_value=200))
def test_time_invariance_after_settling(seed, shift):
    rng = np.random.default_rng(seed)
    design = PehDesign("ti", 0.4, 150.0, 12.0)
    fs = 8192.0
    x = rng.standard_normal(4096)
    sim = lambda sig: simulate_voltage(design, TimeSeries(sig, fs)).samples
    direct = sim(x)
    delayed = sim(np.concatenate([np.zeros(shift), x]))
    settle = 1024  # compare well past the startup transient
    assert float(np.abs(delayed[shift + settle : shift + 4096] - direct[settle:]).max()) <= 1e-6


tone = st.tuples(
    st.floats(min_value=10.0, max_value=3000.0),
    st.floats(min_value=0.01, max_value=2.0),
)


@settings(max_examples=20, deadline=None)
@given(st.lists(tone, min_size=1, max_size=5), st.integers(min_value=0, max_value=2**31))
def test_bounded_multitone_output_after_settling(tones, seed):
    rng = np.random.default_rng(seed)
    design = PehDesign("bibo", 0.4, 150.0, 15.0, peak_gain_v_per_g=2.0)
    fs = 8192.0
    n = 8192
    t = np.arange(n) / fs
    x = np.zeros(n)
    for f_hz, amp in tones:
        x += amp * np.sin(2 * np.pi * f_hz * t + rng.uniform(0, 2 * np.pi))
    bound = sum(amp for _, amp in tones)
    v = simulate_voltage(design, TimeSeries(x, fs)).samples
    assert float(np.abs(v[n // 2 :]).max()) <= 1.1 * bound * design.peak_gain_v_per_g + 1e-12


@given(
    st.floats(min_value=1e-3, max_value=1e6),
    st.floats(min_value=1e-3, max_value=1e6),
)
def test_frf_unimodal_in_log_frequency(f1, f2):
    design = PehDesign("uni", 0.45, 175.0, 10.0)
    d1 = abs(math.log(f1 / design.f0_hz))
    d2 = abs(math.log(f2 / design.f0_hz))
    if d2 - d1 >= 1e-6:
        assert frf_magnitude(design, f1) > frf_magnitude(design, f2)


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([125.0, 150.0, 175.0, 200.0]), st.floats(min_value=-4.0, max_value=4.0))
def test_measured_gain_tracks_analytic_frf(f0, offset):
    design = PehDesign("probe", 0.4, f0, 10.0)
    f_probe = f0 + offset
    measured = measure_steady_gain(design, FS, f_probe, settle_s=0.5, measure_s=0.5)
    assert measured == pytest.approx(frf_magnitude(design, f_probe), rel=0.01)
