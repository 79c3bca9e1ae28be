import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pehfault.signals import TimeSeries, signal_energy, synth_sine, window_samples
from tests.oracles import band_energy_digital, fft_magnitude, segment, synth_composite


def make_ts(samples, fs=1024.0):
    return TimeSeries(np.asarray(samples, dtype=np.float64), fs)


class TestSynthSine:
    def test_basic_shape_and_values(self):
        ts = synth_sine(200.0, 1.0, 0.0, 51200.0, 1.0)
        assert len(ts) == 51200
        assert ts.samples[0] == 0.0
        assert ts.samples.max() == pytest.approx(1.0, abs=1e-6)

    def test_zero_amplitude(self):
        ts = synth_sine(200.0, 0.0, 0.0, 51200.0, 1.0)
        assert np.all(ts.samples == 0.0)

    def test_rms_matches_closed_form(self):
        ts = synth_sine(150.0, 1.0, 0.0, 51200.0, 3.0)
        rms = math.sqrt(float(np.mean(ts.samples**2)))
        assert rms == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)

    def test_rejects_aliasing_and_bad_duration(self):
        with pytest.raises(ValueError):
            synth_sine(30000.0, 1.0, 0.0, 51200.0, 1.0)
        with pytest.raises(ValueError):
            synth_sine(25600.0, 1.0, 0.0, 51200.0, 1.0)  # f == fs/2
        with pytest.raises(ValueError):
            synth_sine(200.0, 1.0, 0.0, 51200.0, 0.0)
        with pytest.raises(ValueError):
            synth_sine(200.0, 1.0, 0.0, -1.0, 1.0)


NOT_FINITE = [float("nan"), float("inf")]


@pytest.mark.parametrize("value", NOT_FINITE)
class TestNonFiniteRateAndDuration:
    """NaN passes a `<= 0` test and infinity is positive: both must be
    rejected by name, not reach the tone check or allocate samples."""

    def test_time_series_rate(self, value):
        with pytest.raises(ValueError, match=f"^sampling rate must be positive and finite, got {value}$"):
            make_ts([0.0, 1.0], fs=value)

    def test_sine_rate(self, value):
        with pytest.raises(ValueError, match=f"^sampling rate must be positive and finite, got {value}$"):
            synth_sine(100.0, 1.0, 0.0, value, 1.0)

    def test_sine_duration(self, value):
        with pytest.raises(ValueError, match=f"^duration must be positive and finite, got {value}$"):
            synth_sine(100.0, 1.0, 0.0, 1000.0, value)

    def test_composite_rate_and_duration(self, value):
        with pytest.raises(ValueError, match=f"^sampling rate must be positive and finite, got {value}$"):
            synth_composite([], 0.1, value, 1.0, seed=0)
        with pytest.raises(ValueError, match=f"^duration must be positive and finite, got {value}$"):
            synth_composite([], 0.1, 1000.0, value, seed=0)


class TestSynthComposite:
    def test_degenerate_equals_sine(self):
        a = synth_composite([(200.0, 1.0)], 0.0, 51200.0, 1.0, seed=0)
        b = synth_sine(200.0, 1.0, 0.0, 51200.0, 1.0)
        assert np.array_equal(a.samples, b.samples)

    def test_noise_deterministic_under_seed(self):
        a = synth_composite([], 1.0, 8192.0, 1.0, seed=123)
        b = synth_composite([], 1.0, 8192.0, 1.0, seed=123)
        assert np.array_equal(a.samples, b.samples)
        c = synth_composite([], 1.0, 8192.0, 1.0, seed=124)
        assert not np.array_equal(a.samples, c.samples)

    def test_spectrum_peaks_at_tone_bins(self):
        ts = synth_composite([(125.0, 1.0), (175.0, 0.5)], 0.1, 51200.0, 3.0, seed=1)
        sp = fft_magnitude(ts)
        freqs = sp.frequencies
        assert freqs[np.argmax(sp.magnitudes)] == pytest.approx(125.0, abs=sp.df)
        above_150 = freqs > 150.0
        assert freqs[above_150][np.argmax(sp.magnitudes[above_150])] == pytest.approx(175.0, abs=sp.df)

    def test_rejects_aliasing_tone(self):
        with pytest.raises(ValueError):
            synth_composite([(5000.0, 1.0)], 0.0, 8192.0, 1.0, seed=0)


class TestFftMagnitude:
    def test_sine_dominant_bin(self):
        sp = fft_magnitude(synth_sine(200.0, 1.0, 0.0, 51200.0, 1.0))
        peak = np.argmax(sp.magnitudes)
        assert sp.frequencies[peak] == pytest.approx(200.0, abs=sp.df / 2)
        rest = np.delete(sp.magnitudes, peak)
        assert rest.max() < sp.magnitudes[peak] * 1e-6

    def test_zero_input(self):
        sp = fft_magnitude(make_ts(np.zeros(100)))
        assert np.all(sp.magnitudes == 0.0)

    def test_parseval_white_noise(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4096)
        sp = fft_magnitude(make_ts(x))
        time_side = float(np.sum(x**2))
        freq_side = float(np.sum(sp.magnitudes**2)) / len(x)
        assert freq_side == pytest.approx(time_side, rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fft_magnitude(make_ts([]))

    def test_bin_layout(self):
        sp = fft_magnitude(make_ts(np.ones(1000), fs=500.0))
        assert sp.df == pytest.approx(0.5)
        assert sp.fs_origin == 500.0
        assert len(sp.magnitudes) == 501  # covers [0, fs/2]


class TestBandEnergyDigital:
    def test_unit_sine_in_band(self):
        ts = synth_sine(200.0, 1.0, 0.0, 51200.0, 3.0)
        assert band_energy_digital(ts, 195.0, 205.0, 1.0) == pytest.approx(1.5, rel=0.01)

    def test_unit_sine_out_of_band(self):
        ts = synth_sine(200.0, 1.0, 0.0, 51200.0, 3.0)
        assert band_energy_digital(ts, 100.0, 140.0, 1.0) < 1e-3

    def test_full_band_equals_time_domain_total(self):
        rng = np.random.default_rng(11)
        ts = make_ts(rng.standard_normal(8192), fs=2048.0)
        total = float(np.sum(ts.samples**2) / ts.fs)  # independent time-domain oracle
        assert band_energy_digital(ts, 0.0, ts.fs / 2, 1.0) == pytest.approx(total, rel=1e-6)

    def test_disjoint_bands_additive(self):
        rng = np.random.default_rng(13)
        ts = make_ts(rng.standard_normal(2048), fs=1024.0)
        # boundary halfway between bin centers so no bin lands in both bands
        cut = (400 + 0.5) * ts.fs / len(ts)
        low = band_energy_digital(ts, 0.0, cut)
        high = band_energy_digital(ts, cut, ts.fs / 2)
        assert low + high == pytest.approx(band_energy_digital(ts, 0.0, ts.fs / 2), rel=1e-9)

    def test_invalid_band_ordering(self):
        ts = make_ts(np.ones(100))
        with pytest.raises(ValueError):
            band_energy_digital(ts, 205.0, 195.0)
        with pytest.raises(ValueError):
            band_energy_digital(ts, -1.0, 100.0)
        with pytest.raises(ValueError):
            band_energy_digital(ts, 0.0, ts.fs)


class TestSignalEnergy:
    def test_load_resistance_must_be_positive(self):
        with pytest.raises(ValueError, match=r"^load resistance must be positive, got 0\.0$"):
            signal_energy(make_ts(np.ones(4)), 0.0)

    def test_empty_series_has_no_energy(self):
        with pytest.raises(ValueError, match=r"^cannot compute the energy of an empty series$"):
            signal_energy(make_ts([]))


class TestSegment:
    def test_recording_shape(self):
        ts = make_ts(np.arange(512000), fs=51200.0)
        parts = segment(ts, 3.0, 3)
        assert len(parts) == 3
        assert all(len(p) == 153600 for p in parts)

    def test_identity_segmentation(self):
        ts = make_ts(np.arange(1000), fs=100.0)
        (only,) = segment(ts, 10.0, 1)
        assert np.array_equal(only.samples, ts.samples)

    def test_insufficient_duration(self):
        ts = make_ts(np.arange(100), fs=100.0)
        with pytest.raises(ValueError):
            segment(ts, 0.5, 3)

    def test_window_count_that_is_not_finite_is_rejected_by_name(self):
        with pytest.raises(ValueError, match=r"^window of 3s at fs=1e\+308 Hz is not a finite number of samples$"):
            window_samples(10, 1e308, 3.0, 1)

    @pytest.mark.parametrize(
        "window_s, count, message",
        [
            (0.0, 1, r"^window must be positive, got 0\.0$"),
            (0.05, 0, r"^segment count must be >= 1, got 0$"),
            (0.001, 1, r"^window of 0\.001s is shorter than one sample at fs=100\.0$"),
        ],
    )
    def test_window_arguments_are_checked_by_name(self, window_s, count, message):
        with pytest.raises(ValueError, match=message):
            window_samples(10, 100.0, window_s, count)

    def test_seven_recordings_give_21_segments(self):
        recordings = [make_ts(np.arange(512000), fs=51200.0) for _ in range(7)]
        segments = [piece for ts in recordings for piece in segment(ts, 3.0, 3)]
        assert len(segments) == 21


finite_samples = hnp.arrays(
    np.float64,
    st.integers(min_value=1, max_value=256),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64),
)


@given(finite_samples, st.floats(min_value=1.0, max_value=1e5))
def test_parseval_property(samples, fs):
    ts = make_ts(samples, fs=fs)
    time_energy = signal_energy(ts)
    sp = fft_magnitude(ts)
    freq_energy = float(np.sum(sp.magnitudes**2)) / (len(ts) * fs)
    assert math.isclose(time_energy, freq_energy, rel_tol=1e-6, abs_tol=1e-12)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=32),
)
def test_segmentation_partitions_exactly(seed, count, n_win, extra):
    rng = np.random.default_rng(seed)
    fs = 64.0
    ts = make_ts(rng.standard_normal(count * n_win + extra), fs=fs)
    parts = segment(ts, n_win / fs, count)
    glued = np.concatenate([p.samples for p in parts])
    assert np.array_equal(glued, ts.samples[: count * n_win])


@settings(max_examples=25)
@given(st.integers(min_value=0, max_value=2**31), st.floats(min_value=0.0, max_value=10.0))
def test_composite_deterministic(seed, sigma):
    a = synth_composite([(100.0, 1.0)], sigma, 2048.0, 0.5, seed=seed)
    b = synth_composite([(100.0, 1.0)], sigma, 2048.0, 0.5, seed=seed)
    assert np.array_equal(a.samples, b.samples)
