import os
import re
import shutil
import threading
import time
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.signal
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pehfault.dataset
from pehfault.cli import main
from pehfault.dataset import (
    DEFAULT_SURROGATE_SPEC,
    ClassSignalSpec,
    MachineState,
    RecordingMeta,
    SurrogateSpec,
    build_feature_sets,
    csv_text,
    load_manifest,
    load_recording,
    load_surrogate_spec,
    synth_surrogate_corpus,
    write_recording_f32,
)
from pehfault.errors import ConfigError, DataError
from pehfault.frontend import mean_state_energy
from pehfault.harvester import DEFAULT_DESIGNS, PehDesign, _biquad_coefficients, design_from_thickness
from pehfault.signals import TimeSeries, signal_energy
from tests.conftest import MIXED_RATE_ERROR, SMALL_SEGMENT_S, SMALL_SEGMENTS, SMALL_SPEC, mixed_rate_manifest, rewrite_as_text
from tests.oracles import make_feature, row_labels, segment, simulate_voltage


def write_text_recording(path, samples):
    path.write_text("\n".join(f"{v!r}" for v in samples) + "\n")


def make_manifest(tmp_path, rows, n_samples=64, fs=8000.0):
    lines = ["path,label,bearing_type,load_w,fs_hz"]
    rng = np.random.default_rng(0)
    for name, label in rows:
        write_text_recording(tmp_path / name, rng.standard_normal(n_samples))
        lines.append(f"{name},{label},6204,0,{fs:g}")
    path = tmp_path / "manifest.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadManifest:
    def test_fourteen_rows(self, tmp_path):
        rows = [(f"h{i}.txt", "healthy") for i in range(7)] + [(f"b{i}.txt", "ball_crack") for i in range(7)]
        manifest = load_manifest(make_manifest(tmp_path, rows))
        assert len(manifest.entries) == 14
        groups = Counter((meta.label.value, meta.bearing_type, meta.load_w) for meta in manifest.entries)
        assert groups == {("healthy", "6204", 0): 7, ("ball_crack", "6204", 0): 7}

    def test_empty_file(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty manifest"):
            load_manifest(path)

    def test_header_only_gives_zero_entries(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,label,bearing_type,load_w,fs_hz\n")
        assert load_manifest(path).entries == ()

    def test_unknown_label_names_token_and_line(self, tmp_path):
        write_text_recording(tmp_path / "a.txt", [0.0])
        path = tmp_path / "manifest.csv"
        path.write_text("path,label,bearing_type,load_w,fs_hz\na.txt,ballcrak,6204,0,8000\n")
        with pytest.raises(DataError, match=r":2.*'ballcrak'"):
            load_manifest(path)

    def test_duplicate_path_rejected(self, tmp_path):
        write_text_recording(tmp_path / "a.txt", [0.0])
        path = tmp_path / "manifest.csv"
        path.write_text(
            "path,label,bearing_type,load_w,fs_hz\na.txt,healthy,6204,0,8000\na.txt,healthy,6204,0,8000\n"
        )
        with pytest.raises(DataError, match="duplicate"):
            load_manifest(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("file,label\na.txt,healthy\n")
        with pytest.raises(DataError, match="header"):
            load_manifest(path)

    def test_wrong_field_count(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,label,bearing_type,load_w,fs_hz\na.txt,healthy,6204\n")
        with pytest.raises(DataError, match="expected 5 fields"):
            load_manifest(path)

    def test_invalid_load_rejected(self, tmp_path):
        write_text_recording(tmp_path / "a.txt", [0.0])
        path = tmp_path / "manifest.csv"
        path.write_text("path,label,bearing_type,load_w,fs_hz\na.txt,healthy,6204,300,8000\n")
        with pytest.raises(DataError, match="load"):
            load_manifest(path)

    def test_missing_recording_file(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,label,bearing_type,load_w,fs_hz\nmissing.txt,healthy,6204,0,8000\n")
        with pytest.raises(DataError, match="not found"):
            load_manifest(path)

    def test_quoted_path_with_comma(self, tmp_path):
        write_text_recording(tmp_path / "a,b.txt", [0.0])
        path = tmp_path / "manifest.csv"
        path.write_text('path,label,bearing_type,load_w,fs_hz\n"a,b.txt",healthy,6204,0,51200\n')
        assert [m.path for m in load_manifest(path).entries] == ["a,b.txt"]

    def test_error_names_physical_line_after_blank_lines(self, tmp_path):
        write_text_recording(tmp_path / "a.txt", [0.0])
        path = tmp_path / "manifest.csv"
        path.write_text("path,label,bearing_type,load_w,fs_hz\n\n\na.txt,ballcrak,6204,0,8000\n")
        with pytest.raises(DataError, match=r"manifest\.csv:4: .*'ballcrak'"):
            load_manifest(path)


def test_csv_text_quotes_a_comma_and_writes_numbers_by_repr():
    text = csv_text(["name", "n", "x"], [("peh,a", 3, np.float64(0.1)), ("b", 0, 1 / 3)])
    assert text == 'name,n,x\n"peh,a",3,0.1\nb,0,0.3333333333333333\n'


class TestLoadRecording:
    def meta(self, name, fs=51200.0):
        return RecordingMeta(name, MachineState.HEALTHY, "6204", 0, fs)

    def test_text_recording_paper_shape(self, tmp_path):
        (tmp_path / "rec.txt").write_text("\n".join(["0.0"] * 512000) + "\n")
        ts = load_recording(self.meta("rec.txt"), tmp_path)
        assert len(ts) == 512000
        assert len(ts) / ts.fs == pytest.approx(10.0)

    def test_raw_float32_arithmetic(self, tmp_path):
        (tmp_path / "rec.f32").write_bytes(b"\x00" * 12)
        ts = load_recording(self.meta("rec.f32"), tmp_path)
        assert len(ts) == 3

    def test_text_nan_rejected_with_row(self, tmp_path):
        (tmp_path / "rec.txt").write_text("0.5\nNaN\n1.0\n")
        with pytest.raises(DataError, match=":2"):
            load_recording(self.meta("rec.txt"), tmp_path)

    def test_text_garbage_rejected_with_row(self, tmp_path):
        (tmp_path / "rec.txt").write_text("0.5\n0.25\nbogus\n")
        with pytest.raises(DataError, match=":3"):
            load_recording(self.meta("rec.txt"), tmp_path)

    @pytest.mark.parametrize(
        "layout",
        [lambda x: x, lambda x: np.repeat(x.astype("<f4"), 3)[::3], lambda x: x.astype(">f4"), lambda x: x.astype("<f4")],
        ids=["float64", "strided", "big-endian", "little-endian-f32"],
    )
    def test_raw_roundtrip_with_sidecar(self, layout, tmp_path):
        """Any layout of the samples is written as the same little-endian float32 bytes."""
        rng = np.random.default_rng(2)
        samples = rng.standard_normal(256).astype("<f4").astype(np.float64)
        write_recording_f32(layout(samples), 8000.0, tmp_path / "rec.f32")
        assert (tmp_path / "rec.f32").read_bytes() == samples.astype("<f4").tobytes()
        ts = load_recording(self.meta("rec.f32", fs=8000.0), tmp_path)
        assert np.array_equal(ts.samples, samples)

    def test_sidecar_sample_count_mismatch(self, tmp_path):
        write_recording_f32(np.zeros(8), 8000.0, tmp_path / "rec.f32")
        (tmp_path / "rec.f32.hdr").write_text("fs_hz=8000\nn_samples=9\n")
        with pytest.raises(DataError, match="sidecar"):
            load_recording(self.meta("rec.f32", fs=8000.0), tmp_path)

    def test_sidecar_rate_mismatch(self, tmp_path):
        write_recording_f32(np.zeros(8), 4000.0, tmp_path / "rec.f32")
        with pytest.raises(DataError, match="fs"):
            load_recording(self.meta("rec.f32", fs=8000.0), tmp_path)

    def test_a_fractional_rate_round_trips_through_the_sidecar(self, tmp_path):
        samples = np.arange(8, dtype="<f4")
        write_recording_f32(samples, 12345.678, tmp_path / "rec.f32")
        assert (tmp_path / "rec.f32.hdr").read_text() == "fs_hz=12345.678\nn_samples=8\n"
        ts = load_recording(self.meta("rec.f32", fs=12345.678), tmp_path)
        assert ts.fs == 12345.678 and np.array_equal(ts.samples, samples)

    def test_sidecar_rate_mismatch_names_both_rates_exactly(self, tmp_path):
        write_recording_f32(np.zeros(8), 12345.678, tmp_path / "rec.f32")
        with pytest.raises(DataError) as info:
            load_recording(self.meta("rec.f32", fs=12345.7), tmp_path)
        sidecar = tmp_path / "rec.f32.hdr"
        assert str(info.value) == f"{sidecar}: sidecar declares fs=12345.678 Hz, manifest says 12345.7 Hz"

    def test_raw_nan_rejected(self, tmp_path):
        data = np.array([1.0, np.nan, 2.0], dtype="<f4")
        (tmp_path / "rec.f32").write_bytes(data.tobytes())
        with pytest.raises(DataError, match="index 1"):
            load_recording(self.meta("rec.f32"), tmp_path)

    def test_raw_bad_byte_count(self, tmp_path):
        (tmp_path / "rec.f32").write_bytes(b"\x00" * 10)
        with pytest.raises(DataError, match="multiple of 4"):
            load_recording(self.meta("rec.f32"), tmp_path)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_raw_samples_are_the_file_as_stored(self, n, tmp_path):
        """A raw file's samples come back as its float32s, not widened: the
        pipeline widens them once, as it stacks them into a block."""
        path = tmp_path / "rec.f32"
        path.write_bytes(np.random.default_rng(n).standard_normal(n).astype("<f4").tobytes())
        ts = load_recording(self.meta("rec.f32"), tmp_path)
        assert ts.samples.dtype == np.float32
        assert ts.samples.astype("<f4").tobytes() == path.read_bytes()

    def test_text_samples_are_float64(self, tmp_path):
        (tmp_path / "rec.txt").write_text("0.1\n-2.5e-7\n")
        ts = load_recording(self.meta("rec.txt"), tmp_path)
        assert ts.samples.dtype == np.float64 and ts.samples.tolist() == [0.1, -2.5e-7]

    def test_the_energy_of_a_raw_recording_is_that_of_its_widening(self, tmp_path):
        """signal_energy squares and sums float32 samples in float64: squared
        in float32, 1e20 would overflow and the sum would lose bits."""
        samples = np.random.default_rng(4).standard_normal(4097) * np.logspace(-20, 20, 4097)
        write_recording_f32(samples, 8000.0, tmp_path / "rec.f32")
        ts = load_recording(self.meta("rec.f32", fs=8000.0), tmp_path)
        widened = TimeSeries(ts.samples.astype(np.float64), ts.fs)
        assert ts.samples.dtype == np.float32
        assert np.float64(signal_energy(ts, 3.3)).tobytes() == np.float64(signal_energy(widened, 3.3)).tobytes()
        assert np.isfinite(signal_energy(ts))

    @pytest.mark.parametrize("name", ["rec.f32", "rec.txt"])
    @pytest.mark.parametrize("make", [lambda path: None, lambda path: path.mkdir()], ids=["missing", "directory"])
    def test_a_path_that_is_no_file_is_not_found(self, name, make, tmp_path):
        make(tmp_path / name)
        with pytest.raises(DataError) as info:
            load_recording(self.meta(name), tmp_path)
        assert str(info.value) == f"recording file not found: {tmp_path / name}"

    def test_raw_bad_byte_count_message(self, tmp_path):
        (tmp_path / "rec.f32").write_bytes(b"\x00" * 10)
        with pytest.raises(DataError) as info:
            load_recording(self.meta("rec.f32"), tmp_path)
        assert str(info.value) == f"{tmp_path / 'rec.f32'}: raw float32 file size 10 is not a multiple of 4"

    @pytest.mark.parametrize("make", [lambda path: None, lambda path: path.mkdir()], ids=["missing", "directory"])
    def test_a_sidecar_that_is_no_file_is_no_sidecar(self, make, tmp_path):
        samples = np.arange(5, dtype="<f4")
        (tmp_path / "rec.f32").write_bytes(samples.tobytes())
        make(tmp_path / "rec.f32.hdr")
        assert np.array_equal(load_recording(self.meta("rec.f32"), tmp_path).samples, samples)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
    def test_a_fifo_sidecar_is_no_sidecar_and_does_not_block(self, tmp_path):
        samples = np.arange(5, dtype="<f4")
        (tmp_path / "rec.f32").write_bytes(samples.tobytes())
        os.mkfifo(tmp_path / "rec.f32.hdr")
        ts = _within_seconds(10, lambda: load_recording(self.meta("rec.f32"), tmp_path), tmp_path / "rec.f32.hdr")
        assert np.array_equal(ts.samples, samples)


def _within_seconds(seconds, fn, fifo):
    """fn() run on a thread, which must return within `seconds`. If it does
    not, a writer is opened on `fifo` and closed, so a reader blocked opening
    it reads end of file and the thread ends, and the test fails."""
    result = []
    thread = threading.Thread(target=lambda: result.append(fn()), daemon=True)
    thread.start()
    thread.join(seconds)
    if thread.is_alive():
        try:
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
        except OSError:
            pass
        thread.join(seconds)
        pytest.fail(f"blocked on {fifo} for {seconds} s")
    assert result, "fn raised; see the thread's traceback"
    return result[0]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes here")
def test_a_fifo_config_is_not_found_and_does_not_block(tmp_path, capsys):
    fifo = tmp_path / "run.cfg"
    os.mkfifo(fifo)
    code = _within_seconds(10, lambda: main(["extract", "--config", str(fifo), "--out", str(tmp_path / "out")]), fifo)
    assert code == 2
    assert capsys.readouterr().err == f"config error: config file not found: {fifo}\n"


def per_line_oracle(full):
    """The text loader as it was before the one-call parse: one `float()` per
    non-blank line, the first bad line named as `file:line`."""
    values = []
    for lineno, line in enumerate(full.read_text(encoding="utf-8").splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise DataError(f"{full}:{lineno}: unparseable sample {token!r}") from None
        if not np.isfinite(value):
            raise DataError(f"{full}:{lineno}: non-finite sample {token!r}")
        values.append(value)
    return np.asarray(values, dtype=np.float64)


def outcome(load, full):
    """The array a loader returns, or the message of the DataError it raises."""
    try:
        return load(full)
    except DataError as exc:
        return str(exc)


def assert_loads_as_oracle(full):
    """The loader gives the oracle's error, or float64 values with the
    oracle's bits (so the sign of each zero too)."""
    got, want = outcome(pehfault.dataset._load_text_recording, full), outcome(per_line_oracle, full)
    if isinstance(want, str):
        assert got == want
    else:
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


def count_parsers(monkeypatch):
    """The calls the loader makes to scipy.io.mmread and to float()."""
    import scipy.io

    calls = {"mmread": 0, "float": 0}

    def counted(name, fn):
        return lambda *args, **kwargs: calls.__setitem__(name, calls[name] + 1) or fn(*args, **kwargs)

    monkeypatch.setattr(scipy.io, "mmread", counted("mmread", scipy.io.mmread))
    monkeypatch.setattr(pehfault.dataset, "float", counted("float", float), raising=False)
    return calls


finite = st.floats(allow_nan=False, allow_infinity=False)
finite_f32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
padding = st.sampled_from(["", " ", "\t", " \t  "])
blank_lines = st.lists(st.sampled_from(["", " ", "\t"]), max_size=3)
sample_line = st.tuples(
    blank_lines, padding, st.one_of(finite, finite_f32), st.sampled_from([repr, lambda v: "%.17g" % v]), padding
)
# Characters around a value, a value `float()` alone accepts or nobody does, and line breaks.
odd = st.sampled_from(["", " ", "\t", "\x1f", "\u3000", "\ufeff", "\x00"])
odd_token = st.sampled_from(["", "\u0661\u0662", "1_0", "1 2", "abc", "inf", "nan"])
line_break = st.sampled_from(["\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
NAMES = ["rec.txt", "rec.csv", "rec", "rec.gz", "rec.bz2", "rec.xz", "rec.lzma"]
# The plain decimals the one-call parse takes, and lines over the same alphabet that are not.
plain_decimal = st.from_regex(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?", fullmatch=True)
near_decimal = st.text(alphabet="0123456789.eE+-", max_size=8)


class TestTextParseMatchesPerLineLoop:
    """The one-call parse returns exactly what the per-line loop it replaced
    returns, bit for bit, and raises the same error where that loop raised one."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(sample_line, min_size=1, max_size=40), blank_lines, st.sampled_from(["\n", "\r\n"]))
    def test_finite_values_in_any_layout(self, tmp_path, lines, trailing, newline):
        text = []
        for blanks, left, value, fmt, right in lines:
            text += [*blanks, f"{left}{fmt(value)}{right}"]
        full = tmp_path / "rec.txt"
        full.write_bytes(newline.join([*text, *trailing]).encode() + newline.encode())
        assert_loads_as_oracle(full)
        assert pehfault.dataset._load_text_recording(full).tobytes() == np.array([value for _, _, value, _, _ in lines]).tobytes()

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(["", " ", "1_000", " -2.5\t", "1.0 2.0", "inf", "-Infinity", "nan", "1e400", "0x10"]),
                st.text(alphabet="0123456789.eE+-_ \tinfatyINFATY", max_size=8),
            ),
            max_size=12,
        )
    )
    def test_arbitrary_lines_accepted_or_rejected_alike(self, tmp_path, lines):
        full = tmp_path / "rec.txt"
        full.write_text("\n".join(lines))
        assert_loads_as_oracle(full)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(plain_decimal, max_size=12),
        st.lists(st.tuples(st.integers(0, 12), near_decimal), max_size=2),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )
    def test_lines_over_the_decimal_alphabet_read_alike(self, tmp_path, lines, inserted, newline, trailing):
        """Plain decimals, some files with a line over the same alphabet
        inserted (`1e`, `1-2`, `.`, a blank line): the guard in front of the
        one-call parse lets through only what it parses as `float()` does."""
        for index, line in inserted:
            lines.insert(index, line)
        full = tmp_path / "rec.txt"
        full.write_bytes((newline.join(lines) + (newline if trailing else "")).encode())
        assert_loads_as_oracle(full)

    @pytest.mark.parametrize(
        "token, value, mmread_calls",
        [
            ("-0", -0.0, 1),
            ("-0.0e5", -0.0, 1),
            ("4.9e-324", 5e-324, 1),
            ("1e-400", 0.0, 1),
            ("-1e-400", -0.0, 1),
            ("1e400", "non-finite", 1),
            ("123456789012345678901234567890", 1.2345678901234568e29, 1),
            ("1.e5", 1e5, 1),
            (".5", 0.5, 1),
            ("+5", 5.0, 0),
            # A mantissa of a lone `.` passes the guard, and mmread raises on it.
            *((token, "unparseable", 1) for token in [".e5", "."]),
            *((token, "unparseable", 0) for token in ["1.2.3", "1e5e5", "1e", "1e+", "1-2", "1+", "1..", "1e5.5", "-", "e5", "-e5"]),
        ],
    )
    def test_a_token_reads_as_float_does_or_names_its_line(self, tmp_path, monkeypatch, token, value, mmread_calls):
        """Each token as a value or as an error naming its line, and whether
        the guard let the file through to mmread."""
        full = tmp_path / "rec.txt"
        full.write_text(f"0.5\n{token}\n-0.25\n")
        calls = count_parsers(monkeypatch)
        got = outcome(pehfault.dataset._load_text_recording, full)
        if isinstance(value, str):
            assert got == f"{full}:2: {value} sample {token!r}"
        else:
            assert got.tobytes() == np.array([0.5, value, -0.25]).tobytes()
        assert calls["mmread"] == mmread_calls
        assert_loads_as_oracle(full)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5\n\n0.25\n1.0 2.0\n", "4: unparseable sample '1.0 2.0'"),
            ("\n\n0.5\ninf\n1.0\n", "4: non-finite sample 'inf'"),
            ("0.5\n-inf\n", "2: non-finite sample '-inf'"),
            ("0.5\nabc\n", "2: unparseable sample 'abc'"),
            ("1 2\n", "1: unparseable sample '1 2'"),
            ("1\x0b2\n3 4\n", "3: unparseable sample '3 4'"),
        ],
    )
    def test_error_names_the_file_line(self, tmp_path, text, message):
        full = tmp_path / "rec.txt"
        full.write_text(text)
        with pytest.raises(DataError) as caught:
            load_recording(RecordingMeta("rec.txt", MachineState.HEALTHY, "6204", 0, 51200.0), tmp_path)
        assert str(caught.value) == f"{full}:{message}"
        assert outcome(per_line_oracle, full) == str(caught.value)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(odd, st.one_of(finite.map(repr), odd_token), odd, line_break), max_size=12), st.sampled_from(NAMES))
    def test_odd_characters_and_any_name_read_alike(self, tmp_path, lines, name):
        """Line breaks that `float()`'s loop splits on and the one-call parse
        does not, characters `float()` accepts and that parse does not (a BOM,
        NUL, a non-ASCII digit, an underscore), and names a reader might
        decompress: the same array or the same error."""
        full = tmp_path / name
        full.write_bytes("".join(map("".join, lines)).encode())
        assert_loads_as_oracle(full)

    @pytest.mark.parametrize("name", NAMES)
    def test_a_plain_text_recording_loads_under_any_name(self, tmp_path, name):
        full = tmp_path / name
        write_text_recording(full, [0.1, -2.5e-7, 3.0])
        assert load_recording(RecordingMeta(name, MachineState.HEALTHY, "6204", 0, 51200.0), tmp_path).samples.tolist() == [0.1, -2.5e-7, 3.0]

    @pytest.mark.parametrize("text", ["", "\n", " \t\n\n", "\u3000\r\n\x0b"])
    def test_a_file_of_whitespace_holds_no_samples_and_warns_nothing(self, tmp_path, text):
        full = tmp_path / "rec.txt"
        full.write_text(text, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught, pytest.raises(DataError) as info:
            warnings.simplefilter("always")
            load_recording(RecordingMeta("rec.txt", MachineState.HEALTHY, "6204", 0, 51200.0), tmp_path)
        assert str(info.value) == f"{full}: recording holds no samples"
        assert caught == []

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("name", ["rec.txt", "rec", "rec.gz", "rec.xz"])
    def test_plain_decimals_are_parsed_in_one_mmread_call_and_no_float(self, tmp_path, monkeypatch, name, newline):
        full = tmp_path / name
        full.write_bytes(newline.join(["0.5", "-0.25", "3e-05", "-0", "0"]).encode() + newline.encode())
        calls = count_parsers(monkeypatch)
        assert pehfault.dataset._load_text_recording(full).tobytes() == np.array([0.5, -0.25, 3e-05, -0.0, 0.0]).tobytes()
        assert calls == {"mmread": 1, "float": 0}

    @pytest.mark.parametrize("text", ["0.5\n 0.25\n", "0.5\n0.25\t\n", "0.5\r\n0.25 \r\n", "0.5\n\n0.25\n", "\n0.5\n0.25"])
    def test_a_padded_or_blank_line_makes_no_mmread_call(self, tmp_path, monkeypatch, text):
        full = tmp_path / "rec.txt"
        full.write_text(text)
        calls = count_parsers(monkeypatch)
        assert pehfault.dataset._load_text_recording(full).tolist() == [0.5, 0.25]
        assert calls == {"mmread": 0, "float": 2}


class TestBuildFeatureSet:
    def test_counts_labels_and_order(self, small_corpus):
        """Rows are the entries x segments: entry i's segments are rows
        i * S ... i * S + S - 1, as the entry alone gives them."""
        design = design_from_thickness(0.50)
        build = lambda manifest: build_feature_sets(manifest, [design], SMALL_SEGMENT_S, SMALL_SEGMENTS, [SMALL_SEGMENT_S], 1.0)
        ((features,),) = build(small_corpus)
        assert features.shape == (len(small_corpus.entries) * SMALL_SEGMENTS, 1)
        for i, meta in enumerate(small_corpus.entries):
            ((alone,),) = build(replace(small_corpus, entries=(meta,)))
            assert np.array_equal(features[i * SMALL_SEGMENTS : (i + 1) * SMALL_SEGMENTS], alone)

    def test_deterministic_rerun(self, small_corpus):
        design = design_from_thickness(0.50)
        run = lambda: build_feature_sets(small_corpus, [design], SMALL_SEGMENT_S, SMALL_SEGMENTS, [SMALL_SEGMENT_S], 1.0)
        ((a,),), ((b,),) = run(), run()
        assert np.array_equal(a, b)

    def test_empty_manifest_gives_empty_list(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,label,bearing_type,load_w,fs_hz\n")
        manifest = load_manifest(path)
        ((features,),) = build_feature_sets(manifest, [design_from_thickness(0.50)], 3.0, 3, [3.0], 1.0)
        assert len(features) == 0

    def test_errors_annotated_with_recording(self, tmp_path):
        # recording too short for the requested segmentation
        write_text_recording(tmp_path / "short.txt", np.zeros(16))
        path = tmp_path / "manifest.csv"
        path.write_text("path,label,bearing_type,load_w,fs_hz\nshort.txt,healthy,6204,0,8000\n")
        manifest = load_manifest(path)
        with pytest.raises(DataError, match="short.txt"):
            build_feature_sets(manifest, [design_from_thickness(0.50)], 3.0, 3, [3.0], 1.0)


class TestBuildFeatureSets:
    designs = [design_from_thickness(t) for t in (0.35, 0.45, 0.50)]
    periods = [SMALL_SEGMENT_S, SMALL_SEGMENT_S / 2, SMALL_SEGMENT_S / 4]

    def test_matches_per_cell_reference(self, small_corpus):
        """Differential test against the per-(design, T) loop the one-pass
        pipeline replaced: every cell reloads, resegments and refilters."""
        sets = build_feature_sets(small_corpus, self.designs, SMALL_SEGMENT_S, SMALL_SEGMENTS, self.periods, 1.0)
        assert len(sets) == len(self.designs)
        for design, design_sets in zip(self.designs, sets):
            assert len(design_sets) == len(self.periods)
            for period_s, got in zip(self.periods, design_sets):
                expected = []
                for meta in small_corpus.entries:
                    ts = load_recording(meta, small_corpus.root)
                    for piece in segment(ts, SMALL_SEGMENT_S, SMALL_SEGMENTS):
                        expected.append(make_feature(simulate_voltage(design, piece), period_s, 1.0))
                assert got.dtype == np.float64 and got.shape == (len(expected), len(expected[0]))
                for r, values in enumerate(expected):
                    assert np.array_equal(got[r], values)

    def test_a_feature_that_is_not_finite_is_a_data_error_naming_its_cell(self, small_corpus):
        """At 1e-320 Ohm every energy overflows to inf. The error must not
        come from numpy's overflow warning, which is an exception here."""
        with pytest.raises(DataError) as info:
            build_feature_sets(small_corpus, self.designs, SMALL_SEGMENT_S, SMALL_SEGMENTS, self.periods, 1e-320)
        first = small_corpus.entries[0].path
        assert str(info.value) == f"{first}: a feature of peh_0.35mm at T=0.5s, r_ohm=9.99989e-321 is not finite"

    def test_mixed_feature_dimensions_are_a_data_error(self, tmp_path):
        manifest = load_manifest(mixed_rate_manifest(tmp_path))
        with pytest.raises(DataError) as info:
            build_feature_sets(manifest, [design_from_thickness(0.50)], 0.3, 2, [0.1], 1.0)
        assert str(info.value) == MIXED_RATE_ERROR

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_a_feature_that_is_not_finite_comes_before_a_later_count_mismatch(self, cpus, tmp_path, monkeypatch):
        """b.txt, stacked with a.f32 at 8000 Hz, overflows; c.f32 at 8015 Hz
        gives 2 features per segment where a.f32 gives 3. The count check runs
        when c.f32's block is drawn, which may be before b.txt's block is
        filtered, but the error is still the earlier recording's."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        rng = np.random.default_rng(3)
        write_recording_f32(rng.standard_normal(8000), 8000, tmp_path / "a.f32")
        write_text_recording(tmp_path / "b.txt", (rng.standard_normal(8000) * 1e200).tolist())
        write_recording_f32(rng.standard_normal(8015), 8015, tmp_path / "c.f32")
        (tmp_path / "manifest.csv").write_text(
            "path,label,bearing_type,load_w,fs_hz\n"
            "a.f32,healthy,6204,0,8000\nb.txt,ball_crack,6204,0,8000\nc.f32,healthy,6204,0,8015\n"
        )
        manifest = load_manifest(tmp_path / "manifest.csv")
        with pytest.raises(DataError) as info:
            build_feature_sets(manifest, [design_from_thickness(0.50)], 0.3, 2, [0.1], 1.0)
        assert str(info.value) == "b.txt: a feature of peh_0.50mm at T=0.1s, r_ohm=1 is not finite"

    def test_bad_recording_error_prefixed_with_manifest_path(self, small_corpus, tmp_path):
        good = small_corpus.entries[0]
        (tmp_path / "good.f32").write_bytes((small_corpus.root / good.path).read_bytes())
        data = np.zeros(int(good.fs), dtype="<f4")
        data[5] = np.inf
        (tmp_path / "bad.f32").write_bytes(data.tobytes())
        path = tmp_path / "manifest.csv"
        path.write_text(
            "path,label,bearing_type,load_w,fs_hz\n"
            f"good.f32,healthy,6204,0,{good.fs:g}\n"
            f"bad.f32,ball_crack,6204,0,{good.fs:g}\n"
        )
        with pytest.raises(DataError) as info:
            build_feature_sets(load_manifest(path), self.designs, SMALL_SEGMENT_S, 1, self.periods, 1.0)
        assert str(info.value).startswith("bad.f32: ")
        assert "non-finite sample at index 5" in str(info.value)

    def test_sweep_and_scatter_load_once_and_filter_once(self, small_corpus, tmp_path, monkeypatch):
        """Counted where the pipeline filters: each row of each
        scipy.signal.lfilter call's input (one call filters a recording's
        segments) is keyed by its coefficients and the row. The calls come
        from the worker threads, so they are appended (atomic) and counted
        after."""
        loads, calls = Counter(), []
        lfilter = scipy.signal.lfilter

        def counting_load(meta, root="."):
            loads[meta.path] += 1
            return load_recording(meta, root)

        def counting_lfilter(b, a, x, *args, **kwargs):
            key = np.asarray(b).tobytes() + np.asarray(a).tobytes()
            calls.extend((key, row.tobytes()) for row in np.atleast_2d(x))
            return lfilter(b, a, x, *args, **kwargs)

        monkeypatch.setattr(pehfault.dataset, "load_recording", counting_load)
        monkeypatch.setattr(scipy.signal, "lfilter", counting_lfilter)
        n_segments = len(small_corpus.entries) * SMALL_SEGMENTS
        flags = [
            "--manifest", str(small_corpus.root / "manifest.csv"), "--out", str(tmp_path),
            "--segment", str(SMALL_SEGMENT_S), "--segments", str(SMALL_SEGMENTS),
            "--thicknesses", ",".join(f"{design.thickness_mm:g}" for design in self.designs),
        ]
        for argv in (
            ["sweep", *flags, "--t-values", ",".join(map(str, self.periods)), "--repeats", "1"],
            ["scatter", *flags, "--T", str(SMALL_SEGMENT_S)],
        ):
            loads.clear()
            calls.clear()
            assert main(argv) == 0
            filters = Counter(calls)
            assert loads == Counter({meta.path: 1 for meta in small_corpus.entries})
            assert len(filters) == len(self.designs) * n_segments
            assert set(filters.values()) == {1}

    @staticmethod
    def _recordings(root, rates, bad=None):
        """One second of noise per rate, as r0.f32, r1.f32, ..., each declared
        at its own rate; recording `bad` holds a non-finite sample."""
        rng = np.random.default_rng(1)
        lines = ["path,label,bearing_type,load_w,fs_hz"]
        for index, rate in enumerate(rates):
            samples = rng.standard_normal(rate)
            samples[5] = np.inf if index == bad else samples[5]
            write_recording_f32(samples, rate, root / f"r{index}.f32")
            lines.append(f"r{index}.f32,{('healthy', 'ball_crack')[index % 2]},6204,0,{rate}")
        (root / "manifest.csv").write_text("\n".join(lines) + "\n")
        return load_manifest(root / "manifest.csv")

    def test_a_filter_error_comes_before_a_later_load_error(self, tmp_path, monkeypatch):
        """r1.f32 is under 20 * f0 of peh_0.50mm (the CLI would reject it
        before reading; called directly, the pipeline meets it in the
        filter's check), and r2.f32 fails its load: the first error is the
        serial loop's."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        manifest = self._recordings(tmp_path, (8000, 3000, 8000), bad=2)
        with pytest.raises(DataError) as info:
            build_feature_sets(manifest, [design_from_thickness(0.50)], 0.25, 2, [0.125], 1.0)
        assert str(info.value) == "r1.f32: sampling rate too low: 3000.0 Hz < 20 * f0 = 4000 Hz"

    def _failing_filter(self, monkeypatch, fs, wait_for=None):
        """Make the pipeline's filter raise `filter fault` on the segments of
        a recording at fs Hz, once recording `wait_for` (if given) has been
        loaded; return the list of paths loaded, in load order."""
        loaded, events = [], {}
        load, lfilter = pehfault.dataset.load_recording, scipy.signal.lfilter
        b_fail, a_fail = _biquad_coefficients(design_from_thickness(0.50), fs)

        def watching_load(meta, root="."):
            loaded.append(meta.path)
            events.setdefault(meta.path, threading.Event()).set()
            return load(meta, root)

        def failing_lfilter(b, a, x):
            if np.array_equal(b, b_fail) and np.array_equal(a, a_fail):
                if wait_for is not None:
                    assert events.setdefault(wait_for, threading.Event()).wait(timeout=30)
                raise ValueError("filter fault")
            return lfilter(b, a, x)

        monkeypatch.setattr(pehfault.dataset, "load_recording", watching_load)
        monkeypatch.setattr(scipy.signal, "lfilter", failing_lfilter)
        return loaded

    def test_an_error_in_flight_comes_before_a_later_load_error(self, tmp_path, monkeypatch):
        """The filter of r1.f32 fails in a worker only once r2.f32 has failed
        its load, so the load error must wait for the recording in flight."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        manifest = self._recordings(tmp_path, (8000, 8001, 8000), bad=2)
        loaded = self._failing_filter(monkeypatch, 8001.0, wait_for="r2.f32")
        with pytest.raises(DataError) as info:
            build_feature_sets(manifest, [design_from_thickness(0.50)], 0.25, 2, [0.125], 1.0)
        assert str(info.value) == "r1.f32: filter fault"
        assert loaded == ["r0.f32", "r1.f32", "r2.f32"]

    @pytest.mark.parametrize("per_block", [1, 2], ids=["alone", "stacked"])
    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_an_error_in_a_worker_stops_the_pass(self, cpus, per_block, tmp_path, monkeypatch):
        """r0.f32 fails in the filter: past the blocks in flight, one more
        block is loaded while they run, and no other. r0.f32 is a block on
        its own (the next rate differs), and the cap puts the six recordings
        after it (4000 samples each) one or two to a block."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(pehfault.dataset, "BLOCK_SAMPLES", 4000 * per_block)
        manifest = self._recordings(tmp_path, (8000,) + (8001,) * 6)
        loaded = self._failing_filter(monkeypatch, 8000.0)
        with pytest.raises(DataError) as info:
            build_feature_sets(manifest, [design_from_thickness(0.50)], 0.25, 2, [0.125], 1.0)
        assert str(info.value) == "r0.f32: filter fault"
        assert loaded == [f"r{i}.f32" for i in range(1 + len(cpus) * per_block)]

    def test_an_overflow_names_the_first_recording_of_its_block_that_overflows(self, tmp_path, monkeypatch):
        """Five recordings at one rate make one block. r2.txt and r3.txt hold
        samples of about 1e200, whose features overflow through the design
        of unit gain but not through the faint one listed first. The error
        names r2, that design and the first period, as the per-recording
        loop did."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        rng = np.random.default_rng(5)
        lines = ["path,label,bearing_type,load_w,fs_hz"]
        for index, scale in enumerate((1.0, 1.0, 1e200, 1e200, 1.0)):
            name = f"r{index}.txt" if scale > 1 else f"r{index}.f32"
            samples = rng.standard_normal(8000) * scale
            if scale > 1:
                write_text_recording(tmp_path / name, samples.tolist())
            else:
                write_recording_f32(samples, 8000, tmp_path / name)
            lines.append(f"{name},{('healthy', 'ball_crack')[index % 2]},6204,0,8000")
        (tmp_path / "manifest.csv").write_text("\n".join(lines) + "\n")
        designs = [PehDesign("faint", 0.35, 200.0, 10.0, 1e-200), PehDesign("unit", 0.50, 200.0, 10.0, 1.0)]
        with pytest.raises(DataError) as info:
            build_feature_sets(load_manifest(tmp_path / "manifest.csv"), designs, 0.25, 2, [0.125, 0.0625], 1.0)
        assert str(info.value) == "r2.txt: a feature of unit at T=0.125s, r_ohm=1 is not finite"

    @pytest.mark.parametrize("fault", [False, True], ids=["clean", "filter fault"])
    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_a_load_error_partway_through_a_block_comes_after_the_recordings_before_it(
        self, cpus, fault, tmp_path, monkeypatch
    ):
        """r1.f32 to r4.f32 share a rate and would make one block; r3.f32's
        sidecar declares a wrong count. The recordings before it are filtered
        first, so a filter fault at their rate names r1.f32, as the serial
        loop would, and without one the sidecar error names r3.f32. r4.f32
        is never loaded."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        manifest = self._recordings(tmp_path, (8000,) + (8001,) * 4)
        sidecar = tmp_path / "r3.f32.hdr"
        sidecar.write_text("fs_hz=8001\nn_samples=8000\n")
        if fault:
            loaded = self._failing_filter(monkeypatch, 8001.0)
        with pytest.raises(DataError) as info:
            build_feature_sets(manifest, [design_from_thickness(0.50)], 0.25, 2, [0.125], 1.0)
        if fault:
            assert str(info.value) == "r1.f32: filter fault"
            assert loaded == ["r0.f32", "r1.f32", "r2.f32", "r3.f32"]
        else:
            assert str(info.value) == f"r3.f32: {sidecar}: sidecar declares 8000 samples, file holds 8001"

    def test_on_an_error_the_queued_work_is_cancelled(self, tmp_path, monkeypatch):
        """r0.f32 fails in its first design while its other two hold both
        workers; the three designs of r1.f32 wait in the queue and are
        never filtered. Each row of a call's input (a segment) counts once."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        designs = [design_from_thickness(t) for t in (0.35, 0.45, 0.50)]
        manifest = self._recordings(tmp_path, (8000, 8001, 8002))
        first = [_biquad_coefficients(design, 8000.0)[0].tobytes() for design in designs]
        filtered, lfilter = [], scipy.signal.lfilter

        def slow_lfilter(b, a, x):
            if b.tobytes() == first[0]:
                raise ValueError("filter fault")
            if b.tobytes() in first:
                time.sleep(0.3)
            filtered.extend([b.tobytes()] * len(np.atleast_2d(x)))
            return lfilter(b, a, x)

        monkeypatch.setattr(scipy.signal, "lfilter", slow_lfilter)
        with pytest.raises(DataError) as info:
            build_feature_sets(manifest, designs, 0.25, 2, [0.125], 1.0)
        assert str(info.value) == "r0.f32: filter fault"
        assert sorted(filtered) == sorted(first[1:] * 2)


class TestSurrogateCorpus:
    def test_file_count_contract(self, tmp_path):
        spec = SurrogateSpec(classes=SMALL_SPEC.classes, count_per_class=7, fs=8192.0, duration_s=0.5)
        manifest = synth_surrogate_corpus(spec, seed=3, out_dir=tmp_path / "c")
        assert len(manifest.entries) == 14
        assert len(list((tmp_path / "c").glob("*.f32"))) == 14
        assert (tmp_path / "c" / "manifest.csv").is_file()

    def test_same_seed_byte_identical(self, tmp_path):
        a = synth_surrogate_corpus(SMALL_SPEC, seed=5, out_dir=tmp_path / "a")
        b = synth_surrogate_corpus(SMALL_SPEC, seed=5, out_dir=tmp_path / "b")
        for meta_a, meta_b in zip(a.entries, b.entries):
            assert (a.root / meta_a.path).read_bytes() == (b.root / meta_b.path).read_bytes()
        assert (a.root / "manifest.csv").read_text() == (b.root / "manifest.csv").read_text()

    def test_different_seed_differs(self, tmp_path):
        a = synth_surrogate_corpus(SMALL_SPEC, seed=5, out_dir=tmp_path / "a")
        b = synth_surrogate_corpus(SMALL_SPEC, seed=6, out_dir=tmp_path / "b")
        assert (a.root / a.entries[0].path).read_bytes() != (b.root / b.entries[0].path).read_bytes()

    def test_default_spec_separates_classes(self, default_corpus):
        design = design_from_thickness(0.50)
        ((features,),) = build_feature_sets(default_corpus, [design], 3.0, 3, [3.0], 1.0)
        means = mean_state_energy(features, row_labels(default_corpus, 3))
        ratio = means[MachineState.HEALTHY.value] / means[MachineState.BALL_CRACK.value]
        assert ratio >= 3.0

    def test_unwritable_directory(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        with pytest.raises(DataError, match="^" + re.escape(f"cannot write {blocker / 'ball_crack_00.f32'}: ")):
            synth_surrogate_corpus(SMALL_SPEC, seed=0, out_dir=blocker)
        assert blocker.read_text() == "a file, not a directory"


class TestSurrogateSpecFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text(
            "# surrogate recipe\n"
            "count_per_class=4\n"
            "fs_hz=8192\n"
            "duration_s=1.5\n"
            "amplitude_jitter=0.05\n"
            "seed=11\n"
            "healthy.tones=120:0.8,200:1.0\n"
            "healthy.noise_sigma=0.05\n"
            "ball_crack.tones=60:0.6,95:0.6\n"
            "ball_crack.noise_sigma=0.3\n"
        )
        spec = load_surrogate_spec(path)
        assert spec.count_per_class == 4
        assert spec.seed == 11
        assert spec.classes[MachineState.HEALTHY].tones == ((120.0, 0.8), (200.0, 1.0))
        assert spec.classes[MachineState.BALL_CRACK].noise_sigma == 0.3

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("bogus=1\nhealthy.tones=100:1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            load_surrogate_spec(path)

    def test_bad_tone_syntax(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("healthy.tones=100;1\n")
        with pytest.raises(ConfigError, match="tones"):
            load_surrogate_spec(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_surrogate_spec(tmp_path / "nope.cfg")

    def test_aliasing_tone_rejected(self):
        with pytest.raises(ConfigError, match="fs/2"):
            SurrogateSpec(
                classes={MachineState.HEALTHY: ClassSignalSpec(tones=((5000.0, 1.0),))},
                fs=8192.0,
            )

    def test_default_spec_is_valid(self):
        assert DEFAULT_SURROGATE_SPEC.count_per_class == 7
        assert DEFAULT_SURROGATE_SPEC.fs == 51200.0
        assert DEFAULT_SURROGATE_SPEC.duration_s == 10.0


def _traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peaks(tmp_path, spec, counts_per_class, segment_s, segments, periods, text=False):
    """(synthesis peak, build peak) of the corpus of each count per class,
    built with the 4 default designs (from its recordings rewritten as text
    with `text`): the first build's peak is the largest of 5 runs, each later
    one is 1."""
    peaks = []
    for count_per_class, runs in zip(counts_per_class, (5, 1)):
        out_dir, sized = tmp_path / str(count_per_class), replace(spec, count_per_class=count_per_class)
        manifest, synth_peak = _traced_peak(lambda: synth_surrogate_corpus(sized, 0, out_dir))
        if text:
            rewrite_as_text(out_dir)
            manifest = load_manifest(out_dir / "manifest.csv")
        build = lambda: build_feature_sets(manifest, DEFAULT_DESIGNS, segment_s, segments, periods, 1.0)
        peaks.append((synth_peak, max(_traced_peak(build)[1] for _ in range(runs))))
        shutil.rmtree(out_dir)
    return peaks


def test_memory_is_bounded_by_the_pool_not_by_the_corpus(tmp_path, monkeypatch):
    """On two CPUs, synth_surrogate_corpus and build_feature_sets (4 designs,
    T in {1, 3}) on 42 default recordings each peak within 1 MB of their
    peak on 14 (about 11.5 MB and 20.5 MB): neither holds more recordings
    than the pool has in flight (two per worker in synthesis, one in the
    build). The 14-recording build is the largest of 5
    runs: whether two filter outputs (a recording's 3 segments, 3.7 MB each)
    are alive at once depends on the thread schedule, and the baseline is
    the schedule's worst case. Short recordings (2 s at 25.6 kHz, 4 segments
    of 0.5 s, T = 0.1 s) stack five to a 2 MB block, and the build on 126 of
    them peaks within 1 MB of its peak on 42 (about 10.6 MB): it holds no
    more blocks than the pool has in flight. So does the build on 42 text
    recordings (2 s at 8192 Hz, each its own block) against 14: each
    recording's parsed samples are copied into its block and freed before
    the block waits for the pool.
    scipy.signal is imported at the top of this module, so the first build
    does not count the import."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    default = _peaks(tmp_path, DEFAULT_SURROGATE_SPEC, (7, 21), 3.0, 3, [1.0, 3.0])
    (synth_14, build_14), (synth_42, build_42) = default
    assert synth_42 <= synth_14 + 1e6 and build_42 <= build_14 + 1e6, default
    short = _peaks(tmp_path, replace(DEFAULT_SURROGATE_SPEC, fs=25600.0, duration_s=2.0), (21, 63), 0.5, 4, [0.1])
    (_, build_short_42), (_, build_short_126) = short
    assert build_short_126 <= build_short_42 + 1e6, short
    monkeypatch.setattr(pehfault.dataset, "BLOCK_SAMPLES", 1)  # one recording a block, as a long recording is
    text = _peaks(tmp_path, replace(DEFAULT_SURROGATE_SPEC, fs=8192.0, duration_s=2.0), (7, 21), 0.5, 4, [0.1], text=True)
    (_, build_text_14), (_, build_text_42) = text
    assert build_text_42 <= build_text_14 + 1e6, text
