from collections import Counter

import numpy as np
import pytest

import pehfault.dataset
from pehfault.classify import SplitConfig, accuracy_sweep
from pehfault.dataset import (
    DEFAULT_SURROGATE_SPEC,
    ClassSignalSpec,
    MachineState,
    SurrogateSpec,
    build_feature_set,
    build_feature_sets,
    csv_text,
    filter_manifest,
    load_manifest,
    load_recording,
    load_surrogate_spec,
    synth_surrogate_corpus,
    write_recording_f32,
)
from pehfault.errors import ConfigError, DataError
from pehfault.frontend import make_feature, mean_state_energy
from pehfault.harvester import design_from_thickness, simulate_voltage
from pehfault.report import scatter_points
from pehfault.signals import segment
from tests.conftest import MIXED_RATE_ERROR, SMALL_SEGMENT_S, SMALL_SEGMENTS, SMALL_SPEC, mixed_rate_manifest


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
        assert manifest.counts()[("healthy", "6204", 0)] == 7

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

    def test_filter_manifest(self, tmp_path):
        rows = [("h0.txt", "healthy"), ("h1.txt", "healthy"), ("b0.txt", "ball_crack"), ("b1.txt", "ball_crack")]
        manifest = load_manifest(make_manifest(tmp_path, rows))
        only_faulty = filter_manifest(manifest, labels=(MachineState.BALL_CRACK,))
        assert [m.path for m in only_faulty.entries] == ["b0.txt", "b1.txt"]
        assert filter_manifest(manifest, load_w=200).entries == ()


def test_csv_text_quotes_a_comma_and_writes_numbers_by_repr():
    text = csv_text(["name", "n", "x"], [("peh,a", 3, np.float64(0.1)), ("b", 0, 1 / 3)])
    assert text == 'name,n,x\n"peh,a",3,0.1\nb,0,0.3333333333333333\n'


class TestLoadRecording:
    def meta(self, name, fs=51200.0):
        from pehfault.dataset import RecordingMeta

        return RecordingMeta(name, MachineState.HEALTHY, "6204", 0, fs)

    def test_text_recording_paper_shape(self, tmp_path):
        (tmp_path / "rec.txt").write_text("\n".join(["0.0"] * 512000) + "\n")
        ts = load_recording(self.meta("rec.txt"), tmp_path)
        assert len(ts) == 512000
        assert ts.duration_s == pytest.approx(10.0)

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

    def test_raw_roundtrip_with_sidecar(self, tmp_path):
        rng = np.random.default_rng(2)
        samples = rng.standard_normal(256).astype("<f4").astype(np.float64)
        write_recording_f32(samples, 8000.0, tmp_path / "rec.f32")
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

    def test_raw_nan_rejected(self, tmp_path):
        data = np.array([1.0, np.nan, 2.0], dtype="<f4")
        (tmp_path / "rec.f32").write_bytes(data.tobytes())
        with pytest.raises(DataError, match="index 1"):
            load_recording(self.meta("rec.f32"), tmp_path)

    def test_raw_bad_byte_count(self, tmp_path):
        (tmp_path / "rec.f32").write_bytes(b"\x00" * 10)
        with pytest.raises(DataError, match="multiple of 4"):
            load_recording(self.meta("rec.f32"), tmp_path)


class TestBuildFeatureSet:
    def test_counts_labels_and_order(self, small_corpus):
        design = design_from_thickness(0.50)
        rows, features = build_feature_set(small_corpus, design, SMALL_SEGMENT_S, SMALL_SEGMENTS, SMALL_SEGMENT_S, 1.0)
        assert features.shape == (len(small_corpus.entries) * SMALL_SEGMENTS, 1)
        assert len(rows.labels) == len(rows.recording_ids) == len(rows.segment_indices) == len(features)
        by_recording = {}
        for recording_id, index in zip(rows.recording_ids, rows.segment_indices):
            by_recording.setdefault(recording_id, []).append(index)
        assert all(indices == [0, 1, 2] for indices in by_recording.values())
        # Python ints: the CSV writer writes them as they are, other numbers by repr(float).
        assert all(type(index) is int for index in rows.segment_indices)
        labels = {meta.path: meta.label.value for meta in small_corpus.entries}
        assert rows.labels.tolist() == [labels[recording_id] for recording_id in rows.recording_ids]

    def test_deterministic_rerun(self, small_corpus):
        design = design_from_thickness(0.50)
        run = lambda: build_feature_set(small_corpus, design, SMALL_SEGMENT_S, SMALL_SEGMENTS, SMALL_SEGMENT_S, 1.0)
        (rows_a, a), (rows_b, b) = run(), run()
        assert np.array_equal(a, b)
        assert rows_a.recording_ids == rows_b.recording_ids and np.array_equal(rows_a.labels, rows_b.labels)

    def test_empty_manifest_gives_empty_list(self, tmp_path):
        path = tmp_path / "manifest.csv"
        path.write_text("path,label,bearing_type,load_w,fs_hz\n")
        manifest = load_manifest(path)
        rows, features = build_feature_set(manifest, design_from_thickness(0.50), 3.0, 3, 3.0, 1.0)
        assert len(rows.labels) == len(rows.recording_ids) == len(features) == 0

    def test_errors_annotated_with_recording(self, tmp_path):
        # recording too short for the requested segmentation
        write_text_recording(tmp_path / "short.txt", np.zeros(16))
        path = tmp_path / "manifest.csv"
        path.write_text("path,label,bearing_type,load_w,fs_hz\nshort.txt,healthy,6204,0,8000\n")
        manifest = load_manifest(path)
        with pytest.raises(DataError, match="short.txt"):
            build_feature_set(manifest, design_from_thickness(0.50), 3.0, 3, 3.0, 1.0)


class TestBuildFeatureSets:
    designs = [design_from_thickness(t) for t in (0.35, 0.45, 0.50)]
    periods = [SMALL_SEGMENT_S, SMALL_SEGMENT_S / 2, SMALL_SEGMENT_S / 4]

    def test_matches_per_cell_reference(self, small_corpus):
        """Differential test against the per-(design, T) loop the one-pass
        pipeline replaced: every cell reloads, resegments and refilters."""
        rows, sets = build_feature_sets(small_corpus, self.designs, SMALL_SEGMENT_S, SMALL_SEGMENTS, self.periods, 1.0)
        assert len(sets) == len(self.designs)
        for design, design_sets in zip(self.designs, sets):
            assert len(design_sets) == len(self.periods)
            for period_s, got in zip(self.periods, design_sets):
                expected = []
                for meta in small_corpus.entries:
                    ts = load_recording(meta, small_corpus.root)
                    for index, piece in enumerate(segment(ts, SMALL_SEGMENT_S, SMALL_SEGMENTS)):
                        values = make_feature(simulate_voltage(design, piece), period_s, 1.0)
                        expected.append((values, meta.label.value, meta.path, index))
                assert got.dtype == np.float64 and got.shape == (len(expected), len(expected[0][0]))
                for r, (values, *row) in enumerate(expected):
                    assert [rows.labels[r], rows.recording_ids[r], rows.segment_indices[r]] == row
                    assert np.array_equal(got[r], values)

    def test_mixed_feature_dimensions_are_a_data_error(self, tmp_path):
        manifest = load_manifest(mixed_rate_manifest(tmp_path))
        with pytest.raises(DataError) as info:
            build_feature_sets(manifest, [design_from_thickness(0.50)], 0.3, 2, [0.1], 1.0)
        assert str(info.value) == MIXED_RATE_ERROR

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

    def test_sweep_and_scatter_load_once_and_filter_once(self, small_corpus, monkeypatch):
        loads, filters = Counter(), Counter()

        def counting_load(meta, root="."):
            loads[meta.path] += 1
            return load_recording(meta, root)

        def counting_simulate(design, accel):
            filters[design.name, accel.samples.tobytes()] += 1
            return simulate_voltage(design, accel)

        monkeypatch.setattr(pehfault.dataset, "load_recording", counting_load)
        monkeypatch.setattr(pehfault.dataset, "simulate_voltage", counting_simulate)
        n_segments = len(small_corpus.entries) * SMALL_SEGMENTS
        for run in (
            lambda: accuracy_sweep(
                small_corpus,
                self.designs,
                self.periods,
                segment_s=SMALL_SEGMENT_S,
                segments_per_recording=SMALL_SEGMENTS,
                r_ohm=1.0,
                k=3,
                split_cfg=SplitConfig(0.8, seed=0),
                n_repeats=1,
            ),
            lambda: scatter_points(
                small_corpus, self.designs, segment_s=SMALL_SEGMENT_S, segments_per_recording=SMALL_SEGMENTS,
                period_s=SMALL_SEGMENT_S, r_ohm=1.0,
            ),
        ):
            loads.clear()
            filters.clear()
            run()
            assert loads == Counter({meta.path: 1 for meta in small_corpus.entries})
            assert len(filters) == len(self.designs) * n_segments
            assert set(filters.values()) == {1}


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
        rows, features = build_feature_set(default_corpus, design, 3.0, 3, 3.0, 1.0)
        means = mean_state_energy(features, rows.labels)
        ratio = means[MachineState.HEALTHY.value] / means[MachineState.BALL_CRACK.value]
        assert ratio >= 3.0

    def test_unwritable_directory(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        with pytest.raises(DataError, match="unwritable"):
            synth_surrogate_corpus(SMALL_SPEC, seed=0, out_dir=blocker)


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
