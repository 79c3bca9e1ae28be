import errno
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import pehfault.cli
from pehfault.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_DATA_ERROR,
    EXIT_OK,
    RunConfig,
    _check_periods_fit_segment,
    main,
    parse_config_file,
    validate_config,
)
from pehfault.errors import ConfigError
from tests.conftest import MIXED_RATE_ERROR, MIXED_RATE_FLAGS, SMALL_SEGMENT_S, SMALL_SEGMENTS, mixed_rate_manifest

REPO = Path(__file__).resolve().parents[1]


def small_flags(corpus, out_dir):
    return [
        "--manifest",
        str(corpus.root / "manifest.csv"),
        "--out",
        str(out_dir),
        "--segment",
        str(SMALL_SEGMENT_S),
        "--segments",
        str(SMALL_SEGMENTS),
        "--T",
        str(SMALL_SEGMENT_S),
    ]


class TestConfigHandling:
    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# run parameters\n"
            "thickness_mm=0.45\n"
            "t_s=1.5\n"
            "segment_s=1.5\n"
            "n_repeats=5\n"
            "thicknesses=0.35,0.50\n"
            "labels=healthy,ball_crack\n"
            "stratified=true\n"
        )
        values = parse_config_file(path)
        assert values["thickness_mm"] == 0.45
        assert values["thicknesses"] == (0.35, 0.50)
        assert values["labels"] == ("healthy", "ball_crack")
        assert values["stratified"] is True

    def test_readme_config_example_parses(self, tmp_path):
        section = (REPO / "README.md").read_text().split("## Configuration file", 1)[1]
        path = tmp_path / "run.cfg"
        path.write_text(section.split("```", 2)[1])
        values = parse_config_file(path)
        assert set(values) == {f.name for f in fields(RunConfig)}
        assert values["thickness_mm"] == 0.50 and values["design_table"] == ""
        validate_config(RunConfig(**values))

    def test_importing_the_cli_leaves_scipy_signal_unloaded(self):
        code = "import sys, pehfault.cli; print('scipy.signal' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.strip() == "False"

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus_key=1\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_file(path)

    def test_validate_catches_bad_values(self):
        with pytest.raises(ConfigError):
            validate_config(RunConfig(t_s=-1.0))
        with pytest.raises(ConfigError):
            validate_config(RunConfig(k=0))
        with pytest.raises(ConfigError):
            validate_config(RunConfig(train_fraction=1.5))
        with pytest.raises(ConfigError, match="segment"):
            _check_periods_fit_segment(RunConfig(t_s=5.0, segment_s=3.0), [5.0])

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("bogus=1\n")
        assert main(["energy-report", "--config", str(path)]) == EXIT_CONFIG_ERROR
        assert "config error" in capsys.readouterr().err

    def test_missing_manifest_is_config_error(self, tmp_path, capsys):
        assert main(["extract", "--out", str(tmp_path)]) == EXIT_CONFIG_ERROR

    def test_nonexistent_manifest_is_data_error(self, tmp_path, capsys):
        code = main(["extract", "--manifest", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == EXIT_DATA_ERROR
        assert "data error" in capsys.readouterr().err


class TestThoughtExperiment:
    def test_default_ordering_and_margin(self, capsys):
        assert main(["thought-experiment"]) == EXIT_OK
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if "|" in line and "input" not in line]
        healthy = [float(tok) for tok in rows[0].split("|")[1:3]]
        faulty = [float(tok) for tok in rows[1].split("|")[1:3]]
        assert healthy[0] / healthy[1] >= 20.0
        assert faulty[1] / faulty[0] >= 20.0
        assert rows[0].strip().endswith("healthy")
        assert rows[1].strip().endswith("faulty")

    def test_identical_frequencies_identical_rows(self, capsys):
        assert main(["thought-experiment", "--f-healthy", "180", "--f-faulty", "180"]) == EXIT_OK
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if "|" in line and "input" not in line]
        healthy = [float(tok) for tok in rows[0].split("|")[1:3]]
        faulty = [float(tok) for tok in rows[1].split("|")[1:3]]
        assert healthy[0] == pytest.approx(faulty[0], rel=1e-9)
        assert healthy[1] == pytest.approx(faulty[1], rel=1e-9)


class TestExtract:
    def test_row_count_and_rerun_identical(self, small_corpus, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["extract", *small_flags(small_corpus, out_a), "--thickness", "0.50"]) == EXIT_OK
        assert main(["extract", *small_flags(small_corpus, out_b), "--thickness", "0.50"]) == EXIT_OK
        content = (out_a / "features.csv").read_bytes()
        assert content == (out_b / "features.csv").read_bytes()
        lines = content.decode().splitlines()
        assert lines[0] == "recording_id,segment_index,label,design,T_s,feature_0"
        assert len(lines) == 1 + len(small_corpus.entries) * SMALL_SEGMENTS

    def test_empty_manifest_header_only_and_nonzero_exit(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,label,bearing_type,load_w,fs_hz\n")
        code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA_ERROR
        lines = (tmp_path / "out" / "features.csv").read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("recording_id,segment_index,label,design,T_s")


class TestOutputWriting:
    def test_out_through_regular_file_is_data_error(self, small_corpus, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        out = blocker / "sub"
        assert main(["extract", *small_flags(small_corpus, out)]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith("data error: cannot write ")
        assert str(out / "features.csv") in err

    def test_failed_write_leaves_previous_output_intact(self, small_corpus, tmp_path, monkeypatch, capsys):
        (tmp_path / "features.csv").write_text("previous run\n")
        write_text = Path.write_text

        def half_then_disk_full(self, data, *args, **kwargs):
            write_text(self, data[: len(data) // 2], *args, **kwargs)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(Path, "write_text", half_then_disk_full)
        assert main(["extract", *small_flags(small_corpus, tmp_path)]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert f"cannot write {tmp_path / 'features.csv'}: No space left on device" in err
        assert [p.name for p in tmp_path.iterdir()] == ["features.csv"]
        assert (tmp_path / "features.csv").read_text() == "previous run\n"


class TestSingleLabelManifest:
    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_rejected_with_manifest_and_label(self, command, small_corpus, tmp_path, capsys):
        args = [command, *small_flags(small_corpus, tmp_path), "--labels", "healthy"]
        if command == "sweep":
            args += ["--t-values", str(SMALL_SEGMENT_S)]
        assert main(args) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert str(small_corpus.root / "manifest.csv") in err
        assert "'healthy'" in err
        assert list(tmp_path.iterdir()) == []


class TestTooFewSamplesPerClass:
    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_one_recording_one_segment_is_data_error(self, command, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(
            "count_per_class=1\nfs_hz=8192\nduration_s=1.0\nhealthy.tones=200:1.0\nball_crack.tones=150:1.0\n"
        )
        assert main(["surrogate-gen", "--spec", str(spec), "--out", str(tmp_path)]) == EXIT_OK
        manifest = tmp_path / "corpus" / "manifest.csv"
        out = tmp_path / "out"
        args = [command, "--manifest", str(manifest), "--out", str(out), "--segment", "0.5", "--segments", "1"]
        args += ["--T", "0.5"] if command == "classify" else ["--t-values", "0.5"]
        capsys.readouterr()
        assert main(args) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {manifest}: ")
        assert "'ball_crack' has 1 recording(s) x 1 segment(s)" in err
        assert not out.exists()


class TestClassify:
    def test_repeat_seed_deterministic(self, small_corpus, tmp_path, capsys):
        args = ["classify", *small_flags(small_corpus, tmp_path / "a"), "--repeats", "1", "--seed", "7"]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out.replace(str(tmp_path / "a"), "OUT")
        args[args.index(str(tmp_path / "a"))] = str(tmp_path / "b")
        assert main(args) == EXIT_OK
        second = capsys.readouterr().out.replace(str(tmp_path / "b"), "OUT")
        assert first == second
        assert (tmp_path / "a" / "classification.csv").read_bytes() == (tmp_path / "b" / "classification.csv").read_bytes()

    def test_surrogate_accuracy(self, small_corpus, tmp_path, capsys):
        assert main(["classify", *small_flags(small_corpus, tmp_path), "--thickness", "0.50", "--repeats", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        mean = float(out.split("mean accuracy")[1].split()[0])
        assert mean >= 0.85

    def test_csv_layout(self, small_corpus, tmp_path):
        assert main(["classify", *small_flags(small_corpus, tmp_path), "--repeats", "2", "--seed", "3"]) == EXIT_OK
        lines = (tmp_path / "classification.csv").read_text().splitlines()
        assert lines[0] == "repeat,seed,accuracy,n_train,n_validation"
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "3"
        assert lines[2].split(",")[1] == "4"


class TestSweep:
    def test_table_shape(self, small_corpus, tmp_path, capsys):
        args = [
            "sweep",
            *small_flags(small_corpus, tmp_path),
            "--thicknesses",
            "0.35,0.50",
            "--t-values",
            str(SMALL_SEGMENT_S),
            "--repeats",
            "2",
        ]
        assert main(args) == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[0] == "design,thickness_mm,T_s,mean_accuracy,std_accuracy,n_repeats,seed0"
        assert len(lines) == 3


class TestScatter:
    def test_four_points_and_discriminating_design(self, default_corpus, tmp_path, capsys):
        args = [
            "scatter",
            "--manifest",
            str(default_corpus.root / "manifest.csv"),
            "--out",
            str(tmp_path),
        ]
        assert main(args) == EXIT_OK
        lines = (tmp_path / "scatter.csv").read_text().splitlines()
        assert lines[0] == "design,thickness_mm,mean_healthy_j,mean_faulty_j,diag_distance_j"
        assert len(lines) == 5
        rows = [line.split(",") for line in lines[1:]]
        farthest = max(rows, key=lambda row: float(row[4]))
        # healthy's 200 Hz component lands in the 0.50 mm design's pass-band
        assert farthest[0] == "peh_0.50mm"
        svg = (tmp_path / "scatter.svg").read_text()
        assert svg.startswith("<svg")
        assert "stroke-dasharray" in svg
        assert svg.count("<circle") == 4
        # SVG is a pure function of the CSV data: rerun is byte-identical
        rerun = tmp_path / "rerun"
        assert main([*args[:4], str(rerun)]) == EXIT_OK
        assert (rerun / "scatter.svg").read_bytes() == (tmp_path / "scatter.svg").read_bytes()

    def test_identical_class_recipes_sit_on_diagonal(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text(
            "count_per_class=2\n"
            "fs_hz=8192\n"
            "duration_s=1.0\n"
            "amplitude_jitter=0\n"
            "healthy.tones=200:1.0\n"
            "ball_crack.tones=200:1.0\n"
        )
        root = tmp_path / "sym"
        assert main(["surrogate-gen", "--spec", str(spec), "--out", str(root), "--seed", "2"]) == EXIT_OK
        args = [
            "scatter",
            "--manifest",
            str(root / "corpus" / "manifest.csv"),
            "--out",
            str(tmp_path / "out"),
            "--segment",
            "0.25",
            "--segments",
            "2",
            "--T",
            "0.25",
        ]
        assert main(args) == EXIT_OK
        for line in (tmp_path / "out" / "scatter.csv").read_text().splitlines()[1:]:
            assert float(line.split(",")[4]) <= 1e-9

    def test_missing_fault_class_is_data_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("count_per_class=2\nfs_hz=8192\nduration_s=1.0\nhealthy.tones=200:1.0\n")
        root = tmp_path / "onlyhealthy"
        assert main(["surrogate-gen", "--spec", str(spec), "--out", str(root)]) == EXIT_OK
        args = [
            "scatter",
            "--manifest",
            str(root / "corpus" / "manifest.csv"),
            "--out",
            str(tmp_path / "out"),
            "--segment",
            "0.25",
            "--segments",
            "2",
            "--T",
            "0.25",
        ]
        assert main(args) == EXIT_DATA_ERROR


class TestEnergyReport:
    def test_exact_ratio_and_feature_rate(self, capsys):
        assert main(["energy-report", "--fs-raw", "51200", "--T", "3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "153600" in out
        assert "0.33 Hz" in out

    def test_degenerate_ratio_one(self, capsys):
        assert main(["energy-report", "--fs-raw", "4", "--T", "0.25"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "1x" in out

    def test_zero_cost_model(self, capsys):
        assert main(["energy-report", "--fs-raw", "51200", "--T", "3", "--e-adc", "0", "--e-tx", "0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "raw 0 J/s, feature 0 J/s" in out


class TestSurrogateGen:
    def test_write_failure_is_data_error_without_manifest_or_temp_files(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("count_per_class=2\nfs_hz=8192\nduration_s=0.5\nhealthy.tones=200:1.0\nball_crack.tones=150:1.0\n")
        corpus = tmp_path / "out" / "corpus"
        (corpus / "healthy_01.f32").mkdir(parents=True)
        assert main(["surrogate-gen", "--spec", str(spec), "--out", str(tmp_path / "out")]) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cannot write {corpus / 'healthy_01.f32'}: ")
        assert "Traceback" not in err
        assert not (corpus / "manifest.csv").exists()
        assert not list(corpus.glob(".*.tmp"))

    def test_seeded_determinism(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(
            "count_per_class=2\nfs_hz=8192\nduration_s=0.5\n"
            "healthy.tones=120:0.8,200:1.0\nhealthy.noise_sigma=0.05\n"
            "ball_crack.tones=60:0.6,95:0.6\nball_crack.noise_sigma=0.3\n"
        )
        for name in ("a", "b"):
            assert main(["surrogate-gen", "--spec", str(spec), "--out", str(tmp_path / name), "--seed", "9"]) == EXIT_OK
        a_files = sorted((tmp_path / "a" / "corpus").glob("*.f32"))
        b_files = sorted((tmp_path / "b" / "corpus").glob("*.f32"))
        assert len(a_files) == 4
        assert all(x.read_bytes() == y.read_bytes() for x, y in zip(a_files, b_files))

    def test_spec_seed_used_without_explicit_seed(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("count_per_class=2\nfs_hz=8192\nduration_s=0.5\nseed=31\nhealthy.tones=200:1.0\n")
        assert main(["surrogate-gen", "--spec", str(spec), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["surrogate-gen", "--spec", str(spec), "--out", str(tmp_path / "b"), "--seed", "31"]) == EXIT_OK
        a = sorted((tmp_path / "a" / "corpus").glob("*.f32"))[0].read_bytes()
        b = sorted((tmp_path / "b" / "corpus").glob("*.f32"))[0].read_bytes()
        assert a == b


def _missing_recordings_manifest(tmp_path):
    """A manifest whose recordings do not exist: a command that reads it
    before checking its configuration ends in a data error, not exit 2."""
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(
        "path,label,bearing_type,load_w,fs_hz\nmissing_0.f32,healthy,6204,0,8192\nmissing_1.f32,ball_crack,6204,0,8192\n"
    )
    return manifest


class TestRejectedBeforeReading:
    def test_scatter_healthy_fault_label(self, tmp_path, capsys):
        manifest = _missing_recordings_manifest(tmp_path)
        out = tmp_path / "out"
        args = ["scatter", "--manifest", str(manifest), "--out", str(out), "--fault-label", "healthy"]
        assert main(args) == EXIT_CONFIG_ERROR
        assert "--fault-label" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--t-values", "--thicknesses"])
    def test_sweep_empty_list(self, flag, tmp_path, capsys):
        manifest = _missing_recordings_manifest(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", "--manifest", str(manifest), "--out", str(out), flag, ","]) == EXIT_CONFIG_ERROR
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, design", [("extract", "peh_0.50mm"), ("classify", "peh_0.50mm"), ("sweep", "peh_0.35mm"), ("scatter", "peh_0.35mm")]
    )
    def test_period_under_ten_resonance_cycles(self, command, design, tmp_path, capsys):
        manifest = _missing_recordings_manifest(tmp_path)
        out = tmp_path / "out"
        period = ["--t-values", "0.001"] if command == "sweep" else ["--T", "0.001"]
        args = [command, "--manifest", str(manifest), "--out", str(out), "--segment", "0.01", *period]
        assert main(args) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert "integration period 0.001s" in err and design in err
        assert not out.exists()


def test_period_of_exactly_ten_resonance_cycles_accepted(small_corpus, tmp_path, capsys):
    """peh_0.50mm resonates at 200 Hz: T = 0.05 s spans 10 cycles, 0.049 s does not."""
    args = ["classify", *small_flags(small_corpus, tmp_path), "--thickness", "0.50", "--repeats", "1"]
    assert main([*args, "--T", "0.05"]) == EXIT_OK
    assert main([*args, "--T", "0.049"]) == EXIT_CONFIG_ERROR
    assert "0.049s spans 9.8 cycles of peh_0.50mm" in capsys.readouterr().err
    assert main(["energy-report", "--T", "0.001"]) == EXIT_OK


class TestMixedFeatureDimensions:
    @pytest.mark.parametrize("command", ["extract", "classify", "sweep", "scatter"])
    def test_data_error_names_the_recording_and_both_dimensions(self, command, tmp_path, capsys):
        manifest = mixed_rate_manifest(tmp_path)
        out = tmp_path / "out"
        args = [command, "--manifest", str(manifest), "--out", str(out), *MIXED_RATE_FLAGS]
        if command == "sweep":
            args += ["--thicknesses", "0.50", "--t-values", "0.1"]
        assert main(args) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err == f"data error: {MIXED_RATE_ERROR}\n"
        assert not out.exists()


class TestThoughtExperimentPeriod:
    def test_period_under_ten_resonance_cycles_rejected(self, capsys):
        assert main(["thought-experiment", "--T", "0.00001"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: integration period 1e-05s spans 0.0015 cycles of peh_0.40mm (150 Hz)")

    def test_ten_cycles_of_the_slower_design_accepted_without_a_segment_limit(self, capsys):
        """peh_0.40mm resonates at 150 Hz: T = 0.07 s spans 10.5 cycles, 0.066 s
        only 9.9. A T longer than the 3 s segment is fine: nothing is segmented."""
        assert main(["thought-experiment", "--T", "0.066"]) == EXIT_CONFIG_ERROR
        assert main(["thought-experiment", "--T", "0.07"]) == EXIT_OK
        assert main(["thought-experiment", "--T", "4"]) == EXIT_OK
        assert "9.9 cycles of peh_0.40mm" in capsys.readouterr().err


USER_INPUT_ERRORS = [
    (["extract", "--thickness", "0.33"], "unknown design: thickness 0.33 mm not in table (0.35, 0.4, 0.45, 0.5 mm)"),
    (["thought-experiment", "--design-a", "0.33"], "unknown design: thickness 0.33 mm not in table"),
    (["sweep", "--thicknesses", "0.5,0.9"], "unknown design: thickness 0.9 mm not in table (0.35, 0.4, 0.45, 0.5 mm)"),
    (
        ["thought-experiment", "--f-healthy", "30000"],
        "tone frequency 30000.0 Hz must lie in (0, fs/2) = (0, 25600.0) to avoid aliasing",
    ),
    (["classify", "--k", "40"], "k=40 exceeds the 34 training points"),
    (["sweep", "--k", "40"], "k=40 exceeds the 34 training points"),
    (["thought-experiment", "--config", "{fs_synth_1000}"], "sampling rate too low: 1000.0 Hz < 20 * f0 = 4000 Hz"),
    (["classify", "--seed", "-1"], "non-negative"),
    (["surrogate-gen", "--seed", "-1"], "non-negative"),
    (["surrogate-gen", "--spec", "{seed_minus_1}"], "non-negative"),
    (["thought-experiment", "--T", "nan"], "config error: "),
]


@pytest.mark.parametrize(
    "argv, message", USER_INPUT_ERRORS, ids=["_".join(argv).replace("--", "") for argv, _ in USER_INPUT_ERRORS]
)
def test_user_input_error_is_a_config_error(argv, message, default_corpus, tmp_path, capsys):
    """Each of these reached the catch-all `except ValueError` that main once
    had; each now raises ConfigError where it is found."""
    (tmp_path / "fs.cfg").write_text("fs_synth=1000\n")
    (tmp_path / "seed.spec").write_text("seed=-1\nfs_hz=8192\nduration_s=1\nhealthy.tones=200:1\n")
    files = {"fs_synth_1000": tmp_path / "fs.cfg", "seed_minus_1": tmp_path / "seed.spec"}
    args = [token.format(**files) for token in argv] + ["--out", str(tmp_path / "out")]
    if argv[0] in ("extract", "classify", "sweep"):
        args += ["--manifest", str(default_corpus.root / "manifest.csv")]
    assert main(args) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("argv", [["thought-experiment", "--T", "inf"], ["energy-report", "--T", "nan"]])
def test_non_finite_parameter_is_a_config_error(argv, capsys):
    assert main(argv) == EXIT_CONFIG_ERROR
    assert capsys.readouterr().err.startswith("config error: t_s must be finite")


def test_non_finite_load_resistance_rejected_before_reading(tmp_path, capsys):
    manifest = _missing_recordings_manifest(tmp_path)
    assert main(["classify", "--manifest", str(manifest), "--out", str(tmp_path / "out"), "--r-ohm", "nan"]) == 2
    assert capsys.readouterr().err == "config error: r_ohm must be finite, got nan\n"


def test_value_error_inside_the_pipeline_is_not_a_config_error(small_corpus, tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("a library fault")

    monkeypatch.setattr(pehfault.cli, "repeated_evaluation", broken)
    with pytest.raises(ValueError, match="a library fault"):
        main(["classify", *small_flags(small_corpus, tmp_path)])
    assert "config error" not in capsys.readouterr().err
