import errno
import hashlib
import os
import re
import resource
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

import pehfault.cli
import pehfault.dataset
from pehfault.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_DATA_ERROR,
    EXIT_OK,
    RunConfig,
    _check_periods,
    main,
    parse_config_file,
    validate_config,
)
from pehfault.classify import draw_splits, repeated_evaluation
from pehfault.dataset import (
    DEFAULT_SURROGATE_SPEC,
    DESIGN_TABLE_FIELDS,
    MachineState,
    build_feature_sets,
    load_design_table,
    load_manifest,
    load_surrogate_spec,
    read_csv_table,
    synth_surrogate_corpus,
    write_recording_f32,
)
from pehfault.errors import ConfigError, DataError
from pehfault.frontend import mean_state_energy
from pehfault.harvester import DEFAULT_DESIGNS, design_from_thickness
from tests.conftest import (
    MIXED_RATE_ERROR,
    MIXED_RATE_FLAGS,
    SMALL_SEGMENT_S,
    SMALL_SEGMENTS,
    TINY_FLAGS,
    mixed_rate_manifest,
    tiny_argv,
    tiny_corpus,
)
from tests.oracles import row_labels
from tests.test_classify import accuracies, seeded_evaluation

REPO = Path(__file__).resolve().parents[1]


def readme_example(heading: str) -> str:
    """The first code block after `heading` in the README."""
    return (REPO / "README.md").read_text().split(heading, 1)[1].split("```", 2)[1]


def small_flags(corpus, out_dir, command=None):
    """The small corpus's manifest, segmentation and output flags, and T
    unless the command is sweep, which takes its periods from --t-values."""
    flags = ["--manifest", str(corpus.root / "manifest.csv"), "--out", str(out_dir)]
    flags += ["--segment", str(SMALL_SEGMENT_S), "--segments", str(SMALL_SEGMENTS)]
    return flags if command == "sweep" else [*flags, "--T", str(SMALL_SEGMENT_S)]


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
        path = tmp_path / "run.cfg"
        path.write_text(readme_example("## Configuration file"))
        values = parse_config_file(path)
        assert set(values) == {f.name for f in fields(RunConfig)}
        assert values["thickness_mm"] == 0.50 and values["design_table"] == ""
        validate_config(RunConfig(**values))

    def test_readme_design_table_example_parses(self, tmp_path):
        path = tmp_path / "designs.csv"
        path.write_text(readme_example("**Design table**"))
        (design,) = load_design_table(path)
        assert (design.name, design.thickness_mm, design.f0_hz, design.peak_gain_v_per_g) == ("custom_a", 0.45, 175.0, 2.0)

    def test_readme_surrogate_recipe_example_is_the_built_in_recipe(self, tmp_path):
        path = tmp_path / "recipe.cfg"
        path.write_text(readme_example("**Surrogate recipe**"))
        assert load_surrogate_spec(path) == DEFAULT_SURROGATE_SPEC

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
            _check_periods([5.0], DEFAULT_DESIGNS, segment_s=3.0)

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

    def test_empty_manifest_is_a_data_error_before_writing(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("path,label,bearing_type,load_w,fs_hz\n")
        code = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA_ERROR
        assert capsys.readouterr() == ("", f"data error: {manifest}: no recordings matched the manifest/filters\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "line",
        ["n_samples=inf", "n_samples=1e400", "n_samples=-inf", "n_samples=nan", "n_samples=8192.5", "fs_hz=nan", "fs_hz=inf"],
    )
    def test_sidecar_value_not_finite_or_not_whole_is_a_data_error(self, line, tmp_path, capsys):
        rng = np.random.default_rng(0)
        manifest = ["path,label,bearing_type,load_w,fs_hz"]
        for name, label in (("a.f32", "healthy"), ("b.f32", "ball_crack")):
            write_recording_f32(rng.standard_normal(8192), 8192, tmp_path / name)
            manifest.append(f"{name},{label},6204,0,8192")
        (tmp_path / "manifest.csv").write_text("\n".join(manifest) + "\n")
        sidecar = tmp_path / "b.f32.hdr"
        key, _, value = line.partition("=")
        lines = sidecar.read_text().splitlines()
        lineno = next(i for i, old in enumerate(lines, start=1) if old.startswith(f"{key}="))
        lines[lineno - 1] = line
        sidecar.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        args = ["extract", "--manifest", str(tmp_path / "manifest.csv"), "--out", str(out), "--segment", "0.5"]
        assert main([*args, "--segments", "2", "--T", "0.25"]) == EXIT_DATA_ERROR
        rule = "must be a whole number" if key == "n_samples" else "must be finite"
        assert capsys.readouterr().err == f"data error: b.f32: {sidecar}:{lineno}: {key} {rule}, got {value!r}\n"
        assert not out.exists()

    def test_design_table_with_a_load_resistance_column_is_a_data_error(self, small_corpus, tmp_path, capsys):
        """The load is --r-ohm alone: a table in the old six-column format is
        rejected by its header, not read with the column ignored."""
        table = tmp_path / "designs.csv"
        table.write_text("name,thickness_mm,f0_hz,bw3db_hz,peak_gain_v_per_g,r_ohm\ncustom,0.5,200,10,1.0,100\n")
        out = tmp_path / "out"
        args = ["extract", *small_flags(small_corpus, out), "--thickness", "0.5", "--design-table", str(table)]
        assert main(args) == EXIT_DATA_ERROR
        expected = "design table header must be name,thickness_mm,f0_hz,bw3db_hz,peak_gain_v_per_g, got"
        assert capsys.readouterr().err.startswith(f"data error: {table}:1: {expected}")
        assert not out.exists()

    @pytest.mark.parametrize("column", range(1, 5), ids=lambda i: DESIGN_TABLE_FIELDS[i])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_design_table_value_not_finite_and_positive_is_a_data_error(
        self, column, value, small_corpus, tmp_path, capsys
    ):
        fields = ["custom", "0.5", "200", "10", "1.0"]
        fields[column] = value
        table = tmp_path / "designs.csv"
        table.write_text(",".join(DESIGN_TABLE_FIELDS) + "\n" + ",".join(fields) + "\n")
        out = tmp_path / "out"
        args = ["extract", *small_flags(small_corpus, out), "--thickness", "0.5", "--design-table", str(table)]
        assert main(args) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {table}:2: ") and f"got {float(value)}" in err
        assert not out.exists()

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_manifest_rate_not_finite_is_a_data_error_before_reading(self, rate, tmp_path, monkeypatch, capsys):
        def no_reading(*args, **kwargs):
            raise AssertionError("a recording was read")

        monkeypatch.setattr(pehfault.dataset, "load_recording", no_reading)
        manifest = _missing_recordings_manifest(tmp_path)
        manifest.write_text(manifest.read_text().replace("0,8192\nmissing_1", f"0,{rate}\nmissing_1"))
        out = tmp_path / "out"
        assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == EXIT_DATA_ERROR
        expected = f"data error: {manifest}:2: missing_0.f32: sampling rate must be positive and finite, got {rate}\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_text_corpus_gives_the_f32_features_byte_for_byte(self, tmp_path):
        """The same corpus as raw float32 and as text (one repr per line)
        extracts to the same features.csv, up to the recording suffix."""
        spec = tmp_path / "spec.cfg"
        spec.write_text("count_per_class=2\nfs_hz=8192\nduration_s=1\nhealthy.tones=200:1.0\nball_crack.tones=150:1.0\n")
        assert main(["surrogate-gen", "--spec", str(spec), "--out", str(tmp_path / "f32"), "--seed", "5"]) == EXIT_OK
        f32 = tmp_path / "f32" / "corpus"
        text = tmp_path / "text"
        text.mkdir()
        for recording in f32.glob("*.f32"):
            samples = np.fromfile(recording, dtype="<f4").tolist()
            (text / recording.with_suffix(".txt").name).write_text("".join(f"{v!r}\n" for v in samples))
        (text / "manifest.csv").write_text((f32 / "manifest.csv").read_text().replace(".f32,", ".txt,"))
        flags = ["--segment", "0.5", "--segments", "2", "--T", "0.25"]
        features = {}
        for name, corpus in (("f32", f32), ("text", text)):
            out = tmp_path / f"out_{name}"
            assert main(["extract", "--manifest", str(corpus / "manifest.csv"), "--out", str(out), *flags]) == EXIT_OK
            features[name] = (out / "features.csv").read_bytes()
        assert features["text"].count(b".txt,") == 8  # one per row, in the recording column
        assert features["text"].replace(b".txt,", b".f32,") == features["f32"]


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

    def test_a_closed_stdout_exits_1_without_a_traceback(self):
        """A reader that closes the pipe first (`| true`, `| head`) once left
        a BrokenPipeError traceback on stderr."""
        read_end, write_end = os.pipe()
        os.close(read_end)  # before the child starts, so before it writes
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        try:
            cmd = [sys.executable, "-m", "pehfault", "thought-experiment"]
            done = subprocess.run(cmd, env=env, stdout=write_end, stderr=subprocess.PIPE, timeout=60)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (1, b"")

    def test_text_is_written_as_utf8_under_the_c_locale(self, small_corpus, tmp_path):
        """In the C locale, with UTF-8 mode and locale coercion off, Python's
        default text encoding is ASCII. A design named peh_ü still reaches
        features.csv, as UTF-8, which the CSV reader reads back."""
        table = tmp_path / "designs.csv"
        table.write_text(",".join(DESIGN_TABLE_FIELDS) + "\npeh_ü,0.5,200,10,1.0\n", encoding="utf-8")
        out = tmp_path / "out"
        env = {key: value for key, value in os.environ.items() if not key.startswith(("LC_", "PYTHONIOENCODING"))}
        env.update(PYTHONPATH=str(REPO / "src"), LC_ALL="C", LANG="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        argv = ["extract", *small_flags(small_corpus, out), "--thickness", "0.5", "--design-table", str(table)]
        done = subprocess.run([sys.executable, "-m", "pehfault", *argv], env=env, capture_output=True)
        assert done.returncode == EXIT_OK, done.stderr.decode(errors="replace")
        features = out / "features.csv"
        header = features.read_bytes().decode("utf-8").split("\n", 1)[0].split(",")
        rows = read_csv_table(features, "features", dict.fromkeys(header, str), lambda *fields: fields)
        assert len(rows) == len(small_corpus.entries) * SMALL_SEGMENTS
        assert {row[header.index("design")] for row in rows} == {"peh_ü"}

    @pytest.mark.parametrize(
        "command, flags, output",
        [
            ("scatter", ["--thicknesses", "0.5,0.4"], "scatter.csv"),
            ("sweep", ["--thicknesses", "0.5,0.4", "--t-values", str(SMALL_SEGMENT_S), "--repeats", "2"], "sweep.csv"),
            ("classify", ["--thickness", "0.5", "--repeats", "2"], "classification.csv"),
        ],
    )
    def test_a_non_ascii_design_name_prints_escaped_under_the_c_locale(self, command, flags, output, small_corpus, tmp_path):
        """A command that prints a design name peh_ü to an ASCII stdout prints
        it as peh_\\xfc and exits 0; its CSV is byte for byte the one written
        in UTF-8 mode, where peh_ü prints as itself."""
        table = tmp_path / "designs.csv"
        table.write_text(",".join(DESIGN_TABLE_FIELDS) + "\npeh_ü,0.5,200,10,1.0\npeh_b,0.4,150,10,1.0\n", encoding="utf-8")
        env = {key: value for key, value in os.environ.items() if not key.startswith(("LC_", "LANG", "PYTHONIOENCODING"))}
        env.update(PYTHONPATH=str(REPO / "src"), PYTHONCOERCECLOCALE="0")
        runs = {}
        for mode, extra in (("ascii", dict(LC_ALL="C", LANG="C", PYTHONUTF8="0")), ("utf8", dict(PYTHONUTF8="1"))):
            argv = [command, *small_flags(small_corpus, tmp_path / mode, command), *flags, "--design-table", str(table)]
            runs[mode] = subprocess.Popen([sys.executable, "-m", "pehfault", *argv], env={**env, **extra}, stdout=subprocess.PIPE)
        outputs = {mode: run.communicate()[0] for mode, run in runs.items()}
        assert [run.returncode for run in runs.values()] == [EXIT_OK, EXIT_OK]
        assert b"peh_\\xfc" in outputs["ascii"] and "peh_ü".encode() not in outputs["ascii"]
        assert "peh_ü".encode() in outputs["utf8"]
        assert (tmp_path / "ascii" / output).read_bytes() == (tmp_path / "utf8" / output).read_bytes()


class TestSingleLabelManifest:
    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_rejected_with_manifest_and_label(self, command, small_corpus, tmp_path, capsys):
        args = [command, *small_flags(small_corpus, tmp_path, command), "--labels", "healthy"]
        if command == "sweep":
            args += ["--t-values", str(SMALL_SEGMENT_S)]
        assert main(args) == EXIT_DATA_ERROR
        err = capsys.readouterr().err
        assert str(small_corpus.root / "manifest.csv") in err
        assert "'healthy'" in err
        assert list(tmp_path.iterdir()) == []


class TestTooFewSamplesPerClass:
    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_one_recording_one_segment_is_data_error(self, command, tmp_path, monkeypatch, capsys):
        """The splits are drawn from the manifest before any recording is
        read, so a class too small to split stops the command there."""

        def no_reading(*args, **kwargs):
            raise AssertionError("a recording was read")

        spec = tmp_path / "spec.cfg"
        spec.write_text(
            "count_per_class=1\nfs_hz=8192\nduration_s=1.0\nhealthy.tones=200:1.0\nball_crack.tones=150:1.0\n"
        )
        assert main(["surrogate-gen", "--spec", str(spec), "--out", str(tmp_path)]) == EXIT_OK
        monkeypatch.setattr(pehfault.dataset, "load_recording", no_reading)
        manifest = tmp_path / "corpus" / "manifest.csv"
        out = tmp_path / "out"
        args = [command, "--manifest", str(manifest), "--out", str(out), "--segment", "0.5", "--segments", "1"]
        args += ["--T", "0.5"] if command == "classify" else ["--t-values", "0.5"]
        capsys.readouterr()
        assert main(args) == EXIT_DATA_ERROR
        expected = f"data error: {manifest}: stratified split needs >= 2 samples per class; 'ball_crack' has 1\n"
        assert capsys.readouterr() == ("", expected)
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
        rows = [line.split(",") for line in lines[1:]]
        assert [row[1] for row in rows] == ["3", "4"]  # seed0 + repeat
        for row in rows:
            # every split partitions all the feature rows; counts print as integers
            assert int(row[3]) + int(row[4]) == len(small_corpus.entries) * SMALL_SEGMENTS
            assert row[3].isdigit() and row[4].isdigit()


# Two states whose tones and noise overlap: kNN accuracy varies with the
# design, the period and the split.
OVERLAPPING_RECIPE = (
    "count_per_class=4\nfs_hz=8192\nduration_s=1\namplitude_jitter=0.3\n"
    "healthy.tones=150:1.0,200:1.0\nhealthy.noise_sigma=1.0\n"
    "ball_crack.tones=150:1.0,200:0.8\nball_crack.noise_sigma=1.0\n"
)


class TestUnstratified:
    """stratified=false in a config file reaches the kNN through cli.main."""

    @pytest.mark.parametrize("command", ["classify", "sweep"])
    def test_the_outputs_are_those_of_an_unstratified_repeated_evaluation(self, command, tmp_path, capsys):
        (tmp_path / "recipe.cfg").write_text(OVERLAPPING_RECIPE)
        manifest = synth_surrogate_corpus(load_surrogate_spec(tmp_path / "recipe.cfg"), 1, tmp_path / "corpus")
        settings = "stratified=false\nseed=4\nn_repeats=5\nsegment_s=0.5\nsegments_per_recording=2\n"
        (tmp_path / "run.cfg").write_text(settings + "t_s=0.25\nt_values=0.25\nthicknesses=0.5\n")
        argv = ["--config", str(tmp_path / "run.cfg"), "--manifest", str(manifest.root / "manifest.csv")]
        assert main([command, *argv, "--out", str(tmp_path)]) == EXIT_OK
        ((features,),) = build_feature_sets(manifest, [design_from_thickness(0.5)], 0.5, 2, [0.25], 1.0)
        evaluations = {
            stratified: seeded_evaluation(features, row_labels(manifest, 2), 3, 5, seed=4, stratified=stratified)[1]
            for stratified in (False, True)
        }
        confusions, acc = evaluations[False], accuracies(evaluations[False])
        if command == "classify":
            n_validation = confusions.sum(axis=(1, 2)).tolist()
            expected = [(i, 4 + i, a, 16 - n, n) for i, (a, n) in enumerate(zip(acc.tolist(), n_validation))]
            cells = [line.split(",") for line in (tmp_path / "classification.csv").read_text().splitlines()[1:]]
            assert [(int(i), int(seed), float(a), int(t), int(v)) for i, seed, a, t, v in cells] == expected
            # 13 of the 16 rows train unstratified, 2 x 6 stratified
            assert {16 - n for n in n_validation} == {13}
            assert evaluations[True].sum(axis=(1, 2)).tolist() == [4] * 5
        else:
            (cell,) = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
            assert [float(value) for value in cell.split(",")[3:5]] == [acc.mean(), acc.std()]
            assert accuracies(evaluations[True]).mean() != acc.mean()

    @pytest.mark.parametrize("command", ["classify", "sweep"])
    @pytest.mark.parametrize(
        "settings, k, n_train",
        [("", 40, 34), ("segments_per_recording=1\n", 12, 11)],
        ids=["default", "one-segment"],
    )
    def test_the_k_check_counts_the_unstratified_training_points(
        self, command, settings, k, n_train, default_corpus, tmp_path, capsys
    ):
        """On 7 one-segment recordings per state, 11 of the 14 rows train
        unstratified and 2 x 6 = 12 stratified, so k=12 passes only the
        stratified check."""
        (tmp_path / "run.cfg").write_text(f"stratified=false\nk={k}\n{settings}")
        out = tmp_path / "out"
        argv = [command, "--config", str(tmp_path / "run.cfg"), "--manifest", str(default_corpus.root / "manifest.csv")]
        assert main([*argv, "--out", str(out)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr() == ("", f"config error: k={k} exceeds the {n_train} training points\n")
        assert not out.exists()


class TestSweep:
    def test_table_shape(self, small_corpus, tmp_path, capsys):
        args = [
            "sweep",
            *small_flags(small_corpus, tmp_path, "sweep"),
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

    def test_single_repeat_writes_zero_std(self, small_corpus, tmp_path, capsys):
        args = ["sweep", *small_flags(small_corpus, tmp_path, "sweep"), "--thicknesses", "0.50", "--t-values", str(SMALL_SEGMENT_S)]
        assert main([*args, "--repeats", "1"]) == EXIT_OK
        (row,) = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
        assert row.split(",")[4:6] == ["0.0", "1"]

    def test_a_period_flag_is_an_unrecognized_argument(self, small_corpus, tmp_path, capsys):
        """sweep takes its periods only from --t-values; a --T beside them was
        once accepted and ignored, even at a T that breaks the 10-cycle rule."""
        out = tmp_path / "out"
        for period in ("3", "0.001"):
            args = ["sweep", *small_flags(small_corpus, out, "sweep"), "--t-values", str(SMALL_SEGMENT_S), "--T", period]
            with pytest.raises(SystemExit) as exit_info:
                main(args)
            assert exit_info.value.code == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err.endswith(f"pehfault: error: unrecognized arguments: --T {period}\n")
        assert not out.exists()

    def test_each_cell_is_repeated_evaluation_of_its_feature_matrix(self, tmp_path, capsys):
        """Each row's mean and std are those of repeated_evaluation on the
        build_feature_sets matrix of its (design, T), every cell under the
        same seeds. The states overlap, so the cells differ."""
        (tmp_path / "recipe.cfg").write_text(OVERLAPPING_RECIPE)
        manifest = synth_surrogate_corpus(load_surrogate_spec(tmp_path / "recipe.cfg"), 1, tmp_path / "corpus")
        designs, periods = [design_from_thickness(t) for t in (0.35, 0.50)], [0.125, 0.25]
        flags = ["--segment", "0.5", "--segments", "2", "--thicknesses", "0.35,0.5", "--t-values", "0.125,0.25"]
        argv = ["sweep", "--manifest", str(tmp_path / "corpus" / "manifest.csv"), "--out", str(tmp_path), *flags]
        assert main([*argv, "--repeats", "3", "--seed", "4"]) == EXIT_OK
        sets = build_feature_sets(manifest, designs, 0.5, 2, periods, 1.0)
        expected = []
        for design, design_sets in zip(designs, sets):
            for t_s, features in zip(periods, design_sets):
                acc = accuracies(seeded_evaluation(features, row_labels(manifest, 2), 3, 3, seed=4)[1])
                expected.append([design.name, t_s, acc.mean(), acc.std()])
        cells = [line.split(",") for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
        assert [[name, float(t_s), float(mean), float(std)] for name, _, t_s, mean, std, _, _ in cells] == expected
        assert len({mean for _, _, mean, _ in expected}) > 1

    def test_every_cell_scores_the_one_list_of_splits_drawn_before_reading(self, small_corpus, tmp_path, monkeypatch):
        """4 designs x 2 periods: draw_splits runs once, from the manifest, and
        all eight cells score the list it returned."""
        drawn, scored = [], []

        def counted_draw(*args, **kwargs):
            drawn.append(draw_splits(*args, **kwargs))
            return drawn[-1]

        def spied_evaluation(features, labels, splits, *args, **kwargs):
            scored.append(splits)
            return repeated_evaluation(features, labels, splits, *args, **kwargs)

        monkeypatch.setattr(pehfault.cli, "draw_splits", counted_draw)
        monkeypatch.setattr(pehfault.cli, "repeated_evaluation", spied_evaluation)
        flags = ["--thicknesses", "0.35,0.40,0.45,0.50", "--t-values", f"{SMALL_SEGMENT_S / 2},{SMALL_SEGMENT_S}"]
        assert main(["sweep", *small_flags(small_corpus, tmp_path, "sweep"), *flags, "--repeats", "4"]) == EXIT_OK
        assert len(drawn) == 1 and len(drawn[0]) == 4
        assert len(scored) == 8 and all(splits is drawn[0] for splits in scored)


class TestLoadFilter:
    @pytest.mark.parametrize("load_w", [-2, -200])
    def test_a_load_under_minus_one_is_a_config_error(self, load_w, default_corpus, tmp_path, capsys):
        """Only -1 means any load: a filter of -200 W once matched every recording."""
        out = tmp_path / "out"
        argv = ["extract", "--manifest", str(default_corpus.root / "manifest.csv"), "--out", str(out)]
        assert main([*argv, "--load-w", str(load_w)]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr() == ("", f"config error: load_w must be a load in Watts, or -1 for any load, got {load_w}\n")
        assert not out.exists()

    def test_minus_one_keeps_every_load_and_an_unmatched_load_keeps_none(self, default_corpus, tmp_path, capsys):
        manifest = str(default_corpus.root / "manifest.csv")
        assert main(["extract", "--manifest", manifest, "--out", str(tmp_path), "--load-w", "-1"]) == EXIT_OK
        assert len((tmp_path / "features.csv").read_text().splitlines()) == 1 + len(default_corpus.entries) * 3
        capsys.readouterr()
        assert main(["extract", "--manifest", manifest, "--out", str(tmp_path / "none"), "--load-w", "200"]) == EXIT_DATA_ERROR
        assert capsys.readouterr() == ("", f"data error: {manifest}: no recordings matched the manifest/filters\n")

    @staticmethod
    def mixed_manifest(root):
        """Six 1 s noise recordings at 8192 Hz whose label, bearing type and load vary."""
        rng = np.random.default_rng(5)
        lines = ["path,label,bearing_type,load_w,fs_hz"]
        for name, label, bearing, load in (
            ("a.f32", "healthy", "6204", 0),
            ("b.f32", "ball_crack", "6204", 200),
            ("c.f32", "healthy", "6205", 200),
            ("d.f32", "ball_crack", "6205", 0),
            ("e.f32", "inner_crack", "6204", 200),
            ("f.f32", "healthy", "6204", 200),
        ):
            write_recording_f32(rng.standard_normal(8192), 8192, root / name)
            lines.append(f"{name},{label},{bearing},{load},8192")
        (root / "manifest.csv").write_text("\n".join(lines) + "\n")
        return root / "manifest.csv"

    @pytest.mark.parametrize(
        "flags, kept",
        [
            ([], "abcdef"),
            (["--labels", "healthy"], "acf"),
            (["--bearing-type", "6205"], "cd"),
            (["--load-w", "200"], "bcef"),
            (["--labels", "healthy,ball_crack", "--bearing-type", "6204", "--load-w", "200"], "bf"),
            (["--labels", "inner_crack,ball_crack"], "bde"),  # manifest order, not the flag's
        ],
    )
    def test_extract_writes_the_rows_of_the_recordings_each_filter_keeps(self, flags, kept, tmp_path, capsys):
        """Rows are the kept entries x segments, in manifest order: each row
        names its recording, its segment index (an int, not 0.0) and its label."""
        manifest = self.mixed_manifest(tmp_path)
        argv = ["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out"), *TINY_FLAGS, *flags]
        assert main(argv) == EXIT_OK
        rows = (tmp_path / "out" / "features.csv").read_text().splitlines()[1:]
        labels = {meta.path: meta.label.value for meta in load_manifest(manifest).entries}
        expected = [[f"{name}.f32", str(index), labels[f"{name}.f32"]] for name in kept for index in range(2)]
        assert [row.split(",")[:3] for row in rows] == expected


class TestScatter:
    def test_design_names_are_escaped_in_the_svg(self, default_corpus, tmp_path, capsys):
        """Markup characters in a design name read back as the name, not as
        broken XML."""
        names = ["R&D <a>", "b>c & 'd'"]
        table = tmp_path / "designs.csv"
        table.write_text(f"{','.join(DESIGN_TABLE_FIELDS)}\n{names[0]},0.5,200,10,1.0\n{names[1]},0.4,150,10,1.0\n")
        argv = ["scatter", "--manifest", str(default_corpus.root / "manifest.csv"), "--out", str(tmp_path)]
        assert main([*argv, "--design-table", str(table), "--thicknesses", "0.5,0.4"]) == EXIT_OK
        texts = ElementTree.parse(tmp_path / "scatter.svg").getroot().iter("{http://www.w3.org/2000/svg}text")
        assert [text.text for text in texts][-2:] == names

    def test_each_pair_is_the_state_means_of_its_feature_matrix(self, small_corpus, tmp_path, capsys):
        designs = [design_from_thickness(t) for t in (0.35, 0.45, 0.50)]
        assert main(["scatter", *small_flags(small_corpus, tmp_path), "--thicknesses", "0.35,0.45,0.5"]) == EXIT_OK
        sets = build_feature_sets(small_corpus, designs, SMALL_SEGMENT_S, SMALL_SEGMENTS, [SMALL_SEGMENT_S], 1.0)
        expected = []
        for design, (matrix,) in zip(designs, sets):
            means = mean_state_energy(matrix, row_labels(small_corpus, SMALL_SEGMENTS))
            expected.append([design.name, means["healthy"], means["ball_crack"]])
        pairs = [line.split(",") for line in (tmp_path / "scatter.csv").read_text().splitlines()[1:]]
        assert [[name, float(healthy), float(faulty)] for name, _, healthy, faulty, _ in pairs] == expected

    def test_missing_fault_state_rejected_before_reading(self, small_corpus, tmp_path, monkeypatch, capsys):
        def no_reading(*args, **kwargs):
            raise AssertionError("a recording was read")

        monkeypatch.setattr(pehfault.dataset, "load_recording", no_reading)
        out = tmp_path / "out"
        assert main(["scatter", *small_flags(small_corpus, out), "--labels", "healthy"]) == EXIT_DATA_ERROR
        manifest = small_corpus.root / "manifest.csv"
        assert capsys.readouterr().err == f"data error: {manifest}: no 'ball_crack' recordings matched the manifest/filters\n"
        assert not (out / "scatter.csv").exists()

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


# The stdout of sweep and scatter in the README experiment (seed 0), with
# {out} for the output directory, and the SHA-256 of the scatter.svg it writes.
README_SWEEP_STDOUT = """\
design,thickness_mm,T_s,mean_accuracy,std_accuracy,n_repeats,seed0
peh_0.35mm,0.35,1.0,1.0,0.0,20,0
peh_0.35mm,0.35,3.0,1.0,0.0,20,0
peh_0.40mm,0.4,1.0,1.0,0.0,20,0
peh_0.40mm,0.4,3.0,1.0,0.0,20,0
peh_0.45mm,0.45,1.0,1.0,0.0,20,0
peh_0.45mm,0.45,3.0,1.0,0.0,20,0
peh_0.50mm,0.5,1.0,1.0,0.0,20,0
peh_0.50mm,0.5,3.0,1.0,0.0,20,0
wrote sweep table to {out}/sweep.csv
"""
README_SCATTER_STDOUT = """\
peh_0.35mm: healthy 0.488653 J, faulty 0.297037 J, distance to diagonal 0.135493 J
peh_0.40mm: healthy 0.0404399 J, faulty 0.0966347 J, distance to diagonal 0.0397357 J
peh_0.45mm: healthy 0.0702029 J, faulty 0.120019 J, distance to diagonal 0.0352254 J
peh_0.50mm: healthy 1.46225 J, faulty 0.0301411 J, distance to diagonal 1.01265 J
wrote {out}/scatter.csv and {out}/scatter.svg
"""
README_SCATTER_SVG_SHA256 = "1d98ca82eea50bec8f0f64ccb5337ad55e94bc80a154cd808d02dab800f2952c"


def test_readme_sweep_and_scatter_stdout_and_svg_are_pinned(default_corpus, tmp_path, capsys):
    base = ["--manifest", str(default_corpus.root / "manifest.csv"), "--out", str(tmp_path), "--seed", "0"]
    assert main(["sweep", "--thicknesses", "0.35,0.40,0.45,0.50", "--t-values", "1,3", *base]) == EXIT_OK
    assert capsys.readouterr() == (README_SWEEP_STDOUT.format(out=tmp_path), "")
    assert main(["scatter", *base]) == EXIT_OK
    assert capsys.readouterr() == (README_SCATTER_STDOUT.format(out=tmp_path), "")
    assert hashlib.sha256((tmp_path / "scatter.svg").read_bytes()).hexdigest() == README_SCATTER_SVG_SHA256


DEMO_STDOUT = {
    "thought-experiment": """\
machine states: healthy vibrates at 200 Hz, faulty at 150 Hz
             input |   peh_0.50mm |   peh_0.40mm | decision
  healthy (200 Hz) |      1.47612 |    0.0194352 | healthy
   faulty (150 Hz) |    0.0109936 |      1.47613 | faulty
""",
    "thought-experiment --f-healthy 180 --f-faulty 180": """\
machine states: healthy vibrates at 180 Hz, faulty at 180 Hz
             input |   peh_0.50mm |   peh_0.40mm | decision
  healthy (180 Hz) |     0.079975 |    0.0482228 | healthy
   faulty (180 Hz) |     0.079975 |    0.0482228 | healthy
""",
    # one design twice: every row ties, and a tie decides healthy
    "thought-experiment --design-b 0.50": """\
machine states: healthy vibrates at 200 Hz, faulty at 150 Hz
             input |   peh_0.50mm |   peh_0.50mm | decision
  healthy (200 Hz) |      1.47612 |      1.47612 | healthy
   faulty (150 Hz) |    0.0109936 |    0.0109936 | healthy
""",
    "energy-report --fs-raw 51200 --T 3": """\
raw architecture:     51200 Hz sampling (819200 bit/s)
feature architecture: 0.33 Hz sampling (5.33333 bit/s)
sampling reduction:   153600x (10^5.19)
modeled ADC+TX power: raw 0.0820224 J/s, feature 5.34e-07 J/s
""",
    "energy-report --fs-raw 4 --T 0.25": """\
raw architecture:     4 Hz sampling (64 bit/s)
feature architecture: 4 Hz sampling (64 bit/s)
sampling reduction:   1x (10^0.00)
modeled ADC+TX power: raw 6.408e-06 J/s, feature 6.408e-06 J/s
""",
    # a rate of 1/300 Hz once printed as 0.00 Hz
    "energy-report --T 300": """\
raw architecture:     51200 Hz sampling (819200 bit/s)
feature architecture: 0.0033 Hz sampling (0.0533333 bit/s)
sampling reduction:   1.536e+07x (10^7.19)
modeled ADC+TX power: raw 0.0820224 J/s, feature 5.34e-09 J/s
""",
    "energy-report --e-adc 0 --e-tx 0": """\
raw architecture:     51200 Hz sampling (819200 bit/s)
feature architecture: 0.33 Hz sampling (5.33333 bit/s)
sampling reduction:   153600x (10^5.19)
modeled ADC+TX power: raw 0 J/s, feature 0 J/s
""",
    "energy-report --bits 8": """\
raw architecture:     51200 Hz sampling (409600 bit/s)
feature architecture: 0.33 Hz sampling (2.66667 bit/s)
sampling reduction:   153600x (10^5.19)
modeled ADC+TX power: raw 0.0820224 J/s, feature 5.34e-07 J/s
""",
}


@pytest.mark.parametrize("command", DEMO_STDOUT)
def test_demo_command_stdout_is_pinned(command, capsys):
    """The exact text of the two demo commands, defaults included."""
    assert main(command.split()) == EXIT_OK
    assert capsys.readouterr() == (DEMO_STDOUT[command], "")


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
    def test_duration_under_one_sample_is_a_config_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text("fs_hz=8192\nduration_s=0.00001\nhealthy.tones=200:1.0\nball_crack.tones=150:1.0\n")
        assert main(["surrogate-gen", "--spec", str(spec), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {spec}: duration_s=1e-05 at fs_hz=8192 gives 0 samples; need >= 1\n"
        assert not list(tmp_path.rglob("*.f32"))

    def test_load_outside_the_manifest_loads_is_a_config_error_before_writing(self, tmp_path, capsys):
        """The corpus's manifest could not load at 500 W: the recipe is
        rejected before any recording is computed or written."""
        spec = tmp_path / "r.spec"
        spec.write_text("count_per_class=1\nfs_hz=8192\nduration_s=1\nload_w=500\nhealthy.tones=200:1\nball_crack.tones=150:1\n")
        assert main(["surrogate-gen", "--spec", str(spec), "--out", str(tmp_path / "o")]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == f"config error: {spec}: load_w must be one of (0, 200, 400) W, got 500\n"
        assert not (tmp_path / "o" / "corpus").exists()

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

    def test_scatter_unknown_fault_label_is_named(self, tmp_path, capsys):
        """An unknown fault label once printed `unknown label token '0'`
        without naming the parameter."""
        manifest = _missing_recordings_manifest(tmp_path)
        out = tmp_path / "out"
        assert main(["scatter", "--manifest", str(manifest), "--out", str(out), "--fault-label", "0"]) == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err.startswith("config error: fault_label: unknown label token '0' (valid: healthy, ")
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


@pytest.mark.parametrize(
    "command, flag, key, value, message",
    [
        ("sweep", "--t-values", "t_values", "3,3.0", "--t-values repeats a value in (3.0, 3.0): give each integration period once"),
        (
            "sweep",
            "--thicknesses",
            "thicknesses",
            "0.5,0.35,0.50",
            "--thicknesses repeats a value in (0.5, 0.35, 0.5): give each design thickness once",
        ),
        (
            "scatter",
            "--thicknesses",
            "thicknesses",
            "0.4,0.40",
            "--thicknesses repeats a value in (0.4, 0.4): give each design thickness once",
        ),
        (
            "classify",
            "--labels",
            "labels",
            "healthy,ball_crack,healthy",
            "--labels repeats a value in ('healthy', 'ball_crack', 'healthy'): give each machine state once",
        ),
    ],
)
@pytest.mark.parametrize("route", ["flag", "config"])
def test_a_list_repeating_a_value_is_a_config_error_before_reading(route, command, flag, key, value, message, tmp_path, capsys):
    """Values compare as parsed, so 3 and 3.0 or 0.5 and 0.50 are one value.
    The manifest's recordings do not exist: reading one would be a data error."""
    manifest = _missing_recordings_manifest(tmp_path)
    out = tmp_path / "out"
    if route == "flag":
        given = [flag, value]
    else:
        (tmp_path / "run.cfg").write_text(f"{key}={value}\n")
        given = ["--config", str(tmp_path / "run.cfg")]
    assert main([command, "--manifest", str(manifest), "--out", str(out), *given]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr() == ("", f"config error: {message}\n")
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
        if command == "sweep":  # its period comes from --t-values, in place of MIXED_RATE_FLAGS' closing --T 0.1
            args[-2:] = ["--thicknesses", "0.50", "--t-values", "0.1"]
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
        "f_healthy=30000 Hz must lie in (0, fs_synth/2) = (0, 25600) to avoid aliasing",
    ),
    (["classify", "--k", "40"], "k=40 exceeds the 34 training points"),
    (["sweep", "--k", "40"], "k=40 exceeds the 34 training points"),
    (["thought-experiment", "--config", "{fs_synth_1000}"], "sampling rate too low: 1000.0 Hz < 20 * f0 = 4000 Hz"),
    (["classify", "--seed", "-1"], "non-negative"),
    (["surrogate-gen", "--seed", "-1"], "non-negative"),
    (["surrogate-gen", "--spec", "{seed_minus_1}"], "non-negative"),
    (["thought-experiment", "--T", "nan"], "config error: "),
    (["energy-report", "--fs-raw", "nan"], "fs_raw_hz must be positive and finite, got nan"),
    (["energy-report", "--fs-raw", "inf"], "fs_raw_hz must be positive and finite, got inf"),
    (["energy-report", "--e-adc", "nan"], "e_adc_per_sample_j must be non-negative and finite, got nan"),
    (["energy-report", "--e-tx", "nan"], "e_tx_per_sample_j must be non-negative and finite, got nan"),
]


@pytest.mark.parametrize(
    "argv, message", USER_INPUT_ERRORS, ids=["_".join(argv).replace("--", "") for argv, _ in USER_INPUT_ERRORS]
)
def test_user_input_error_is_a_config_error(argv, message, default_corpus, tmp_path, capsys):
    """Each of these reached the catch-all `except ValueError` that main once
    had, or (energy-report's NaN and infinite values) was accepted; each now
    raises ConfigError where it is found."""
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


@pytest.mark.parametrize("line", ["fshz=9999", "n_sample=5", "fs_hz=8192"])
def test_unknown_or_repeated_sidecar_key_is_a_data_error(line, tmp_path, capsys):
    """A sidecar key the format does not declare, or one given twice, is
    named with its line; it is not skipped."""
    corpus = tiny_corpus(tmp_path)
    sidecar = corpus / "healthy_00.f32.hdr"
    sidecar.write_text(sidecar.read_text() + line + "\n")
    key = line.partition("=")[0]
    rule = f"duplicate key {key!r}" if key == "fs_hz" else f"unknown key {key!r}"
    out = tmp_path / "out"
    assert main(["extract", "--manifest", str(corpus / "manifest.csv"), "--out", str(out), *TINY_FLAGS]) == EXIT_DATA_ERROR
    assert capsys.readouterr() == ("", f"data error: healthy_00.f32: {sidecar}:3: {rule}\n")
    assert not out.exists()


def _non_utf8_case(kind, root):
    """(argv, the file that gets the bad byte, exit code, stderr prefix) for
    one input file kind, on a tiny corpus under root."""
    corpus = tiny_corpus(root, text=kind == "text recording")
    manifest = corpus / "manifest.csv"
    out = ["--out", str(root / "out")]
    extract = ["extract", "--manifest", str(manifest), *out, *TINY_FLAGS]
    if kind == "manifest":
        return extract, manifest, EXIT_DATA_ERROR, ""
    if kind == "design table":
        table = root / "designs.csv"
        table.write_text(",".join(DESIGN_TABLE_FIELDS) + "\ncustom_a,0.5,200,10,1.0\n")
        return [*extract, "--design-table", str(table)], table, EXIT_DATA_ERROR, ""
    if kind == "config":
        config = root / "run.cfg"
        config.write_text(f"manifest={manifest}\nthickness_mm=0.5\n")
        return ["extract", "--config", str(config), *out, *TINY_FLAGS], config, EXIT_CONFIG_ERROR, ""
    if kind == "recipe":
        return ["surrogate-gen", "--spec", str(root / "recipe.cfg"), *out], root / "recipe.cfg", EXIT_CONFIG_ERROR, ""
    if kind == "sidecar":
        return extract, corpus / "healthy_00.f32.hdr", EXIT_DATA_ERROR, "healthy_00.f32: "
    return extract, corpus / "healthy_00.txt", EXIT_DATA_ERROR, "healthy_00.txt: "


@pytest.mark.parametrize("kind", ["manifest", "design table", "config", "recipe", "sidecar", "text recording"])
def test_non_utf8_byte_in_an_input_file_names_the_file_and_offset(kind, tmp_path, capsys):
    argv, target, code, prefix = _non_utf8_case(kind, tmp_path)
    content = target.read_bytes()
    offset = content.index(b"\n") + 1  # the start of the second line
    target.write_bytes(content[:offset] + b"\xff" + content[offset:])
    assert main(argv) == code
    error = "config error" if code == EXIT_CONFIG_ERROR else "data error"
    assert capsys.readouterr() == ("", f"{error}: {prefix}{target}: not UTF-8 text (byte {offset})\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["classify", "sweep"])
@pytest.mark.parametrize(
    "row, repeated", [("custom_a,0.45,175,10,1.0", "name 'custom_a'"), ("custom_b,0.50,210,10,1.0", "thickness_mm 0.5")]
)
def test_design_table_repeating_a_name_or_thickness_is_a_data_error(command, row, repeated, tmp_path, capsys):
    """Without this, a repeated thickness silently took its first row, and a
    repeated name wrote sweep rows that cannot be told apart."""
    table = tmp_path / "designs.csv"
    table.write_text(",".join(DESIGN_TABLE_FIELDS) + "\ncustom_a,0.5,200,10,1.0\n\n" + row + "\n")
    out = tmp_path / "out"
    args = [command, "--manifest", str(_missing_recordings_manifest(tmp_path)), "--out", str(out)]
    args += ["--design-table", str(table), "--thickness" if command == "classify" else "--thicknesses", "0.5"]
    assert main(args) == EXIT_DATA_ERROR
    assert capsys.readouterr() == ("", f"data error: {table}:4: duplicate {repeated}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["extract", "classify", "sweep", "scatter"])
def test_manifest_rate_under_twenty_times_the_highest_resonance_is_rejected_before_reading(
    command, tmp_path, monkeypatch, capsys
):
    """peh_0.50mm resonates at 200 Hz, so every recording needs fs >= 4000 Hz;
    sweep and scatter use it beside the slower designs."""

    def no_reading(*args, **kwargs):
        raise AssertionError("a recording was read")

    monkeypatch.setattr(pehfault.dataset, "load_recording", no_reading)
    lines = ["path,label,bearing_type,load_w,fs_hz"]
    for name, label, fs in (("a.f32", "healthy", 8192), ("b.f32", "ball_crack", 3999), ("c.f32", "healthy", 100)):
        write_recording_f32(np.zeros(8), fs, tmp_path / name)
        lines.append(f"{name},{label},6204,0,{fs}")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    args = [command, "--manifest", str(manifest), "--out", str(out)]
    if command == "sweep":
        args += ["--thicknesses", "0.35,0.50"]
    assert main(args) == EXIT_DATA_ERROR
    expected = f"data error: {manifest}: b.f32: sampling rate 3999 Hz < 20 * f0 = 4000 Hz of peh_0.50mm\n"
    assert capsys.readouterr() == ("", expected)
    assert not out.exists()


@pytest.mark.parametrize(
    "command, flag, text, rule",
    [
        ("energy-report", "--config", "k=3\n\nk=5\n", "duplicate key 'k'"),
        ("surrogate-gen", "--spec", "healthy.tones=200:1\nfs_hz=8192\nhealthy.tones=100:1\n", "duplicate key 'healthy.tones'"),
        ("surrogate-gen", "--spec", "healthy.tones=200:1\n# a comment\nhealthy.sigma=0.1\n", "unknown key 'healthy.sigma'"),
        ("surrogate-gen", "--spec", "healthy.tones=200:1\nfs_hz=8192\nhealthyy.tones=100:1\n", "unknown key 'healthyy.tones'"),
    ],
)
def test_a_config_or_recipe_key_given_twice_or_unknown_is_a_config_error(command, flag, text, rule, tmp_path, capsys):
    """Neither format lets a later line silently replace an earlier one."""
    path = tmp_path / "input.cfg"
    path.write_text(text)
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr() == ("", f"config error: {path}:3: {rule}\n")
    assert not (tmp_path / "out").exists()


def test_a_recipe_rule_broken_after_parsing_names_the_recipe(tmp_path, capsys):
    """fs_hz and count_per_class swapped: every key parses, but the tone now
    lies above fs/2."""
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text("count_per_class=8192\nfs_hz=1\nduration_s=1\nhealthy.tones=100:1.0\nball_crack.tones=60:0.5\n")
    assert main(["surrogate-gen", "--spec", str(recipe), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr() == ("", f"config error: {recipe}: healthy: tone at 100.0 Hz outside (0, fs/2)\n")
    assert not (tmp_path / "out").exists()


def test_a_thickness_missing_from_the_design_table_names_the_table(tmp_path, capsys):
    table = tmp_path / "designs.csv"
    table.write_text(",".join(DESIGN_TABLE_FIELDS) + "\ncustom_a,0.5,200,10,1.0\n")
    args = ["classify", "--manifest", str(_missing_recordings_manifest(tmp_path)), "--out", str(tmp_path / "out")]
    assert main([*args, "--design-table", str(table), "--thickness", "0.45"]) == EXIT_CONFIG_ERROR
    expected = f"config error: {table}: thickness_mm: unknown design: thickness 0.45 mm not in table (0.5 mm)\n"
    assert capsys.readouterr() == ("", expected)
    assert not (tmp_path / "out").exists()


def test_a_thickness_picks_the_design_of_exactly_that_thickness(small_corpus, tmp_path, capsys):
    """Two designs 1e-10 mm apart are two designs: a thickness within 1e-9 of
    the first once picked it for the second."""
    table = tmp_path / "designs.csv"
    table.write_text(",".join(DESIGN_TABLE_FIELDS) + "\nA,0.5,200,10,1.0\nB,0.5000000001,150,10,1.0\n")
    args = ["classify", *small_flags(small_corpus, tmp_path / "out"), "--design-table", str(table), "--repeats", "1"]
    for thickness, name in (("0.5", "A"), ("0.5000000001", "B")):
        assert main([*args, "--thickness", thickness]) == EXIT_OK
        assert capsys.readouterr().out.startswith(f"design {name}, ")


@pytest.mark.parametrize("command", ["sweep", "scatter"])
def test_a_thickness_near_a_table_entry_is_not_that_entry(command, small_corpus, tmp_path, capsys):
    """0.5000000001 is not in the built-in table, so it cannot repeat the
    0.50 mm design's row; the message states it as given."""
    out = tmp_path / "out"
    assert main([command, *small_flags(small_corpus, out, command), "--thicknesses", "0.5,0.5000000001"]) == EXIT_CONFIG_ERROR
    rule = "unknown design: thickness 0.5000000001 mm not in table (0.35, 0.4, 0.45, 0.5 mm)"
    assert capsys.readouterr() == ("", f"config error: thicknesses: {rule}\n")
    assert not out.exists()


def test_an_unknown_label_token_names_the_key(tmp_path, capsys):
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "out"
    argv = ["extract", "--manifest", str(corpus / "manifest.csv"), "--out", str(out), "--labels", "healthy,nan", *TINY_FLAGS]
    assert main(argv) == EXIT_CONFIG_ERROR
    valid = ", ".join(state.value for state in MachineState)
    assert capsys.readouterr() == ("", f"config error: labels: unknown label token 'nan' (valid: {valid})\n")
    assert not out.exists()


def test_a_recipe_whose_sample_count_is_not_finite_is_a_config_error(tmp_path, capsys):
    """1e10 s at 1e300 Hz once ended in an OverflowError traceback (exit 1)."""
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text("fs_hz=1e300\nduration_s=1e10\nhealthy.tones=100:1.0\nball_crack.tones=60:0.5\n")
    assert main(["surrogate-gen", "--spec", str(recipe), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    expected = f"config error: {recipe}: duration_s=1e+10 at fs_hz=1e+300 is not a finite number of samples\n"
    assert capsys.readouterr() == ("", expected)
    assert not (tmp_path / "out").exists()


def test_a_synthesis_rate_whose_sample_count_is_not_finite_is_a_config_error(tmp_path, capsys):
    """A 3 s sine at 1e308 Hz once ended in an OverflowError traceback (exit 1)."""
    config = tmp_path / "run.cfg"
    config.write_text("fs_synth=1e308\n")
    assert main(["thought-experiment", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr() == ("", "config error: t_s=3s at fs_synth=1e+308 Hz is not a finite number of samples\n")
    assert sorted(tmp_path.iterdir()) == [config]


def test_a_recording_rate_whose_sample_count_is_not_finite_is_a_data_error(tmp_path, capsys):
    """A 3 s window at 1e308 Hz, declared by the manifest and the sidecar
    alike, once ended in an OverflowError traceback (exit 1)."""
    write_recording_f32(np.zeros(16), 1e308, tmp_path / "a.f32")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("path,label,bearing_type,load_w,fs_hz\na.f32,healthy,6204,0,1e308\n")
    assert main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "out")]) == EXIT_DATA_ERROR
    expected = "data error: a.f32: window of 3s at fs=1e+308 Hz is not a finite number of samples\n"
    assert capsys.readouterr() == ("", expected)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, rule",
    [
        ("healthy.tones=100:nan\n", "healthy: tone at 100.0 Hz: amplitude must be finite, got nan"),
        ("healthy.tones=100:1.0\nhealthy.noise_sigma=inf\n", "healthy: noise sigma must be non-negative and finite, got inf"),
        ("healthy.tones=100:1.0\nhealthy.noise_sigma=nan\n", "healthy: noise sigma must be non-negative and finite, got nan"),
        ("healthy.tones=100:1e308\n", "healthy: tones and noise can reach 1.1e+308 g, past the float32 range"),
        ("healthy.tones=100:1.0\nhealthy.noise_sigma=1e37\n", "healthy: tones and noise can reach 4e+38 g, past the float32 range"),
        ("healthy.tones=100:1.0\ninner_crack.noise_sigma=0.5\n", "inner_crack.noise_sigma is given without inner_crack.tones"),
    ],
    ids=["nan-amplitude", "infinite-noise", "nan-noise", "huge-amplitude", "huge-noise", "noise-without-tones"],
)
def test_a_recipe_value_that_is_not_finite_is_a_config_error(text, rule, tmp_path, capsys):
    """Each once exited 0: the first two after writing recordings that are
    not finite, the third after writing recordings without the noise asked
    for. So did the next two, after writing float32 recordings that overflow
    to infinity, and the last, after ignoring the noise of a state it wrote
    no recordings of."""
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text(f"fs_hz=8192\nduration_s=1\n{text}ball_crack.tones=60:0.5\n")
    assert main(["surrogate-gen", "--spec", str(recipe), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr() == ("", f"config error: {recipe}: {rule}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cause", ["r_ohm", "peak_gain"])
def test_a_feature_that_is_not_finite_is_a_data_error_before_writing(cause, tmp_path, capsys):
    """A load of 1e-320 Ohm or a peak gain of 1e200 V/g overflows every
    energy; each once wrote inf in every features.csv row and exited 0."""
    corpus = tiny_corpus(tmp_path)
    out = tmp_path / "out"
    argv = ["extract", "--manifest", str(corpus / "manifest.csv"), "--out", str(out), *TINY_FLAGS]
    if cause == "r_ohm":
        argv, r_ohm = [*argv, "--r-ohm", "1e-320"], "9.99989e-321"
    else:
        table = tmp_path / "designs.csv"
        table.write_text(f"{','.join(DESIGN_TABLE_FIELDS)}\npeh_0.50mm,0.5,200,10,1e200\n")
        argv, r_ohm = [*argv, "--design-table", str(table)], "1"
    assert main(argv) == EXIT_DATA_ERROR
    expected = f"data error: ball_crack_00.f32: a feature of peh_0.50mm at T=0.25s, r_ohm={r_ohm} is not finite\n"
    assert capsys.readouterr() == ("", expected)
    assert not out.exists()


@pytest.mark.parametrize("command", ["classify", "sweep"])
@pytest.mark.parametrize(
    "r_ohm, metric, start, end, valid",
    [
        ("1e-300", "raw", "features reach ", " in raw space, too large for finite kNN distances", ["--metric", "log"]),
        ("1e200", "raw", "features reach ", " in raw space, too small for kNN distances to tell apart", ["--r-ohm", "1e150"]),
        ("1e303", "log", "features fall to ", ", under the log floor 1e-300, too small for log space", ["--r-ohm", "1e297"]),
    ],
    ids=["overflow", "underflow", "log-floor"],
)
def test_features_too_large_for_knn_distances_are_a_config_error_before_writing(
    command, r_ohm, metric, start, end, valid, small_corpus, tmp_path, capsys
):
    """At 1e-300 Ohm the features are finite, near 1e299, but their squared
    distances overflow: every sweep cell once read 0.5 at exit 0. In log
    space the same features classify. At 1e200 Ohm, near 1e-201, every
    squared difference underflows, so every distance tied at 0; at 1e303 Ohm
    every feature lay under the log floor, so all were one value in log
    space: both once read 0.5 at exit 0. A neighbouring run stays valid."""
    out = tmp_path / "out"
    argv = [command, *small_flags(small_corpus, out, command), "--r-ohm", r_ohm, "--metric", metric]
    if command == "sweep":
        argv += ["--thicknesses", "0.5", "--t-values", str(SMALL_SEGMENT_S)]
    assert main(argv) == EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"config error: r_ohm={float(r_ohm):g}: {start}")
    assert err.endswith(end + "\n")
    assert not out.exists()
    assert main([*argv, *valid]) == EXIT_OK


@pytest.mark.parametrize("command", ["extract", "classify", "sweep", "scatter"])
def test_a_load_whose_product_with_the_rate_overflows_is_a_config_error_before_reading(command, tmp_path, monkeypatch, capsys):
    """The energies are divided by r_ohm * fs: at 1e305 Ohm and 8192 Hz that
    is inf, and every energy once read 0.0 at exit 0 (all-zero features,
    accuracy 0.5, a 0 J scatter)."""
    corpus, out = tiny_corpus(tmp_path), tmp_path / "out"

    def no_reading(*args, **kwargs):
        raise AssertionError("a recording was read")

    monkeypatch.setattr(pehfault.dataset, "load_recording", no_reading)
    assert main(tiny_argv(command, corpus, out, "--r-ohm", "1e305")) == EXIT_CONFIG_ERROR
    expected = "config error: r_ohm=1e+305 times the sampling rate 8192 Hz of ball_crack_00.f32 is not finite\n"
    assert capsys.readouterr() == ("", expected)
    assert not out.exists()


@pytest.mark.parametrize("kind", ["raw", "text", "empty", "malformed"])
def test_a_segment_count_no_file_can_hold_is_the_pipelines_data_error_before_the_split(kind, tmp_path, monkeypatch, capsys):
    """A raw file holds a quarter of its bytes in samples; a text file at most
    half of them, rounded up (a digit and a line break each, the last break
    optional). The first kept file that cannot hold the segments is read,
    alone and before the split is drawn, so that its error is the
    pipeline's: the reader's first (an empty or malformed text file's size
    bound once hid it), else the exact sample count."""
    corpus, out = tiny_corpus(tmp_path, text=kind != "raw"), tmp_path / "out"
    name = "ball_crack_00.f32" if kind == "raw" else "ball_crack_00.txt"
    rule = "insufficient duration: need 1000x0.5s = 4096000 samples, have 8192"
    if kind == "empty":
        (corpus / name).write_bytes(b"")
        rule = f"{corpus.resolve() / name}: recording holds no samples"
    if kind == "malformed":
        (corpus / name).write_bytes(b"0.5\n-")
        rule = f"{corpus.resolve() / name}:2: unparseable sample '-'"
    read, load = [], pehfault.dataset.load_recording

    def no_split(*args, **kwargs):
        raise AssertionError("the splits were drawn")

    monkeypatch.setattr(pehfault.dataset, "load_recording", lambda meta, root: read.append(meta.path) or load(meta, root))
    monkeypatch.setattr(pehfault.cli, "draw_splits", no_split)
    assert main(tiny_argv("classify", corpus, out, "--segments", "1000")) == EXIT_DATA_ERROR
    assert capsys.readouterr() == ("", f"data error: {name}: {rule}\n")
    assert read == [name]
    assert not out.exists()


def test_a_recording_removed_after_the_manifest_is_read_is_not_found_before_reading(tmp_path, monkeypatch, capsys):
    corpus = tiny_corpus(tmp_path)

    def load_then_remove(path):
        manifest = load_manifest(path)
        (corpus / "healthy_00.f32").unlink()
        return manifest

    monkeypatch.setattr(pehfault.cli, "load_manifest", load_then_remove)
    assert main(tiny_argv("classify", corpus, tmp_path / "out")) == EXIT_DATA_ERROR
    missing = corpus.resolve() / "healthy_00.f32"
    assert capsys.readouterr() == ("", f"data error: {corpus / 'manifest.csv'}: recording file not found: {missing}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, code, stderr",
    [
        (["--segment", "0.05", "--T", "0.05", "--repeats", "5", "--segments", "10000000"], EXIT_DATA_ERROR,
         "data error: ball_crack_00.f32: insufficient duration: need 10000000x0.05s = 25600000000 samples, have 512000\n"),
        (["--repeats", "1000000000"], EXIT_CONFIG_ERROR,
         "config error: n_repeats=1000000000 splits of 42 rows need 336000000000 bytes of indices, "
         "more than the {memory} bytes of physical memory\n"),
    ],
    ids=["segments", "repeats"],
)
def test_a_huge_segment_count_is_rejected_before_anything_is_allocated(flags, code, stderr, default_corpus, tmp_path):
    """10^7 segments of 0.05 s: the splits were once drawn before any
    recording's length was known, and their row labels alone need about
    5.6 GB. 10^9 repeats of the 42 rows: their split indices alone need
    336 GB. Under a 1 GiB address-space limit such a regression ends in a
    MemoryError (exit 1), not in the machine running out of memory."""
    argv = ["classify", "--manifest", str(default_corpus.root / "manifest.csv"), "--out", str(tmp_path / "out"), *flags]
    # At exec Linux charges a process the peak RSS of the image it replaces, so a child forked from this
    # test's large process reports this process's peak. A small interpreter forks the command instead,
    # and prints its exit code and its own peak in KiB, read with wait4 (RUSAGE_CHILDREN sums every child).
    peak = ("import os, sys; pid = os.fork() or os.execv(sys.executable, [sys.executable, *sys.argv[1:]]); "
            "_, status, usage = os.wait4(pid, 0); print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")
    done = subprocess.run(
        [sys.executable, "-c", peak, "-m", "pehfault", *argv], env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True, text=True, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )
    exit_code, peak_kib = map(int, done.stdout.split())
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert (exit_code, done.stderr) == (code, stderr.format(memory=memory))
    assert peak_kib < 64 * 1024
    assert not (tmp_path / "out").exists()


def test_a_thought_experiment_load_whose_product_with_fs_synth_overflows_is_a_config_error(capsys):
    """At 1e305 Ohm and 51.2 kHz every energy once read 0, and the faulty
    state was decided healthy."""
    assert main(["thought-experiment", "--r-ohm", "1e305"]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr() == ("", "config error: r_ohm=1e+305 times fs_synth=51200 Hz is not finite\n")


def test_a_load_whose_product_with_the_rate_overflows_is_a_data_error_of_build_feature_sets(tmp_path):
    manifest = load_manifest(tiny_corpus(tmp_path) / "manifest.csv")
    rule = "ball_crack_00.f32: r_ohm=1e+305 times the sampling rate 8192 Hz is not finite"
    with pytest.raises(DataError, match=f"^{re.escape(rule)}$"):
        build_feature_sets(manifest, [design_from_thickness(0.5)], 0.5, 2, [0.25], 1e305)


def test_a_large_load_and_an_all_zero_recording_stay_valid(tmp_path, capsys):
    """At 1e300 Ohm the energies are tiny but not 0, and extract and scatter,
    which take no kNN distances, write them; a silent recording's are exactly
    0. Both exit 0."""
    corpus = tiny_corpus(tmp_path)
    assert main(tiny_argv("extract", corpus, tmp_path / "large", "--r-ohm", "1e300")) == EXIT_OK
    features = np.loadtxt(tmp_path / "large" / "features.csv", delimiter=",", skiprows=1, usecols=(5, 6))
    assert (features > 0).all() and (features < 1e-290).all()
    assert main(tiny_argv("scatter", corpus, tmp_path / "large", "--r-ohm", "1e300")) == EXIT_OK
    assert main(["thought-experiment", "--r-ohm", "1e300"]) == EXIT_OK
    write_recording_f32(np.zeros(8192), 8192, corpus / "ball_crack_00.f32")
    assert main(tiny_argv("extract", corpus, tmp_path / "zero")) == EXIT_OK
    rows = (tmp_path / "zero" / "features.csv").read_text().splitlines()[1:]
    assert [row.split(",")[5:] for row in rows if row.startswith("ball_crack")] == [["0.0", "0.0"]] * 2


@pytest.mark.parametrize("fs", ["1e15", "1e20"])
def test_a_synthesis_rate_too_large_for_memory_is_a_config_error(fs, tmp_path, capsys):
    """3 s at 1e15 Hz is 24 PiB of sample indices, which once ended in a
    MemoryError traceback; at 1e20 Hz numpy's `Maximum allowed size
    exceeded` came out as the whole config error."""
    config = tmp_path / "run.cfg"
    config.write_text(f"fs_synth={fs}\n")
    assert main(["thought-experiment", "--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    expected = f"config error: fs_synth={float(fs):g} Hz over T=3s is more samples than memory holds\n"
    assert capsys.readouterr() == ("", expected)
    assert sorted(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("fs", ["1e15", "1e20"])
def test_a_recipe_too_large_for_memory_is_a_config_error(fs, tmp_path, capsys):
    """1 s at 1e15 Hz is 3.6 PiB of float32 samples, which once ended in a
    MemoryError traceback; at 1e20 Hz numpy raised ValueError."""
    recipe = tmp_path / "recipe.cfg"
    recipe.write_text(f"fs_hz={fs}\nduration_s=1\nhealthy.tones=100:1.0\nball_crack.tones=60:0.5\n")
    assert main(["surrogate-gen", "--spec", str(recipe), "--out", str(tmp_path / "out")]) == EXIT_CONFIG_ERROR
    expected = f"config error: {recipe}: fs_hz={float(fs):g} over duration_s=1 is more samples than memory holds\n"
    assert capsys.readouterr() == ("", expected)
    assert not (tmp_path / "out").exists()


def test_a_thought_experiment_energy_that_is_not_finite_is_a_config_error(capsys):
    """At 1e-320 Ohm the energies overflow; they once printed as inf at exit 0."""
    assert main(["thought-experiment", "--r-ohm", "1e-320"]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr() == ("", "config error: an energy at r_ohm=9.99989e-321 and T=3s is not finite\n")


@pytest.mark.parametrize(
    "r_ohm, rule",
    [
        ("1e-307", "peh_0.50mm: a mean energy or its distance to the diagonal is not finite"),
        ("2e-307", "peh_0.50mm: mean energy 7.31126e+306 J is too large to plot"),
    ],
)
def test_scatter_values_that_are_not_finite_are_a_config_error_before_writing(r_ohm, rule, default_corpus, tmp_path, capsys):
    """At 1e-307 Ohm a class mean overflows to inf; at 2e-307 Ohm the means
    are finite, but too large for finite SVG coordinates. Each once wrote
    inf or nan into the outputs at exit 0."""
    out = tmp_path / "out"
    argv = ["scatter", "--manifest", str(default_corpus.root / "manifest.csv"), "--out", str(out), "--r-ohm", r_ohm]
    assert main(argv) == EXIT_CONFIG_ERROR
    assert capsys.readouterr() == ("", f"config error: r_ohm={r_ohm}: {rule}\n")
    assert not out.exists()


RANGE = "give a rate, ratio or power out of floating-point range"
COSTS = "e_adc_per_sample_j=2e-09, e_tx_per_sample_j=1.6e-06 and bits_per_sample=16"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--fs-raw", "1e300", "--T", "1e300"], f"fs_raw_hz=1e+300, period_s=1e+300, {COSTS} {RANGE}"),
        (["--T", "1e-320"], f"fs_raw_hz=51200, period_s=9.99989e-321, {COSTS} {RANGE}"),
        (["--fs-raw", "1e-200", "--T", "1e-200"], f"fs_raw_hz=1e-200, period_s=1e-200, {COSTS} {RANGE}"),
        (["--e-adc", "1e308", "--e-tx", "1e308"], "e_adc_per_sample_j + e_tx_per_sample_j must be finite, got inf"),
        (
            ["--e-adc", "1e308"],
            f"fs_raw_hz=51200, period_s=3, e_adc_per_sample_j=1e+308, e_tx_per_sample_j=1.6e-06 and bits_per_sample=16 {RANGE}",
        ),
        (
            ["--e-tx", "1e308"],
            f"fs_raw_hz=51200, period_s=3, e_adc_per_sample_j=2e-09, e_tx_per_sample_j=1e+308 and bits_per_sample=16 {RANGE}",
        ),
        (
            ["--bits", str(10**307)],
            f"fs_raw_hz=51200, period_s=3, e_adc_per_sample_j=2e-09, e_tx_per_sample_j=1.6e-06 and bits_per_sample=1e+307 {RANGE}",
        ),
        (["--bits", str(10**400)], f"bits_per_sample must be non-negative and finite, got {10**400}"),
    ],
    ids=["huge-rate-and-period", "tiny-period", "tiny-rate-and-period", "cost-sum", "e-adc", "e-tx", "bits", "bits-past-float"],
)
def test_an_energy_report_value_out_of_range_is_a_config_error(argv, message, capsys):
    """Finite inputs whose sampling reduction (1e600, or 1e-400, which is 0),
    feature rate (1e320 Hz), per-sample cost (2e308 J), power or bit rate
    (5.12e311) leaves the float range once printed inf at exit 0, or failed
    with `math domain error`; a cost's overflow once named only fs_raw_hz and
    period_s, and a bit count past the float range (a 401-digit --bits) once
    ended in an OverflowError traceback (exit 1)."""
    assert main(["energy-report", *argv]) == EXIT_CONFIG_ERROR
    assert capsys.readouterr() == ("", f"config error: {message}\n")
