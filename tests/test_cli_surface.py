"""The command-line surface: each subcommand's option strings, and the exact
message and exit code of one bad value given as a flag or as a config key."""

import argparse
from dataclasses import fields

import pytest


from pehfault.cli import EXIT_CONFIG_ERROR, RunConfig, build_parser, main
from pehfault.dataset import MachineState

COMMON = {"--config", "--out", "--seed"}
EXTRACT = {"--manifest", "--design-table", "--labels", "--bearing-type", "--load-w", "--T", "--r-ohm", "--segment", "--segments", "--thickness"}
CLASSIFY = EXTRACT | {"--k", "--repeats", "--train-fraction", "--metric"}
OPTIONS = {
    "thought-experiment": {"--f-healthy", "--f-faulty", "--design-a", "--design-b", "--T", "--r-ohm", "--design-table"},
    "extract": EXTRACT,
    "classify": CLASSIFY,
    "sweep": CLASSIFY - {"--thickness", "--T"} | {"--thicknesses", "--t-values"},
    "scatter": EXTRACT - {"--thickness"} | {"--thicknesses", "--fault-label"},
    "energy-report": {"--fs-raw", "--T", "--e-adc", "--e-tx", "--bits"},
    "surrogate-gen": {"--spec"},
}


def option_strings(command: str) -> set[str]:
    (subparsers,) = (action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    return {option for action in subparsers.choices[command]._actions for option in action.option_strings}


def test_every_subcommand_is_listed():
    (subparsers,) = (action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(OPTIONS)


@pytest.mark.parametrize("command", OPTIONS)
def test_each_subcommand_keeps_its_option_strings(command):
    assert option_strings(command) == {"-h", "--help"} | COMMON | OPTIONS[command]


@pytest.mark.parametrize("command", OPTIONS)
def test_every_option_is_the_flag_of_a_table_field_that_names_its_subcommand(command):
    """Besides help and --config, each option is declared once, in the
    RunConfig table: the flag of the field its value is stored under, and
    that field lists the subcommand."""
    (subparsers,) = (action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction))
    table = {f.name: f.metadata for f in fields(RunConfig)}
    for action in subparsers.choices[command]._actions:
        if set(action.option_strings) & {"-h", "--help", "--config"}:
            continue
        assert action.option_strings == [table[action.dest]["flag"]], action.option_strings
        assert command in table[action.dest]["commands"], action.option_strings


def config_error(message):
    return f"config error: {message}"


def argparse_error(command, message):
    return f"pehfault {command}: error: argument {message}"


# One bad value per case: (command, flag, config key, value, the stderr line
# of the flag, the stderr line of the config key). A flag of None is a key
# with no flag; `{path}` is the config file.
BAD_VALUES = [
    ("extract", "--thickness", "thickness_mm", "nan", *[config_error("thickness_mm must be finite, got nan")] * 2),
    (
        "extract",
        "--thickness",
        "thickness_mm",
        "abc",
        argparse_error("extract", "--thickness: invalid float value: 'abc'"),
        config_error("{path}:1: could not convert string to float: 'abc'"),
    ),
    (
        "classify",
        "--thickness",
        "thickness_mm",
        "0.33",
        *[config_error("thickness_mm: unknown design: thickness 0.33 mm not in table (0.35, 0.4, 0.45, 0.5 mm)")] * 2,
    ),
    ("sweep", "--thicknesses", "thicknesses", "0.5,nan", *[config_error("thicknesses must be finite, got (0.5, nan)")] * 2),
    (
        "sweep",
        "--thicknesses",
        "thicknesses",
        "0",
        *[config_error("thicknesses: unknown design: thickness 0 mm not in table (0.35, 0.4, 0.45, 0.5 mm)")] * 2,
    ),
    (
        "scatter",
        "--thicknesses",
        "thicknesses",
        "0.5,0.33",
        *[config_error("thicknesses: unknown design: thickness 0.33 mm not in table (0.35, 0.4, 0.45, 0.5 mm)")] * 2,
    ),
    ("scatter", "--thicknesses", "thicknesses", ",", *[config_error("--thicknesses is empty: give at least one design thickness")] * 2),
    (
        "sweep",
        "--thicknesses",
        "thicknesses",
        "0.5,x",
        argparse_error("sweep", "--thicknesses: could not convert string to float: 'x'"),
        config_error("{path}:1: could not convert string to float: 'x'"),
    ),
    ("extract", "--T", "t_s", "inf", *[config_error("t_s must be finite, got inf")] * 2),
    ("classify", "--T", "t_s", "0", *[config_error("t_s must be positive, got 0.0")] * 2),
    ("thought-experiment", "--T", "t_s", "-1", *[config_error("t_s must be positive, got -1.0")] * 2),
    ("energy-report", "--T", "t_s", "nan", *[config_error("t_s must be finite, got nan")] * 2),
    (
        "energy-report",
        "--T",
        "t_s",
        "abc",
        argparse_error("energy-report", "--T: invalid float value: 'abc'"),
        config_error("{path}:1: could not convert string to float: 'abc'"),
    ),
    (
        "sweep",
        "--t-values",
        "t_values",
        "3, y",
        argparse_error("sweep", "--t-values: could not convert string to float: 'y'"),
        config_error("{path}:1: could not convert string to float: 'y'"),
    ),
    ("sweep", "--t-values", "t_values", "1,nan", *[config_error("t_values must be finite, got (1.0, nan)")] * 2),
    ("sweep", "--t-values", "t_values", "3,-1", *[config_error("t_values must be positive, got (3.0, -1.0)")] * 2),
    ("sweep", "--t-values", "t_values", ",", *[config_error("--t-values is empty: give at least one integration period")] * 2),
    ("extract", "--r-ohm", "r_ohm", "nan", *[config_error("r_ohm must be finite, got nan")] * 2),
    ("thought-experiment", "--r-ohm", "r_ohm", "0", *[config_error("r_ohm must be positive, got 0.0")] * 2),
    ("scatter", "--segment", "segment_s", "inf", *[config_error("segment_s must be finite, got inf")] * 2),
    ("extract", "--segment", "segment_s", "-1", *[config_error("segment_s must be positive, got -1.0")] * 2),
    ("extract", "--segments", "segments_per_recording", "0", *[config_error("segments_per_recording must be >= 1, got 0")] * 2),
    (
        "extract",
        "--segments",
        "segments_per_recording",
        "1.5",
        argparse_error("extract", "--segments: invalid int value: '1.5'"),
        config_error("{path}:1: invalid literal for int() with base 10: '1.5'"),
    ),
    ("classify", "--train-fraction", "train_fraction", "1", *[config_error("train fraction must lie in (0, 1)")] * 2),
    ("sweep", "--repeats", "n_repeats", "0", *[config_error("n_repeats must be >= 1, got 0")] * 2),
    ("classify", "--k", "k", "0", *[config_error("k must be >= 1, got 0")] * 2),
    (
        "classify",
        "--k",
        "k",
        "abc",
        argparse_error("classify", "--k: invalid int value: 'abc'"),
        config_error("{path}:1: invalid literal for int() with base 10: 'abc'"),
    ),
    (
        "classify",
        "--metric",
        "metric",
        "foo",
        argparse_error("classify", "--metric: invalid choice: 'foo' (choose from 'raw', 'log')"),
        config_error("metric must be one of ('raw', 'log')"),
    ),
    ("classify", "--seed", "seed", "-1", *[config_error("seed must be non-negative, got -1")] * 2),
    (
        "surrogate-gen",
        "--seed",
        "seed",
        "x",
        argparse_error("surrogate-gen", "--seed: invalid int value: 'x'"),
        config_error("{path}:1: invalid literal for int() with base 10: 'x'"),
    ),
    ("extract", "--load-w", "load_w", "-2", *[config_error("load_w must be a load in Watts, or -1 for any load, got -2")] * 2),
    (
        "scatter",
        "--load-w",
        "load_w",
        "1.5",
        argparse_error("scatter", "--load-w: invalid int value: '1.5'"),
        config_error("{path}:1: invalid literal for int() with base 10: '1.5'"),
    ),
    (
        "scatter",
        "--fault-label",
        "fault_label",
        "bogus",
        *[config_error(f"fault_label: unknown label token 'bogus' (valid: {', '.join(state.value for state in MachineState)})")] * 2,
    ),
    (
        "scatter",
        "--fault-label",
        "fault_label",
        "healthy",
        *[config_error("--fault-label must name a fault state, not healthy, which it is compared with")] * 2,
    ),
    (
        "thought-experiment",
        "--f-healthy",
        "f_healthy",
        "-1",
        *[config_error("f_healthy=-1 Hz must lie in (0, fs_synth/2) = (0, 25600) to avoid aliasing")] * 2,
    ),
    (
        "thought-experiment",
        "--f-faulty",
        "f_faulty",
        "x",
        argparse_error("thought-experiment", "--f-faulty: invalid float value: 'x'"),
        config_error("{path}:1: could not convert string to float: 'x'"),
    ),
    (
        "thought-experiment",
        "--design-a",
        "design_a",
        "0.33",
        *[config_error("design_a: unknown design: thickness 0.33 mm not in table (0.35, 0.4, 0.45, 0.5 mm)")] * 2,
    ),
    (
        "thought-experiment",
        "--design-b",
        "design_b",
        "1e308",
        *[config_error("design_b: unknown design: thickness 1e+308 mm not in table (0.35, 0.4, 0.45, 0.5 mm)")] * 2,
    ),
    ("energy-report", "--e-adc", "e_adc_per_sample_j", "-1", *[config_error("e_adc_per_sample_j must be non-negative and finite, got -1.0")] * 2),
    ("energy-report", "--e-tx", "e_tx_per_sample_j", "inf", *[config_error("e_tx_per_sample_j must be non-negative and finite, got inf")] * 2),
    ("energy-report", "--bits", "bits_per_sample", "-1", *[config_error("bits_per_sample must be non-negative and finite, got -1")] * 2),
    (
        "energy-report",
        "--bits",
        "bits_per_sample",
        "8.5",
        argparse_error("energy-report", "--bits: invalid int value: '8.5'"),
        config_error("{path}:1: invalid literal for int() with base 10: '8.5'"),
    ),
    ("energy-report", "--fs-raw", "fs_raw_hz", "0", *[config_error("fs_raw_hz must be positive and finite, got 0.0")] * 2),
    ("energy-report", "--fs-raw", "fs_raw_hz", "nan", *[config_error("fs_raw_hz must be positive and finite, got nan")] * 2),
    ("thought-experiment", None, "stratified", "maybe", None, config_error("{path}:1: expected a boolean, got 'maybe'")),
    ("thought-experiment", None, "fs_synth", "0", None, config_error("fs_synth must be positive, got 0.0")),
    ("thought-experiment", None, "fs_synth", "nan", None, config_error("fs_synth must be finite, got nan")),
    (
        "thought-experiment",
        None,
        "fs_synth",
        "1000",
        None,
        config_error("fs_synth=1000 Hz for design_a=0.5 mm (peh_0.50mm): sampling rate too low: 1000.0 Hz < 20 * f0 = 4000 Hz"),
    ),
    (
        "thought-experiment",
        None,
        "fs_synth",
        "fast",
        None,
        config_error("{path}:1: could not convert string to float: 'fast'"),
    ),
]


def run(argv, capsys):
    """main's exit code (argparse exits rather than returns) and its output."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr()


# Each case through each route it has: a key without a flag only as a key.
ROUTES = [(route, *case) for case in BAD_VALUES for route in ("flag", "config") if route == "config" or case[1]]


@pytest.mark.parametrize(
    "route, command, flag, key, value, flag_line, key_line",
    ROUTES,
    ids=[f"{route}-{command}-{key}={value}" for route, command, _, key, value, *_ in ROUTES],
)
def test_one_bad_value_gives_the_same_line_and_exit_code(route, command, flag, key, value, flag_line, key_line, tmp_path, capsys):
    """Checked before any input is read: the flag's value is rejected by the
    parser or by the parameter's check, the config key's by the config reader
    or by the same check; either way exit 2 with one line naming the cause,
    after the parser's usage for a parser error, and nothing is written."""
    out = tmp_path / "out"
    if route == "flag":
        argv, expected = [command, flag, value], flag_line
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"{key}={value}\n")
        argv, expected = [command, "--config", str(path)], key_line.format(path=path)
    code, (stdout, stderr) = run([*argv, "--out", str(out)], capsys)
    assert code == EXIT_CONFIG_ERROR
    assert stdout == ""
    if expected.startswith("config error: "):
        assert stderr == expected + "\n"
    else:
        assert stderr.startswith("usage: ") and stderr.splitlines()[-1] == expected
    assert not out.exists()


# A value of each demo parameter that changes its command's stdout.
DEMO_VALUES = [
    ("thought-experiment", "--f-healthy", "f_healthy", "180"),
    ("thought-experiment", "--f-faulty", "f_faulty", "180"),
    ("thought-experiment", "--design-a", "design_a", "0.45"),
    ("thought-experiment", "--design-b", "design_b", "0.35"),
    ("energy-report", "--e-adc", "e_adc_per_sample_j", "0"),
    ("energy-report", "--e-tx", "e_tx_per_sample_j", "0"),
    ("energy-report", "--bits", "bits_per_sample", "8"),
    ("energy-report", "--fs-raw", "fs_raw_hz", "4"),
    ("energy-report", "--T", "t_s", "0.25"),
]


@pytest.mark.parametrize("command, flag, key, value", DEMO_VALUES, ids=[key for _, _, key, _ in DEMO_VALUES])
def test_a_demo_key_gives_the_same_stdout_as_its_flag(command, flag, key, value, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(f"{key}={value}\n")
    by_flag = run([command, flag, value], capsys)
    assert by_flag[0] == 0 and by_flag[1].err == ""
    assert run([command, "--config", str(path)], capsys) == by_flag
    assert run([command], capsys) != by_flag
