"""The command-line contract as one property, over `cli.main` on the tiny
corpus: `thought-experiment`, `extract`, `classify`, `sweep`, `scatter` and
`energy-report`, each given one to three of its own parameters (taken from
the `commands` of the RunConfig table, plus the keys that no flag sets) at
special values, each as its flag or as its key in a `--config` file. The
exit is 0, 2 or 3 and nothing escapes. A failure prints one line naming one
of the command's own parameters (its flag, key or what it is) or a file,
after argparse's usage for a flag's value its parser rejects, and leaves no
output file new or changed.

The values are 0, -1, 5e-324, 1e308, nan, inf, a non-ASCII token and, for a
list, a repeated entry. Counts parse only at 0 and -1, so no draw asks for
more repeats or segments than the base run's 2, and fs_synth and T at 1e308
are rejected before any sample is made: every example stays within
MEMORY_BUDGET bytes.

`surrogate-gen` has a property of its own, over a recipe small enough that
an exit-0 draw writes its whole corpus (one 0.1 s recording per class at
8192 Hz): up to three recipe keys and up to two of its parameters
(`--spec`, `--seed`, `--out` and the keys no flag sets) at the same values. A failure names a parameter, a recipe key or a file and writes
nothing; a success writes the corpus the recipe describes.
"""

import os
import re
import tempfile
import tracemalloc
from dataclasses import fields
from pathlib import Path

import pytest
import scipy.signal  # noqa: F401  imported here, so that no example's memory peak counts the import
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pehfault.cli import EXIT_CONFIG_ERROR, EXIT_DATA_ERROR, EXIT_OK, FEATURES, RunConfig, main
from pehfault.dataset import RECIPE_KEYS, load_manifest
from tests.conftest import tiny_argv, tiny_corpus

VALUES = ["0", "-1", "5e-324", "1e308", "nan", "inf", "ü"]
# A list's own value: the base run's entry, repeated.
REPEATED = {"thicknesses": ["0.5,0.5"], "t_values": ["0.25,0.25"], "labels": ["healthy,healthy"]}
COMMANDS = ("thought-experiment", *FEATURES, "energy-report")
PATHS = ("manifest", "design_table")
CONFIG = "run.cfg"
OUTPUTS = ("features.csv", "classification.csv", "sweep.csv", "scatter.csv", "scatter.svg")
MEMORY_BUDGET = 32 << 20


def own_params(command: str) -> list:
    """The parameters a command takes: those whose flag it has, and the keys
    that no flag sets."""
    return [f for f in fields(RunConfig) if command in f.metadata["commands"] or not f.metadata["flag"]]


def own_names(command: str) -> set:
    """Each of the command's parameters by its flag (without the dashes), its
    key, its key in words and what one value is."""
    return {
        name
        for f in own_params(command)
        for name in ((f.metadata["flag"] or "").lstrip("-"), f.name, f.name.replace("_", " "), f.metadata["what"])
        if name
    }


@st.composite
def runs(draw):
    """A command, and one to three of its parameters, each with a special
    value and given as its flag or, when drawn so or when it has no flag, as
    its key in the config file."""
    command = draw(st.sampled_from(COMMANDS))
    drawn = draw(st.lists(st.sampled_from(own_params(command)), min_size=1, max_size=3, unique_by=lambda f: f.name))
    values = [draw(st.sampled_from(VALUES + REPEATED.get(f.name, []))) for f in drawn]
    as_key = [not f.metadata["flag"] or draw(st.booleans()) for f in drawn]
    return command, [(f.metadata["flag"], f.name, value, by_key) for f, value, by_key in zip(drawn, values, as_key)]


def snapshot(root: Path) -> dict:
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return tiny_corpus(tmp_path_factory.mktemp("contract"))


def run_in(scratch: Path, argv: list, capsys) -> tuple:
    """`main(argv)` run in `scratch`: its exit code, its stderr and its
    traced memory peak."""
    capsys.readouterr()
    cwd = os.getcwd()
    os.chdir(scratch)  # a relative --out or input file is in the scratch directory
    tracemalloc.start()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects a value its parser cannot read
        code = exc.code
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        os.chdir(cwd)
    return code, capsys.readouterr().err, peak


def assert_failure_names_its_cause(command, drawn, err, names, context):
    """After argparse's usage, the line names the drawn flag; otherwise it is
    one config or data error line naming one of `names`."""
    *usage, line = err.splitlines()
    if usage:
        assert usage[0].startswith(f"usage: pehfault {command}"), err
        assert any(line.startswith(f"pehfault {command}: error: argument {flag}: ") for flag, *_ in drawn), err
    else:
        assert line.startswith(("config error: ", "data error: ")), err
        assert any(re.search(rf"(^|\W){re.escape(name)}(\W|$)", line) for name in names), (context, line)


def place_run(argv: list, drawn: list) -> tuple:
    """The drawn parameters added to the base run's argv, each as its flag or
    as its key in the config file; the config file's lines."""
    for flag, _, _, by_key in drawn:
        if by_key and flag in argv:  # the base run's flag would override the key
            i = argv.index(flag)
            del argv[i : i + 2]
    argv += [token for flag, _, value, by_key in drawn if not by_key for token in (flag, value)]
    lines = [f"{name}={value}\n" for _, name, value, by_key in drawn if by_key]
    if lines:
        argv += ["--config", CONFIG]
    return argv, lines


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(run=runs())
def test_a_parameter_at_a_special_value_exits_cleanly(run, corpus, capsys):
    command, drawn = run
    knn = ["--repeats", "2", "--k", "1"] if command in ("classify", "sweep") else []
    argv = tiny_argv(command, corpus, "out", *knn) if command in FEATURES else [command, "--out", "out"]
    argv, lines = place_run(argv, drawn)
    with tempfile.TemporaryDirectory(dir=corpus.parent) as scratch:
        scratch = Path(scratch)
        (scratch / "out").mkdir()
        for name in OUTPUTS:  # an earlier run's outputs, which a failure must leave as they are
            (scratch / "out" / name).write_text("earlier\n")
        (scratch / CONFIG).write_text("".join(lines))
        before = snapshot(scratch), snapshot(corpus)
        code, err, peak = run_in(scratch, argv, capsys)
        assert code in (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_DATA_ERROR), (argv, lines, err)
        assert peak <= MEMORY_BUDGET, (argv, lines)
        if code != EXIT_OK:
            assert (snapshot(scratch), snapshot(corpus)) == before, (argv, lines)
            files = {str(corpus / "manifest.csv"), CONFIG} | {path.name for path in corpus.iterdir()}
            files |= {value for _, name, value, _ in drawn if name in PATHS}
            assert_failure_names_its_cause(command, drawn, err, own_names(command) | files, (argv, lines))


# The base recipe: an exit-0 draw writes one 0.1 s recording per class at 8192 Hz.
RECIPE = {"count_per_class": "1", "fs_hz": "8192", "duration_s": "0.1", "healthy.tones": "200:1.0", "ball_crack.tones": "150:1.0"}
SPEC = "recipe.cfg"  # a name that matches no parameter: `spec` would match `recipe.spec`
# A tone list's own values: a NaN or huge amplitude, a tone at or past fs/2, a tone given twice.
TONES = ["200:nan", "200:1e308", "4096:1", "1e308:1", "200:1,200:1"]
EARLIER_CORPUS = ("corpus/manifest.csv", "corpus/healthy_00.f32", "corpus/healthy_00.f32.hdr")


@st.composite
def recipe_runs(draw):
    """The base recipe with up to three keys set to special values, and up to
    two of surrogate-gen's parameters (`--spec`, `--seed`, `--out` and the
    keys that no flag sets), each as its flag or its key in the config file."""
    keys = draw(st.lists(st.sampled_from(sorted(RECIPE_KEYS)), max_size=3, unique=True))
    recipe = RECIPE | {key: draw(st.sampled_from(VALUES + TONES * key.endswith(".tones"))) for key in keys}
    params = draw(st.lists(st.sampled_from(own_params("surrogate-gen")), max_size=2, unique_by=lambda f: f.name))
    # The recipe's path given as the config key, or a special value as the flag or the key.
    values = [draw(st.sampled_from(VALUES + [SPEC] * (f.name == "surrogate_spec"))) for f in params]
    as_key = [not f.metadata["flag"] or draw(st.booleans()) for f in params]
    return recipe, keys, [(f.metadata["flag"], f.name, value, by_key) for f, value, by_key in zip(params, values, as_key)]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(run=recipe_runs())
def test_a_recipe_key_or_parameter_at_a_special_value_exits_cleanly(run, tmp_path, capsys):
    recipe, keys, drawn = run
    argv, lines = place_run(["surrogate-gen", "--spec", SPEC, "--out", "out"], drawn)
    with tempfile.TemporaryDirectory(dir=tmp_path) as scratch:
        scratch = Path(scratch)
        (scratch / SPEC).write_text("".join(f"{key}={value}\n" for key, value in recipe.items()))
        (scratch / CONFIG).write_text("".join(lines))
        for name in EARLIER_CORPUS:  # an earlier run's corpus, which a failure must leave as it is
            (scratch / "out" / name).parent.mkdir(parents=True, exist_ok=True)
            (scratch / "out" / name).write_text("earlier\n")
        before = snapshot(scratch)
        code, err, peak = run_in(scratch, argv, capsys)
        context = (argv, lines, recipe)
        assert code in (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_DATA_ERROR), (context, err)
        assert peak <= MEMORY_BUDGET, context
        if code != EXIT_OK:
            assert snapshot(scratch) == before, context
            # A recipe key by its name, in words, by its state or by its line in the recipe.
            names = own_names("surrogate-gen") | {CONFIG} | {value for _, name, value, _ in drawn if name == "surrogate_spec"}
            names |= {name for key in keys for name in (key, key.replace("_", " "), key.partition(".")[0])}
            names |= {f"{SPEC}:{list(recipe).index(key) + 1}" for key in keys}
            assert_failure_names_its_cause("surrogate-gen", drawn, err, names, context)
        else:  # the whole corpus: one recording per class, each of the recipe's length
            out = next((value for _, name, value, _ in drawn if name == "out_dir"), "out")
            manifest = load_manifest(scratch / out / "corpus" / "manifest.csv")
            assert len(manifest.entries) == sum(key.endswith(".tones") for key in recipe)
            assert {key.partition(".")[0] for key in recipe if "." in key} == {meta.label.value for meta in manifest.entries}
            for meta in manifest.entries:
                assert (manifest.root / meta.path).stat().st_size == 4 * round(meta.fs * float(recipe["duration_s"]))
