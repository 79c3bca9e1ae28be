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


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(run=runs())
def test_a_parameter_at_a_special_value_exits_cleanly(run, corpus, capsys):
    command, drawn = run
    knn = ["--repeats", "2", "--k", "1"] if command in ("classify", "sweep") else []
    argv = tiny_argv(command, corpus, "out", *knn) if command in FEATURES else [command, "--out", "out"]
    for flag, _, _, by_key in drawn:
        if by_key and flag in argv:  # the base run's flag would override the key
            i = argv.index(flag)
            del argv[i : i + 2]
    argv += [token for flag, _, value, by_key in drawn if not by_key for token in (flag, value)]
    lines = [f"{name}={value}\n" for _, name, value, by_key in drawn if by_key]
    if lines:
        argv += ["--config", CONFIG]
    with tempfile.TemporaryDirectory(dir=corpus.parent) as scratch:
        scratch = Path(scratch)
        (scratch / "out").mkdir()
        for name in OUTPUTS:  # an earlier run's outputs, which a failure must leave as they are
            (scratch / "out" / name).write_text("earlier\n")
        (scratch / CONFIG).write_text("".join(lines))
        before = snapshot(scratch), snapshot(corpus)
        capsys.readouterr()
        cwd = os.getcwd()
        os.chdir(scratch)  # a relative --out or config file is in the scratch directory
        tracemalloc.start()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value its parser cannot read
            code = exc.code
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            os.chdir(cwd)
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_DATA_ERROR), (argv, lines, err)
        assert peak <= MEMORY_BUDGET, (argv, lines)
        if code != EXIT_OK:
            assert (snapshot(scratch), snapshot(corpus)) == before, (argv, lines)
            *usage, line = err.splitlines()
            if usage:
                assert usage[0].startswith(f"usage: pehfault {command}"), err
                assert any(line.startswith(f"pehfault {command}: error: argument {flag}: ") for flag, *_ in drawn), err
            else:
                assert line.startswith(("config error: ", "data error: ")), err
                files = {str(corpus / "manifest.csv"), CONFIG} | {path.name for path in corpus.iterdir()}
                files |= {value for _, name, value, _ in drawn if name in PATHS}
                assert any(re.search(rf"(^|\W){re.escape(name)}(\W|$)", line) for name in own_names(command) | files), (argv, lines, line)
