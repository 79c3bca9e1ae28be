"""The command-line contract as one property, over `cli.main` on the tiny
corpus: `extract`, `classify`, `sweep` and `scatter`, each given one to
three of its own flags (taken from the `commands` of the RunConfig table) at
special values. The exit is 0, 2 or 3 and nothing escapes. A failure prints
one line naming a parameter (its flag, key or what it is) or a file, after
argparse's usage for a value its parser rejects, and leaves no output file
new or changed.

The values are 0, -1, 5e-324, 1e308, nan, inf, a non-ASCII token and, for a
list, a repeated entry. Counts parse only at 0 and -1, so no draw asks for
more repeats or segments than the base run's 2, and fs_synth is not a flag:
every example stays within MEMORY_BUDGET bytes.
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
PATHS = ("--manifest", "--design-table")
OUTPUTS = ("features.csv", "classification.csv", "sweep.csv", "scatter.csv", "scatter.svg")
MEMORY_BUDGET = 32 << 20
# Each parameter by its flag (without the dashes), its key, its key in words and what one value is.
NAMES = {
    name
    for f in fields(RunConfig)
    for name in ((f.metadata["flag"] or "").lstrip("-"), f.name, f.name.replace("_", " "), f.metadata["what"])
    if name
}


@st.composite
def runs(draw):
    """A command, and one to three of its flags, each with a special value."""
    command = draw(st.sampled_from(FEATURES))
    params = [f for f in fields(RunConfig) if f.metadata["flag"] and command in f.metadata["commands"]]
    drawn = draw(st.lists(st.sampled_from(params), min_size=1, max_size=3))
    return command, [(f.metadata["flag"], draw(st.sampled_from(VALUES + REPEATED.get(f.name, [])))) for f in drawn]


def snapshot(root: Path) -> dict:
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    return tiny_corpus(tmp_path_factory.mktemp("contract"))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(run=runs())
def test_a_flag_at_a_special_value_exits_cleanly(run, corpus, capsys):
    command, drawn = run
    knn = ["--repeats", "2", "--k", "1"] if command in ("classify", "sweep") else []
    argv = tiny_argv(command, corpus, "out", *knn, *(token for pair in drawn for token in pair))
    with tempfile.TemporaryDirectory(dir=corpus.parent) as scratch:
        scratch = Path(scratch)
        (scratch / "out").mkdir()
        for name in OUTPUTS:  # an earlier run's outputs, which a failure must leave as they are
            (scratch / "out" / name).write_text("earlier\n")
        before = snapshot(scratch), snapshot(corpus)
        capsys.readouterr()
        cwd = os.getcwd()
        os.chdir(scratch)  # a relative --out lands in the scratch directory
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
        assert code in (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_DATA_ERROR), (argv, err)
        assert peak <= MEMORY_BUDGET, argv
        if code != EXIT_OK:
            assert (snapshot(scratch), snapshot(corpus)) == before, argv
            *usage, line = err.splitlines()
            if usage:
                assert usage[0].startswith(f"usage: pehfault {command}"), err
                assert any(line.startswith(f"pehfault {command}: error: argument {flag}: ") for flag, _ in drawn), err
            else:
                assert line.startswith(("config error: ", "data error: ")), err
                files = {str(corpus / "manifest.csv")} | {path.name for path in corpus.iterdir()}
                files |= {value for flag, value in drawn if flag in PATHS}
                assert any(re.search(rf"(^|\W){re.escape(name)}(\W|$)", line) for name in NAMES | files), line
