"""Mutated input files through `cli.main`: one property per reader.

Each starts from a valid file (the corpus `surrogate-gen` writes, its recipe,
a config and a design table that run on it), mutates it once, and runs the
command that reads it. The exit is 0, 2 or 3 and nothing escapes. A failed
run writes nothing. When the reader itself rejects the mutated file, the
command fails with the reader's message, which names the file; a file the
reader accepts may still fail a later check (a sampling rate the sidecar
contradicts, a config value out of range), which names its parameter or file.
The recipe's reader includes the recipe's own rules, and the design table's
the lookup of the thickness in use.
"""

import os
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pehfault.cli import EXIT_CONFIG_ERROR, EXIT_DATA_ERROR, EXIT_OK, RunConfig, _designs, main, parse_config_file
from pehfault.dataset import (
    DESIGN_TABLE_FIELDS,
    MachineState,
    RecordingMeta,
    csv_text,
    load_manifest,
    load_recording,
    load_surrogate_spec,
)
from pehfault.errors import ConfigError, DataError
from pehfault.harvester import DEFAULT_DESIGNS
from tests.conftest import TINY_FLAGS, tiny_corpus

# Small numbers, so that swapping two tokens cannot ask surrogate-gen for a
# large corpus: at most a few hundred recordings of a few thousand samples.
RECIPE = "count_per_class=1\nfs_hz=512\nduration_s=1\nhealthy.tones=100:1.0\nball_crack.tones=60:0.5\nseed=3\n"
TOKEN = re.compile(rb"[^,=:\n]+")
REPLACEMENTS = [b"nan", b"inf", b"-inf", b"1e400", b"", b"\xff", b"\x00"]
EXAMPLES = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture]
)


@st.composite
def mutation(draw, content: bytes) -> bytes:
    """One edit of `content`: swap two tokens, replace one by a special
    value, misspell one, insert a byte, repeat or blank a line, or cut the
    file short."""
    tokens = [m.span() for m in TOKEN.finditer(content)]
    kind = draw(st.sampled_from(["swap", "replace", "misspell", "insert", "repeat", "blank", "truncate"]))
    if kind == "swap":
        (a0, a1), (b0, b1) = sorted(draw(st.lists(st.sampled_from(tokens), min_size=2, max_size=2, unique=True)))
        return content[:a0] + content[b0:b1] + content[a1:b0] + content[a0:a1] + content[b1:]
    if kind in ("replace", "misspell"):
        start, end = draw(st.sampled_from(tokens))
        if kind == "replace":
            new = draw(st.sampled_from(REPLACEMENTS))
        else:
            i = draw(st.integers(start, end - 1))
            new = content[start:i] + draw(st.sampled_from([b"", content[i : i + 1] * 2, b"x"])) + content[i + 1 : end]
        return content[:start] + new + content[end:]
    if kind == "insert":
        at = draw(st.integers(0, len(content)))
        return content[:at] + draw(st.sampled_from([b"\xff", b"\x00", b"nan", b"\n"])) + content[at:]
    lines = content.splitlines(keepends=True)
    if kind == "truncate":
        return content[: draw(st.integers(0, len(content) - 1))]
    at = draw(st.integers(0, len(lines) - 1))
    extra = lines[at] if kind == "repeat" else draw(st.sampled_from([b"\n", b"   \n", b"\r\n"]))
    return b"".join(lines[:at] + [extra] + lines[at:])


class Case:
    """A scratch copy of a valid run: `argv` reads `target` with `reader`."""

    def __init__(self, base: Path, make):
        self.base = base
        self.argv, self.target, self.reader = make(base)
        self.content = self.target.read_bytes()

    def check(self, data, capsys) -> None:
        with tempfile.TemporaryDirectory(dir=self.base.parent) as scratch:
            run = Path(scratch) / "run"
            shutil.copytree(self.base, run)
            target = run / self.target.relative_to(self.base)
            target.write_bytes(data.draw(mutation(self.content)))
            argv = [arg.replace(str(self.base), str(run)) for arg in self.argv]
            before = sorted(run.rglob("*"))
            capsys.readouterr()
            cwd = os.getcwd()
            os.chdir(run)  # a relative path a mutation makes lands in the scratch copy
            try:
                code = main(argv)
            finally:
                os.chdir(cwd)
            err = capsys.readouterr().err
            assert code in (EXIT_OK, EXIT_CONFIG_ERROR, EXIT_DATA_ERROR)
            try:
                self.reader(run, target)
            except (ConfigError, DataError) as exc:
                assert str(target) in str(exc)
                assert code != EXIT_OK and str(exc) in err
            if code != EXIT_OK:
                assert sorted(run.rglob("*")) == before
                assert err.startswith(("config error: ", "data error: ")) and err.count("\n") == 1


def _extract_argv(corpus: Path) -> list[str]:
    return ["extract", "--manifest", str(corpus / "manifest.csv"), "--out", str(corpus.parent / "out"), *TINY_FLAGS]


def _load_first(name: str):
    def reader(run: Path, target: Path):
        return load_recording(RecordingMeta(name, MachineState.HEALTHY, "6204", 0, 8192.0), run / "corpus")

    return reader


def manifest_case(root):
    corpus = tiny_corpus(root)
    return _extract_argv(corpus), corpus / "manifest.csv", lambda run, target: load_manifest(target)


def sidecar_case(root):
    corpus = tiny_corpus(root)
    return _extract_argv(corpus), corpus / "healthy_00.f32.hdr", _load_first("healthy_00.f32")


def text_recording_case(root):
    corpus = tiny_corpus(root, text=True)
    return _extract_argv(corpus), corpus / "healthy_00.txt", _load_first("healthy_00.txt")


def design_table_case(root):
    corpus = tiny_corpus(root)
    table = root / "designs.csv"
    rows = [(d.name, d.thickness_mm, d.f0_hz, d.bw3db_hz, d.peak_gain_v_per_g) for d in DEFAULT_DESIGNS]
    table.write_text(csv_text(DESIGN_TABLE_FIELDS, rows))
    argv = [*_extract_argv(corpus), "--design-table", str(table), "--thickness", "0.5"]
    return argv, table, lambda run, target: _designs(RunConfig(design_table=str(target), thickness_mm=0.5), "thickness_mm")


def config_case(root):
    corpus = tiny_corpus(root)
    config = root / "run.cfg"
    config.write_text(
        f"manifest={corpus / 'manifest.csv'}\nthickness_mm=0.50\nt_s=0.25\nsegment_s=0.5\n"
        "segments_per_recording=2\nr_ohm=1.0\nlabels=healthy,ball_crack\nstratified=true\nseed=0\n"
    )
    argv = ["extract", "--config", str(config), "--out", str(root / "out")]
    return argv, config, lambda run, target: parse_config_file(target)


def recipe_case(root):
    recipe = root / "recipe.cfg"
    recipe.write_text(RECIPE)
    argv = ["surrogate-gen", "--spec", str(recipe), "--out", str(root / "out")]
    return argv, recipe, lambda run, target: load_surrogate_spec(target)


CASES = [manifest_case, design_table_case, config_case, recipe_case, sidecar_case, text_recording_case]


@pytest.fixture(scope="module", params=CASES, ids=lambda make: make.__name__.removesuffix("_case"))
def case(request, tmp_path_factory):
    base = tmp_path_factory.mktemp("fuzz") / "base"
    base.mkdir()
    case = Case(base, request.param)
    assert main(case.argv) == EXIT_OK  # the unmutated run succeeds
    shutil.rmtree(base / "out")
    return case


@EXAMPLES
@given(data=st.data())
def test_a_mutated_input_file_exits_cleanly(case, data, capsys):
    case.check(data, capsys)
