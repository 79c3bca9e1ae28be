"""Golden outputs: the README experiment on the default surrogate corpus (seed 0)
must keep writing byte-identical normative CSVs. A refactor that changes any
number, format or row order fails here, and so does a README edit that changes
what its quick start writes."""

import filecmp
import hashlib
import os
import shlex
import subprocess
import sys
from xml.etree import ElementTree

import pytest

from pehfault.cli import EXIT_OK, main
from pehfault.dataset import ClassSignalSpec, MachineState, SurrogateSpec, synth_surrogate_corpus
from tests.test_cli import REPO, readme_example

# SHA-256 of each normative CSV written by the README experiment, seed 0.
GOLDEN_SHA256 = {
    "features.csv": "c5d4b1014c7b431cca55c67e7db7465fc4e7d56fafd8c83f37b66ca0acd82ee7",
    "classification.csv": "d303a5b492ee64f5d3301a60b7bc3b1b8e4c0610387971734ed40caabc2407d1",
    "sweep.csv": "e8a09a8f2b863b39a2b4d86f949e76eb7529e3bff3709003bb196ce0bce131ba",
    "scatter.csv": "b3b51cf989fc50318e8b9a6f09042db8dfa1f0b0939974d73c50b32ee6f9c5e6",
}


def pehfault_on_path(root):
    """The directory to put first on PATH for `pehfault`: the console script's,
    where it is installed beside this interpreter, else root/bin holding a
    shim that runs this interpreter's `-m pehfault` (never a stale install)."""
    script = os.path.join(os.path.dirname(sys.executable), "pehfault")
    if os.path.isfile(script):
        return os.path.dirname(script)
    (root / "bin").mkdir()
    (root / "bin" / "pehfault").write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m pehfault "$@"\n')
    (root / "bin" / "pehfault").chmod(0o755)
    return str(root / "bin")


@pytest.mark.parametrize("pinned", [False, True], ids=["unpinned", "one-cpu"])
def test_readme_quick_start_run_as_written(pinned, default_corpus, tmp_path):
    """The quick start's block, run by `sh -e` in tmp_path, writes the golden
    CSVs, a well-formed SVG and the default_corpus fixture's files, and prints
    nothing on stderr. Pinned to one CPU it writes the same bytes: the pool
    sizes itself from the affinity mask, and the outputs must not depend on it."""
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    if pinned and len(cpus) < 2:
        pytest.skip("a one-CPU run is the unpinned run here")
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env["PATH"] = pehfault_on_path(tmp_path) + os.pathsep + env.get("PATH", "")
    block = readme_example("## Quick start").split("\n", 1)[1]
    pin = (lambda: os.sched_setaffinity(0, {min(cpus)})) if pinned else None
    try:
        done = subprocess.run(["sh", "-e", "-c", block], cwd=tmp_path, env=env, capture_output=True, text=True, preexec_fn=pin)
    except subprocess.SubprocessError:  # the preexec_fn failed in the child
        pytest.skip("a one-CPU affinity mask cannot be set")
    assert (done.returncode, done.stderr) == (EXIT_OK, "")
    # Every design classifies this corpus perfectly, so classification.csv is
    # the same for any of them; only the report's first line names the one run.
    assert "design peh_0.50mm, T=3s, k=3, 20 split(s), seed0=0" in done.stdout.splitlines()
    out = tmp_path / "out"
    assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256} == GOLDEN_SHA256
    ElementTree.parse(out / "scatter.svg")
    names = sorted(os.listdir(default_corpus.root))
    assert sorted(os.listdir(out / "corpus")) == names
    assert filecmp.cmpfiles(out / "corpus", default_corpus.root, names, shallow=False) == (names, [], [])
    module = [sys.executable, "-m", "pehfault", "energy-report", "--fs-raw", "51200", "--T", "3"]
    assert subprocess.run(module, env=env, capture_output=True, text=True, check=True).stdout in done.stdout


# Seven states whose 200 Hz tones, inside the 0.50 mm design's pass-band,
# differ by about 12 % in amplitude (the style of bench/knn_wide.spec), with
# enough noise that kNN misclassifies and breaks vote ties. A change that
# flips a single vote changes these digests; the README experiment above
# cannot show that, because its accuracy is 1.0 everywhere.
OVERLAPPING_SPEC = SurrogateSpec(
    classes={
        state: ClassSignalSpec(tones=((200.0, amplitude), (f_hz, 0.5)), noise_sigma=0.6)
        for state, amplitude, f_hz in (
            (MachineState.HEALTHY, 1.0, 120.0),
            (MachineState.INNER_CRACK, 1.12, 150.0),
            (MachineState.OUTER_CRACK, 1.25, 175.0),
            (MachineState.BALL_CRACK, 1.4, 225.0),
            (MachineState.INNER_OUTER, 1.57, 250.0),
            (MachineState.INNER_BALL, 1.76, 100.0),
            (MachineState.OUTER_BALL, 1.97, 300.0),
        )
    },
    count_per_class=4,
    fs=8192.0,
    duration_s=2.0,
    amplitude_jitter=0.15,
)

OVERLAPPING_SHA256 = {
    "classification.csv": "7b2b73b897f02fea335a5b9db01fa5221d55aa10f639953c245a6d35231a4e6a",
    "sweep.csv": "1b5226246df6c86a148a085442a45b618c56046ed0e2017f01ded92247c213a0",
}


def test_overlapping_states_classification_and_sweep_match_golden_digests(tmp_path, capsys):
    manifest = synth_surrogate_corpus(OVERLAPPING_SPEC, seed=0, out_dir=tmp_path / "corpus")
    base = ["--manifest", str(manifest.root / "manifest.csv"), "--out", str(tmp_path), "--seed", "0"]
    base += ["--segment", "0.5", "--segments", "4"]
    assert main(["classify", "--T", "0.1", "--repeats", "5", *base]) == EXIT_OK
    sweep = ["sweep", "--thicknesses", "0.40,0.50", "--t-values", "0.1,0.25", "--repeats", "3", "--k", "4"]
    assert main([*sweep, "--metric", "log", *base]) == EXIT_OK
    capsys.readouterr()
    rows = (tmp_path / "classification.csv").read_text().splitlines()[1:]
    mean_accuracy = sum(float(row.split(",")[2]) for row in rows) / len(rows)
    assert 0.5 < mean_accuracy < 0.95
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in OVERLAPPING_SHA256}
    assert digests == OVERLAPPING_SHA256
