"""The full check rejects a features.csv that is off by one ulp (digest) or
by 1e-6 relative (oracle), and accepts the unchanged file."""

import shutil

import numpy as np
import pytest

import checks
import runner
from workloads import DEFAULT_SEED, WORKLOADS, build_corpus


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    workload = WORKLOADS["experiment-f32"]
    work = tmp_path_factory.mktemp("experiment")
    (work / "out").mkdir()
    (work / "check").mkdir()
    corpus = build_corpus(workload, DEFAULT_SEED, work)
    result = runner.run_pass(workload, corpus, work / "out", {})
    assert result.failed == 0
    return workload, corpus, work


def perturbed(experiment, tmp_path, change):
    """Copy of the outputs with features.csv row 1, feature_0 replaced by change(value)."""
    workload, corpus, work = experiment
    out = tmp_path / "out"
    shutil.copytree(work / "out", out)
    lines = (out / "features.csv").read_text().split("\n")
    cells = lines[1].split(",")
    cells[5] = repr(change(float(cells[5])))
    lines[1] = ",".join(cells)
    (out / "features.csv").write_text("\n".join(lines))
    return checks.verify(workload, corpus, out, DEFAULT_SEED, work / "check", checks.load_reference())["features.csv"]


def test_unchanged_outputs_pass(experiment, tmp_path):
    assert perturbed(experiment, tmp_path, lambda v: v) == []


def test_one_ulp_fails_the_digest_but_not_the_oracle(experiment, tmp_path):
    problems = perturbed(experiment, tmp_path, lambda v: float(np.nextafter(v, np.inf)))
    assert any("SHA-256" in p for p in problems)
    assert not any("oracle" in p for p in problems)


def test_one_part_per_million_fails_the_oracle(experiment, tmp_path):
    problems = perturbed(experiment, tmp_path, lambda v: v * (1 + 1e-6))
    assert any("oracle" in p for p in problems)


def test_oracle_alone_rejects_on_any_seed(experiment, tmp_path):
    workload, corpus, work = experiment
    perturbed(experiment, tmp_path, lambda v: v * (1 + 1e-6))
    out = tmp_path / "out"
    cfg = workload.commands[0].config()
    assert checks.oracle_problems(out / "features.csv", corpus.manifest, cfg.segment_s, cfg.r_ohm)
    assert checks.oracle_problems(work / "out" / "features.csv", corpus.manifest, cfg.segment_s, cfg.r_ohm) == []
