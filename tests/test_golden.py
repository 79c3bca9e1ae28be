"""Golden outputs: the README experiment on the default surrogate corpus (seed 0)
must keep writing byte-identical normative CSVs. A refactor that changes any
number, format or row order fails here."""

import hashlib

from pehfault.cli import EXIT_OK, main

# SHA-256 of each normative CSV written by the README experiment, seed 0.
GOLDEN_SHA256 = {
    "features.csv": "c5d4b1014c7b431cca55c67e7db7465fc4e7d56fafd8c83f37b66ca0acd82ee7",
    "classification.csv": "d303a5b492ee64f5d3301a60b7bc3b1b8e4c0610387971734ed40caabc2407d1",
    "sweep.csv": "e8a09a8f2b863b39a2b4d86f949e76eb7529e3bff3709003bb196ce0bce131ba",
    "scatter.csv": "b3b51cf989fc50318e8b9a6f09042db8dfa1f0b0939974d73c50b32ee6f9c5e6",
}

README_EXPERIMENT = (
    ["extract", "--thickness", "0.50"],
    ["classify", "--thickness", "0.50"],
    ["sweep", "--thicknesses", "0.35,0.40,0.45,0.50", "--t-values", "1,3"],
    ["scatter"],
)


def test_readme_experiment_outputs_match_golden_digests(default_corpus, tmp_path, capsys):
    base = ["--manifest", str(default_corpus.root / "manifest.csv"), "--out", str(tmp_path), "--seed", "0"]
    for command in README_EXPERIMENT:
        assert main([*command, *base]) == EXIT_OK, command[0]
    capsys.readouterr()
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256
