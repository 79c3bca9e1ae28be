"""Golden outputs: the README experiment on the default surrogate corpus (seed 0)
must keep writing byte-identical normative CSVs. A refactor that changes any
number, format or row order fails here, and so does a README edit that changes
what its quick start writes."""

import hashlib
import shlex

from pehfault.cli import EXIT_OK, main
from pehfault.dataset import ClassSignalSpec, MachineState, SurrogateSpec, synth_surrogate_corpus
from tests.test_cli import readme_example

# SHA-256 of each normative CSV written by the README experiment, seed 0.
GOLDEN_SHA256 = {
    "features.csv": "c5d4b1014c7b431cca55c67e7db7465fc4e7d56fafd8c83f37b66ca0acd82ee7",
    "classification.csv": "d303a5b492ee64f5d3301a60b7bc3b1b8e4c0610387971734ed40caabc2407d1",
    "sweep.csv": "e8a09a8f2b863b39a2b4d86f949e76eb7529e3bff3709003bb196ce0bce131ba",
    "scatter.csv": "b3b51cf989fc50318e8b9a6f09042db8dfa1f0b0939974d73c50b32ee6f9c5e6",
}


def test_readme_experiment_outputs_match_golden_digests(default_corpus, tmp_path, capsys):
    """The quick start's commands that read the corpus, run as written but on
    the default_corpus fixture (the corpus its surrogate-gen line writes) and
    into tmp_path."""
    argvs = [shlex.split(line, comments=True) for line in readme_example("## Quick start").splitlines()]
    commands = [argv[1:] for argv in argvs if argv[:1] == ["pehfault"]]
    assert ["surrogate-gen", "--out", "out", "--seed", "0"] in commands
    stdout = {}
    for argv in (argv for argv in commands if "--manifest" in argv):
        for flag, value in (("--manifest", default_corpus.root / "manifest.csv"), ("--out", tmp_path)):
            argv[argv.index(flag) + 1] = str(value)
        assert main(argv) == EXIT_OK, argv[0]
        stdout[argv[0]] = capsys.readouterr().out
    # Every design classifies this corpus perfectly, so classification.csv is
    # the same for any of them; only the report's first line names the one run.
    assert stdout["classify"].splitlines()[0] == "design peh_0.50mm, T=3s, k=3, 20 split(s), seed0=0"
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


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
