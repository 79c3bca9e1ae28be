import numpy as np
import pytest

from pehfault.dataset import (
    DEFAULT_SURROGATE_SPEC,
    ClassSignalSpec,
    MachineState,
    SurrogateSpec,
    load_surrogate_spec,
    synth_surrogate_corpus,
    write_recording_f32,
)

# Down-scaled corpus for cheap pipeline tests: same two-narrowband-tones vs
# broadband contrast as the default recipe, but short recordings at a low rate.
SMALL_SPEC = SurrogateSpec(
    classes={
        MachineState.HEALTHY: ClassSignalSpec(tones=((120.0, 0.8), (200.0, 1.0)), noise_sigma=0.05),
        MachineState.BALL_CRACK: ClassSignalSpec(
            tones=((60.0, 0.6), (95.0, 0.6), (130.0, 0.6), (165.0, 0.6), (235.0, 0.6), (270.0, 0.6)),
            noise_sigma=0.3,
        ),
    },
    count_per_class=3,
    fs=8192.0,
    duration_s=2.0,
)

SMALL_SEGMENT_S = 0.5
SMALL_SEGMENTS = 3

# With these flags a segment gives round(0.3 fs) // round(0.1 fs) features:
# 2400 // 800 = 3 at 8000 Hz, but 2404 // 802 = 2 at 8015 Hz.
MIXED_RATE_FLAGS = ["--segment", "0.3", "--segments", "2", "--T", "0.1"]
MIXED_RATE_ERROR = "c.f32: 2 features per segment at T=0.1s, where a.f32 gives 3 (the sampling rates differ)"


def mixed_rate_manifest(root):
    """Four 1 s noise recordings, both states at 8000 Hz, then both at 8015 Hz."""
    rng = np.random.default_rng(3)
    lines = ["path,label,bearing_type,load_w,fs_hz"]
    for name, label, fs in (
        ("a.f32", "healthy", 8000),
        ("b.f32", "ball_crack", 8000),
        ("c.f32", "healthy", 8015),
        ("d.f32", "ball_crack", 8015),
    ):
        write_recording_f32(rng.standard_normal(fs), fs, root / name)
        lines.append(f"{name},{label},6204,0,{fs}")
    path = root / "manifest.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


TINY_RECIPE = "count_per_class=1\nfs_hz=8192\nduration_s=1\nhealthy.tones=200:1.0\nball_crack.tones=150:1.0\n"
TINY_FLAGS = ["--segment", "0.5", "--segments", "2", "--T", "0.25"]


def tiny_argv(command, corpus, out, *flags):
    """The command over the tiny corpus with TINY_FLAGS, its period from --t-values for sweep."""
    period = ["--thicknesses", "0.5", "--t-values", TINY_FLAGS[-1]] if command == "sweep" else TINY_FLAGS[-2:]
    return [command, "--manifest", str(corpus / "manifest.csv"), "--out", str(out), *TINY_FLAGS[:-2], *period, *flags]


def rewrite_as_text(corpus):
    """Rewrite a surrogate-gen corpus's recordings as text (one repr per
    line), removing the raw files and sidecars."""
    for recording in sorted(corpus.glob("*.f32")):
        samples = np.fromfile(recording, dtype="<f4").tolist()
        recording.with_suffix(".txt").write_text("".join(f"{v!r}\n" for v in samples))
        recording.unlink()
        recording.with_name(recording.name + ".hdr").unlink()
    manifest = corpus / "manifest.csv"
    manifest.write_text(manifest.read_text().replace(".f32,", ".txt,"))


def tiny_corpus(root, text=False):
    """A surrogate-gen corpus of one 1 s recording per state; with `text`,
    rewritten as text."""
    (root / "recipe.cfg").write_text(TINY_RECIPE)
    corpus = root / "corpus"
    synth_surrogate_corpus(load_surrogate_spec(root / "recipe.cfg"), 0, corpus)
    if text:
        rewrite_as_text(corpus)
    return corpus


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_corpus")
    return synth_surrogate_corpus(SMALL_SPEC, seed=7, out_dir=out)


@pytest.fixture(scope="session")
def default_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_corpus")
    return synth_surrogate_corpus(DEFAULT_SURROGATE_SPEC, seed=0, out_dir=out)
