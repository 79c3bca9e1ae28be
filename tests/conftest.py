import numpy as np
import pytest

from pehfault.dataset import (
    DEFAULT_SURROGATE_SPEC,
    ClassSignalSpec,
    MachineState,
    SurrogateSpec,
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


@pytest.fixture(scope="session")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_corpus")
    return synth_surrogate_corpus(SMALL_SPEC, seed=7, out_dir=out)


@pytest.fixture(scope="session")
def default_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_corpus")
    return synth_surrogate_corpus(DEFAULT_SURROGATE_SPEC, seed=0, out_dir=out)
