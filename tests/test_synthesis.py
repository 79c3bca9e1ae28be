"""The surrogate corpus computed in blocks on a thread pool against the
serial, full-length synthesis it replaced: the same bytes in every file for
any thread count, and the same first error."""

import hashlib
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pehfault.dataset
from pehfault.cli import EXIT_OK, main
from pehfault.dataset import (
    MANIFEST_FIELDS,
    SYNTH_BLOCK,
    ClassSignalSpec,
    MachineState,
    SurrogateSpec,
    csv_text,
    load_manifest,
    synth_surrogate_corpus,
    write_atomic,
    write_recording_f32,
)
from pehfault.errors import DataError
from tests.conftest import SMALL_SPEC


def reference_recording(cspec: ClassSignalSpec, fs: float, duration_s: float, jitter: float, rng) -> np.ndarray:
    n = int(round(duration_s * fs))
    t = np.arange(n) / fs
    samples = np.zeros(n)
    for f_hz, amplitude in cspec.tones:
        amp = amplitude * rng.uniform(1.0 - jitter, 1.0 + jitter)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        samples += amp * np.sin(2 * np.pi * f_hz * t + phase)
    if cspec.noise_sigma > 0:
        samples += cspec.noise_sigma * rng.standard_normal(n)
    return samples


def reference_corpus(spec: SurrogateSpec, seed: int, out_dir):
    """The serial loop: each recording computed at full length, then written."""
    out_dir = Path(out_dir)
    states = sorted(spec.classes, key=lambda s: s.value)
    slot_seeds = np.random.SeedSequence(seed).spawn(spec.count_per_class)
    rows = []
    for state in states:
        cspec = spec.classes[state]
        for index in range(spec.count_per_class):
            rng = np.random.default_rng(slot_seeds[index])
            samples = reference_recording(cspec, spec.fs, spec.duration_s, spec.amplitude_jitter, rng)
            name = f"{state.value}_{index:02d}.f32"
            write_recording_f32(samples, spec.fs, out_dir / name)
            rows.append((name, state.value, spec.bearing_type, spec.load_w, f"{spec.fs:g}"))
    return load_manifest(write_atomic(out_dir / "manifest.csv", csv_text(MANIFEST_FIELDS, rows)))


def files(root: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(root.iterdir())}


EIGHT_TONES = tuple((40.0 + 45.0 * i, 0.3 + 0.1 * i) for i in range(8))

# Lengths in SYNTH_BLOCKs, so that each case keeps what its name says whatever the block size.
SPECS = {
    # 2.5 blocks, noise on both classes
    "partial-last-block": replace(SMALL_SPEC, duration_s=2.5 * SYNTH_BLOCK / SMALL_SPEC.fs),
    # exactly two blocks
    "whole-blocks": replace(SMALL_SPEC, duration_s=2 * SYNTH_BLOCK / SMALL_SPEC.fs),
    # shorter than one block, one recording per class, no jitter, no noise
    "under-one-block": SurrogateSpec(
        classes={
            MachineState.HEALTHY: ClassSignalSpec(tones=((200.0, 1.0),)),
            MachineState.INNER_CRACK: ClassSignalSpec(tones=EIGHT_TONES),
        },
        count_per_class=1,
        fs=8192.0,
        duration_s=0.37 * SYNTH_BLOCK / 8192.0,
        amplitude_jitter=0.0,
    ),
    # one tone with noise, eight without, an odd length over several blocks
    "mixed": SurrogateSpec(
        classes={
            MachineState.OUTER_BALL: ClassSignalSpec(tones=((1234.5, 0.7),), noise_sigma=0.4),
            MachineState.BALL_CRACK: ClassSignalSpec(tones=EIGHT_TONES),
        },
        count_per_class=5,
        fs=51200.0,
        duration_s=(3 * SYNTH_BLOCK + 1235) / 51200.0,
        amplitude_jitter=0.2,
        seed=3,
    ),
}


@pytest.mark.parametrize("cpus", [{0}, {0, 1}, {0, 1, 2, 3}])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_corpus_equals_the_serial_synthesis_byte_for_byte(name, cpus, tmp_path, monkeypatch):
    spec = SPECS[name]
    n = round(spec.duration_s * spec.fs)
    assert name != "partial-last-block" or (n > SYNTH_BLOCK and n % SYNTH_BLOCK)
    assert name != "whole-blocks" or n == 2 * SYNTH_BLOCK
    assert name != "under-one-block" or n < SYNTH_BLOCK
    assert name != "mixed" or (n > 3 * SYNTH_BLOCK and n % 2)
    want = reference_corpus(spec, 11, tmp_path / "serial")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = synth_surrogate_corpus(spec, 11, tmp_path / "pool")
    finally:
        sys.setswitchinterval(interval)
    assert got.entries == want.entries
    assert files(tmp_path / "pool") == files(tmp_path / "serial")


# SHA-256 of every file `pehfault surrogate-gen --seed 0` writes on the
# built-in recipe, as the serial synthesis wrote them.
SURROGATE_GEN_SHA256 = {
    "ball_crack_00.f32": "d194a55b2b66ad88084939bcfea97c1dfa3e2abe34c4e5c3eaa523eb8ed495a1",
    "ball_crack_01.f32": "4e999ea1239e8321c415965b92187d6045610a4bc1fa40f55a0d4bdbfdb8b3bd",
    "ball_crack_02.f32": "d3cf489b509c9efc2ab2243cd106f0b0a07f21e92bf6593f67dcf73a890a165e",
    "ball_crack_03.f32": "18db5b72b93875652045575d1cfef52a82ae4854bb4849e4821c22a090ad9910",
    "ball_crack_04.f32": "54aaca439e291c1787c882001c6f02e6e9dd4b7c49a272624ba061109bb27e39",
    "ball_crack_05.f32": "8d089ee251b8062f86404727b54b504b19e8274b38a56a16b703839e3eb1d723",
    "ball_crack_06.f32": "6139b1d911bc684136bf721c01c259265814abc2e8f1072d80cc947f9bc093a7",
    "healthy_00.f32": "5fa00307e7a42e72b71304161391ec556e5285fbd0059328b1fc28e6b8023f3f",
    "healthy_01.f32": "ee18b954dabb48446d8b364e1c6c2d77a101b0c439a7563fad9c50aeab4a4121",
    "healthy_02.f32": "aa06a34cbd01434735cee076227fbfe0443c43c910c4e9109c90bcc1c7b0bd41",
    "healthy_03.f32": "90eab67afd67bd0e68acf1141f777f517bd62dba23ffde1d70d188b8100d7d64",
    "healthy_04.f32": "6ca6ed12a3aaad99068c0fd7c8621b0300f69bd39898ecc4244ea4d0fe5c4356",
    "healthy_05.f32": "c7d05e00ef3f9c6a9722195aa0edd7d264417ba7fceabdc27777f5a367a95b6c",
    "healthy_06.f32": "46dbc403b6e83a2d514a2d909780f1a41038466fc036335b9d71fd3bc10f9dbe",
    "manifest.csv": "f8fa7cfe9c025f180ae67dba2029c7b39e6fbb4602eb434dcf6725933bc30328",
}
SIDECAR_SHA256 = "f292c26eb7fd1d954119fa23159a2e2a0463261af3fa40ba43ad2a2d5dd141c3"  # fs_hz=51200, n_samples=512000


def test_surrogate_gen_seed_0_writes_the_pinned_bytes(tmp_path, capsys):
    assert main(["surrogate-gen", "--out", str(tmp_path), "--seed", "0"]) == EXIT_OK
    capsys.readouterr()
    digests = {name: hashlib.sha256(content).hexdigest() for name, content in files(tmp_path / "corpus").items()}
    expected = dict(SURROGATE_GEN_SHA256)
    expected.update({name + ".hdr": SIDECAR_SHA256 for name in SURROGATE_GEN_SHA256 if name.endswith(".f32")})
    assert digests == expected


@pytest.mark.parametrize("cpus", [{0}, {0, 1}, {0, 1, 2, 3}])
def test_a_failed_write_is_the_serial_loops_first_error(cpus, tmp_path, monkeypatch):
    """A directory where the third recording goes: the error names it as the
    serial loop's does, no temporary file is left, nothing after it is
    written, and once the error is out no recording past those in flight has
    been or is being computed."""
    spec = SurrogateSpec(classes=SMALL_SPEC.classes, count_per_class=4, fs=8192.0, duration_s=0.5)
    third = "ball_crack_02.f32"
    errors = {}
    for name in ("serial", "pool"):
        (tmp_path / name / third).mkdir(parents=True)
    with pytest.raises(DataError) as info:
        reference_corpus(spec, 0, tmp_path / "serial")
    errors["serial"] = str(info.value).replace(str(tmp_path / "serial"), "<out>")

    started, finished, synth = [], [], pehfault.dataset._synth_class_recording

    def watched(*args):
        started.append(threading.get_ident())
        time.sleep(0.02)
        samples = synth(*args)
        finished.append(threading.get_ident())
        return samples

    submitted = []

    class WatchedPool(ThreadPoolExecutor):
        def submit(self, *args, **kwargs):
            submitted.append(super().submit(*args, **kwargs))
            return submitted[-1]

    monkeypatch.setattr(pehfault.dataset, "_synth_class_recording", watched)
    monkeypatch.setattr(pehfault.dataset, "ThreadPoolExecutor", WatchedPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
    threads = threading.active_count()
    with pytest.raises(DataError) as info:
        synth_surrogate_corpus(spec, 0, tmp_path / "pool")
    errors["pool"] = str(info.value).replace(str(tmp_path / "pool"), "<out>")
    assert errors["pool"] == errors["serial"]
    assert errors["pool"].startswith(f"cannot write <out>/{third}: ")
    assert len(submitted) <= 3 + 2 * len(cpus) - 1
    assert all(future.done() for future in submitted)
    assert len(finished) == len(started) <= len(submitted)
    assert threading.active_count() == threads
    time.sleep(0.1)
    assert len(started) == len(finished)
    names = sorted(path.name for path in (tmp_path / "pool").iterdir())
    assert names == sorted(path.name for path in (tmp_path / "serial").iterdir())
    assert names == ["ball_crack_00.f32", "ball_crack_00.f32.hdr", "ball_crack_01.f32", "ball_crack_01.f32.hdr", third]
    assert list((tmp_path / "pool" / third).iterdir()) == []


def test_a_fractional_rate_is_written_as_given(tmp_path, capsys):
    """The manifest and every sidecar state the recipe's rate exactly, so the
    corpus loads at the rate its samples were made at."""
    recipe = tmp_path / "recipe.spec"
    recipe.write_text("count_per_class=1\nfs_hz=12345.678\nduration_s=3\nhealthy.tones=200:1\nball_crack.tones=150:1\n")
    assert main(["surrogate-gen", "--spec", str(recipe), "--out", str(tmp_path), "--seed", "0"]) == EXIT_OK
    capsys.readouterr()
    corpus = tmp_path / "corpus"
    assert [line.split(",")[-1] for line in (corpus / "manifest.csv").read_text().splitlines()[1:]] == ["12345.678"] * 2
    for name in ("ball_crack_00.f32", "healthy_00.f32"):
        assert (corpus / f"{name}.hdr").read_text() == f"fs_hz=12345.678\nn_samples={round(3 * 12345.678)}\n"
    assert [meta.fs for meta in load_manifest(corpus / "manifest.csv").entries] == [12345.678] * 2
    extract = ["extract", "--manifest", str(corpus / "manifest.csv"), "--out", str(tmp_path)]
    assert main([*extract, "--segment", "1", "--segments", "2", "--T", "1"]) == EXIT_OK
