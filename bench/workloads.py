"""The benchmark's workloads: the corpus each one builds from the seed, and the
pehfault commands that make up one pass over it.

Every workload stresses one layer and bypasses the others' likely
optimisations (see README.md in this directory):

  experiment-f32  the README experiment on the built-in corpus; recording
                  load and harvester filtering dominate;
  knn-wide        one `classify` over a seven-state corpus that kNN cannot
                  separate perfectly; `classify` dominates;
  ingest-text     one `extract` over recordings stored as text; the text
                  parser dominates and each recording is read once.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from pehfault.cli import RunConfig, build_parser, resolve_config
from pehfault.dataset import (
    DEFAULT_SURROGATE_SPEC,
    MANIFEST_FIELDS,
    SurrogateSpec,
    load_manifest,
    load_surrogate_spec,
    synth_surrogate_corpus,
)
from pehfault.harvester import DEFAULT_DESIGNS, MIN_FS_PER_F0, design_from_thickness

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0

# Preconditions every workload keeps: the integration period spans at least
# MIN_CYCLES periods of the lowest resonance in use, the sampling rate is at
# least MIN_FS_PER_F0 times the highest one, and at least MIN_CLASSES states
# are present.
MIN_CYCLES = 10.0
MIN_CLASSES = 2


@dataclass(frozen=True)
class Command:
    """One `pehfault` invocation; --manifest and --out are added per run."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]

    def config(self, manifest: Path | str = "manifest.csv", out_dir: Path | str = "out") -> RunConfig:
        """The run configuration pehfault resolves for this command."""
        args = build_parser().parse_args(self.full_argv(manifest, out_dir))
        return resolve_config(args)[0]

    def full_argv(self, manifest: Path | str, out_dir: Path | str) -> list[str]:
        return [*self.argv, "--manifest", str(manifest), "--out", str(out_dir)]

    def designs_and_periods(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """Design thicknesses and integration periods the command builds features for."""
        cfg = self.config()
        designs = cfg.thicknesses if self.argv[0] in ("sweep", "scatter") else (cfg.thickness_mm,)
        periods = cfg.t_values if self.argv[0] == "sweep" else (cfg.t_s,)
        return designs, periods


@dataclass(frozen=True)
class Workload:
    name: str
    spec: Callable[[], SurrogateSpec]
    commands: tuple[Command, ...]
    kernel: str  # calibration kernel of runner.KERNELS that tracks the dominant layer
    text: bool = False  # recordings rewritten as one decimal value per line
    accuracy_band: tuple[float, float] | None = None  # open interval, default seed


@dataclass(frozen=True)
class Corpus:
    manifest: Path  # what the commands read
    f32_manifest: Path  # the same recordings as raw float32
    n_recordings: int
    raw_samples: int  # samples over all recordings of the manifest


EXPERIMENT_DESIGNS = "0.35,0.40,0.45,0.50"

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="experiment-f32",
            spec=lambda: DEFAULT_SURROGATE_SPEC,
            commands=(
                Command(("extract", "--thickness", "0.50"), ("features.csv",)),
                Command(("classify", "--thickness", "0.50"), ("classification.csv",)),
                Command(
                    ("sweep", "--thicknesses", EXPERIMENT_DESIGNS, "--t-values", "1,3"),
                    ("sweep.csv",),
                ),
                Command(("scatter", "--thicknesses", EXPERIMENT_DESIGNS), ("scatter.csv", "scatter.svg")),
            ),
            kernel="numpy",
        ),
        Workload(
            name="knn-wide",
            spec=lambda: load_surrogate_spec(HERE / "knn_wide.spec"),
            commands=(
                Command(
                    ("classify", "--segment", "0.5", "--segments", "4", "--T", "0.1", "--repeats", "50"),
                    ("classification.csv",),
                ),
            ),
            kernel="interpreter",
            accuracy_band=(0.5, 0.95),
        ),
        Workload(
            name="ingest-text",
            spec=lambda: dataclasses.replace(DEFAULT_SURROGATE_SPEC, count_per_class=2, duration_s=4.0),
            commands=(
                Command(("extract", "--segment", "2", "--segments", "2", "--T", "1"), ("features.csv",)),
            ),
            kernel="text",
            text=True,
        ),
    )
}


def corpus_seed(seed: int) -> int:
    """Map any integer seed onto the non-negative seeds numpy accepts."""
    return seed % (1 << 63)


def build_corpus(workload: Workload, seed: int, work_dir: Path) -> Corpus:
    """Synthesize the workload's corpus under work_dir (and its text form)."""
    manifest = synth_surrogate_corpus(workload.spec(), corpus_seed(seed), work_dir / "corpus")
    f32_manifest = manifest.root / "manifest.csv"
    raw_samples = sum((manifest.root / m.path).stat().st_size // 4 for m in manifest.entries)
    target = write_text_corpus(f32_manifest, work_dir / "text") if workload.text else f32_manifest
    return Corpus(target, f32_manifest, len(manifest.entries), raw_samples)


def write_text_corpus(f32_manifest: Path, out_dir: Path) -> Path:
    """Rewrite a raw float32 corpus as text recordings, one repr(float) per line.

    The values are the float32 samples widened to float64, so the text corpus
    holds exactly the numbers the raw one does.
    """
    manifest = load_manifest(f32_manifest)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = [",".join(MANIFEST_FIELDS)]
    for meta in manifest.entries:
        samples = np.fromfile(manifest.root / meta.path, dtype="<f4").astype(np.float64)
        name = Path(meta.path).with_suffix(".txt").name
        (out_dir / name).write_text("\n".join(map(repr, samples.tolist())) + "\n")
        rows.append(f"{name},{meta.label.value},{meta.bearing_type},{meta.load_w},{meta.fs:g}")
    path = out_dir / "manifest.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def precondition_violations(workload: Workload) -> list[str]:
    """Commands of the workload that break the physical preconditions."""
    spec = workload.spec()
    problems = []
    if len(spec.classes) < MIN_CLASSES:
        problems.append(f"{workload.name}: {len(spec.classes)} class(es), need {MIN_CLASSES}")
    for command in workload.commands:
        thicknesses, periods = command.designs_and_periods()
        f0s = [design_from_thickness(t, DEFAULT_DESIGNS).f0_hz for t in thicknesses]
        if min(periods) * min(f0s) < MIN_CYCLES:
            problems.append(f"{workload.name} {command.argv[0]}: T={min(periods):g}s spans < {MIN_CYCLES:g} cycles")
        if spec.fs < MIN_FS_PER_F0 * max(f0s):
            problems.append(f"{workload.name} {command.argv[0]}: fs={spec.fs:g} Hz < {MIN_FS_PER_F0:g} * f0")
    return problems
