"""Correctness checks behind the benchmark's failure count.

The first pass of a run is checked in full; every later pass must reproduce
its outputs byte for byte. The full check of one output file:

  features.csv        every row recomputed by an independent oracle (a
                      bilinear biquad from the design's public f0/Q/gain,
                      scipy.signal.lfilter and a sum of squares), within
                      ORACLE_RTOL; on a text corpus, also byte-identical to
                      `extract` over the same recordings as raw float32;
  classification.csv  one row per repeat with the split sizes of the corpus;
                      on the default seed the mean accuracy must lie inside
                      the workload's accuracy band;
  sweep.csv           one row per (design, T), and the row of the classify
                      design and period equal to classification.csv's mean;
  scatter.csv         the class means of features.csv for the same design;
  any output          on the default seed, SHA-256 equal to reference.json.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
from scipy import signal as sps

import pehfault.cli
from pehfault.harvester import DEFAULT_DESIGNS

from workloads import DEFAULT_SEED, Command, Corpus, Workload

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
ORACLE_RTOL = 1e-9
CONSISTENCY_RTOL = 1e-12


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def read_csv(path: Path) -> list[dict]:
    with Path(path).open(newline="") as fh:
        return list(csv.DictReader(fh))


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def biquad(f0_hz: float, q: float, gain: float, fs: float) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear transform of G*(s*w0/Q)/(s^2 + s*w0/Q + w0^2), prewarped at f0."""
    w0 = 2.0 * math.pi * f0_hz
    k = w0 / math.tan(w0 / (2.0 * fs))
    bw = w0 / q
    a0 = k * k + bw * k + w0 * w0
    b = np.array([gain * bw * k, 0.0, -gain * bw * k]) / a0
    a = np.array([a0, 2.0 * (w0 * w0 - k * k), k * k - bw * k + w0 * w0]) / a0
    return b, a


def read_samples(path: Path) -> np.ndarray:
    path = Path(path)
    if path.suffix in (".f32", ".raw"):
        return np.fromfile(path, dtype="<f4").astype(np.float64)
    return np.array(path.read_text().split(), dtype=np.float64)


def oracle_problems(features_csv: Path, manifest_csv: Path, segment_s: float, r_ohm: float) -> list[str]:
    """Recompute every feature row from its recording; list disagreements."""
    manifest_csv = Path(manifest_csv)
    fs_of = {row["path"]: float(row["fs_hz"]) for row in read_csv(manifest_csv)}
    designs = {d.name: d for d in DEFAULT_DESIGNS}
    loaded, samples = None, None  # one recording at a time, so the check adds little to peak RSS
    problems = []
    for lineno, row in enumerate(read_csv(features_csv), start=2):
        rec = row["recording_id"]
        if rec not in fs_of or row["design"] not in designs:
            problems.append(f"features.csv:{lineno}: unknown recording or design")
            continue
        fs, design = fs_of[rec], designs[row["design"]]
        if rec != loaded:
            loaded, samples = rec, read_samples(manifest_csv.parent / rec)
        n_win = int(round(segment_s * fs))
        seg = int(row["segment_index"])
        piece = samples[seg * n_win : (seg + 1) * n_win]
        b, a = biquad(design.f0_hz, design.f0_hz / design.bw3db_hz, design.peak_gain_v_per_g, fs)
        v = sps.lfilter(b, a, piece)
        n_per = int(round(float(row["T_s"]) * fs))
        chunks = (v[i : i + n_per] for i in range(0, len(v) - n_per + 1, n_per))
        want = [float(np.dot(c, c)) / (r_ohm * fs) for c in chunks]
        got = [float(row[key]) for key in row if key.startswith("feature_")]
        if len(got) != len(want) or not all(_close(g, w, ORACLE_RTOL) for g, w in zip(got, want)):
            problems.append(f"features.csv:{lineno}: {rec} segment {seg} disagrees with the oracle")
    return problems


def text_identity_problems(features_csv: Path, corpus: Corpus, command: Command, scratch: Path) -> list[str]:
    """The text corpus must give exactly the features of its float32 form."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        rc = pehfault.cli.main(command.full_argv(corpus.f32_manifest, scratch))
    if rc != 0:
        return [f"extract over the float32 corpus exited {rc}"]
    lines = Path(features_csv).read_text().split("\n")
    renamed = [lines[0]] + [text_to_f32_id(line) for line in lines[1:]]
    if "\n".join(renamed) != (scratch / "features.csv").read_text():
        return ["features.csv of the text corpus differs from the float32 corpus"]
    return []


def text_to_f32_id(line: str) -> str:
    rec, sep, rest = line.partition(",")
    return Path(rec).with_suffix(".f32").name + sep + rest if sep else line


def classification_problems(path: Path, cfg, corpus: Corpus, band, seed: int) -> list[str]:
    rows = read_csv(path)
    problems = []
    points = corpus.n_recordings * cfg.segments_per_recording
    if len(rows) != cfg.n_repeats:
        problems.append(f"classification.csv: {len(rows)} rows, expected {cfg.n_repeats}")
    for i, row in enumerate(rows):
        acc = float(row["accuracy"])
        if int(row["seed"]) != cfg.seed + i or int(row["n_train"]) + int(row["n_validation"]) != points:
            problems.append(f"classification.csv: repeat {i} has the wrong seed or split sizes")
        if not 0.0 <= acc <= 1.0:
            problems.append(f"classification.csv: repeat {i} accuracy {acc} outside [0, 1]")
    if band and seed == DEFAULT_SEED and rows:
        mean = float(np.mean([float(r["accuracy"]) for r in rows]))
        if not band[0] < mean < band[1]:
            problems.append(f"classification.csv: mean accuracy {mean:.4f} outside {band}")
    return problems


def sweep_problems(path: Path, cfg, classification: Path | None, classify_cfg) -> list[str]:
    rows = read_csv(path)
    expected = [(t_mm, t_s) for t_mm in cfg.thicknesses for t_s in cfg.t_values]
    got = [(float(r["thickness_mm"]), float(r["T_s"])) for r in rows]
    if got != expected:
        return [f"sweep.csv: rows {got} differ from designs x periods {expected}"]
    problems = [
        f"sweep.csv: {r['design']} accuracy outside [0, 1]" for r in rows if not 0 <= float(r["mean_accuracy"]) <= 1
    ]
    key = classify_cfg and (classify_cfg.thickness_mm, classify_cfg.t_s)
    if classification is not None and key in got:
        mean = float(np.mean([float(r["accuracy"]) for r in read_csv(classification)]))
        if not _close(float(rows[got.index(key)]["mean_accuracy"]), mean, CONSISTENCY_RTOL):
            problems.append(f"sweep.csv: row {key} disagrees with classification.csv")
    return problems


def scatter_problems(path: Path, features: Path | None, fault_label: str) -> list[str]:
    rows = read_csv(path)
    problems = []
    for r in rows:
        h, f = float(r["mean_healthy_j"]), float(r["mean_faulty_j"])
        if not _close(float(r["diag_distance_j"]), abs(h - f) / math.sqrt(2.0), CONSISTENCY_RTOL):
            problems.append(f"scatter.csv: {r['design']} distance to the diagonal is wrong")
    if features is not None:
        sums: dict = {}
        names = set()
        for row in read_csv(features):
            values = [float(row[k]) for k in row if k.startswith("feature_")]
            total, count = sums.get(row["label"], (0.0, 0))
            sums[row["label"]] = (total + float(np.sum(values)), count + len(values))
            names.add(row["design"])
        designs = {r["design"]: r for r in rows}
        name = names.pop() if len(names) == 1 else None
        if name in designs and {"healthy", fault_label} <= sums.keys():
            for label, column in (("healthy", "mean_healthy_j"), (fault_label, "mean_faulty_j")):
                total, count = sums[label]
                if not _close(float(designs[name][column]), total / count, CONSISTENCY_RTOL):
                    problems.append(f"scatter.csv: {name} {column} disagrees with features.csv")
    return problems


def _same(a, b, fields: tuple[str, ...]) -> bool:
    return a is not None and b is not None and all(getattr(a, f) == getattr(b, f) for f in fields)


# Settings under which two commands build the same features / the same splits.
FEATURE_FIELDS = ("segment_s", "segments_per_recording", "r_ohm", "design_table", "labels", "bearing_type", "load_w")
SPLIT_FIELDS = FEATURE_FIELDS + ("train_fraction", "stratified", "seed", "n_repeats", "k", "metric")


def verify(
    workload: Workload, corpus: Corpus, out_dir: Path, seed: int, scratch: Path, reference: dict
) -> dict[str, list[str]]:
    """Full check of one pass's outputs: problems per output file. `reference`
    maps workload names to the SHA-256 of each output on the default seed."""
    out_dir = Path(out_dir)
    cfgs = {c.argv[0]: c.config(corpus.manifest, out_dir) for c in workload.commands}
    problems: dict[str, list[str]] = {name: [] for c in workload.commands for name in c.outputs}

    def present(name: str) -> Path | None:
        path = out_dir / name
        return path if name in problems and path.is_file() else None

    for command in workload.commands:
        cfg = cfgs[command.argv[0]]
        for name in command.outputs:
            path = present(name)
            if path is None:
                problems[name].append(f"{name} was not written")
            elif name == "features.csv":
                problems[name] += oracle_problems(path, corpus.manifest, cfg.segment_s, cfg.r_ohm)
                if workload.text:
                    problems[name] += text_identity_problems(path, corpus, command, scratch)
            elif name == "classification.csv":
                problems[name] += classification_problems(path, cfg, corpus, workload.accuracy_band, seed)
            elif name == "sweep.csv":
                classify = cfgs.get("classify")
                same = _same(cfg, classify, SPLIT_FIELDS)
                problems[name] += sweep_problems(path, cfg, present("classification.csv") if same else None, classify)
            elif name == "scatter.csv":
                extract = cfgs.get("extract")
                same = _same(cfg, extract, FEATURE_FIELDS + ("t_s",))
                problems[name] += scatter_problems(path, present("features.csv") if same else None, cfg.fault_label)
    if seed == DEFAULT_SEED:
        for name, digest in reference.get(workload.name, {}).items():
            if present(name) is not None and sha256(out_dir / name) != digest:
                problems[name].append(f"{name}: SHA-256 differs from reference.json")
    return problems
