"""Labeled vibration recordings, every file syntax the package reads or writes
(key=value, headed CSV, manifest, design table, recordings), the end-to-end
feature pipeline, and a synthetic surrogate corpus generator.

Manifest format: CSV with header row `path,label,bearing_type,load_w,fs_hz`;
paths are resolved relative to the manifest's directory.

Recording formats:
  * text: one decimal value per line (any extension other than the raw ones);
  * raw: little-endian 32-bit floats (`.f32` or `.raw`), optionally with a
    sidecar text header `<file>.hdr` declaring `fs_hz=` and `n_samples=`,
    which are validated when present.
"""

from __future__ import annotations

import csv
import enum
import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .frontend import make_feature
from .harvester import PehDesign, simulate_voltage
from .signals import SignalUnit, TimeSeries, segment

MANIFEST_FIELDS = ("path", "label", "bearing_type", "load_w", "fs_hz")
DESIGN_TABLE_FIELDS = ("name", "thickness_mm", "f0_hz", "bw3db_hz", "peak_gain_v_per_g", "r_ohm")
VALID_LOADS_W = (0, 200, 400)
RAW_SUFFIXES = (".f32", ".raw")


class MachineState(str, enum.Enum):
    """Closed set of machine states: healthy plus six bearing fault types."""

    HEALTHY = "healthy"
    INNER_CRACK = "inner_crack"
    OUTER_CRACK = "outer_crack"
    BALL_CRACK = "ball_crack"
    INNER_OUTER = "inner_outer"
    INNER_BALL = "inner_ball"
    OUTER_BALL = "outer_ball"

    @classmethod
    def from_token(cls, token: str) -> "MachineState":
        try:
            return cls(token)
        except ValueError:
            valid = ", ".join(m.value for m in cls)
            raise DataError(f"unknown label token {token!r} (valid: {valid})") from None


@dataclass(frozen=True)
class RecordingMeta:
    path: str
    label: MachineState
    bearing_type: str
    load_w: int
    fs: float

    def __post_init__(self) -> None:
        if self.fs <= 0:
            raise DataError(f"{self.path}: sampling rate must be positive, got {self.fs}")
        if self.load_w not in VALID_LOADS_W:
            raise DataError(f"{self.path}: load must be one of {VALID_LOADS_W} W, got {self.load_w}")


@dataclass(frozen=True)
class Manifest:
    entries: tuple[RecordingMeta, ...]
    root: Path

    def counts(self) -> dict[tuple[str, str, int], int]:
        """Recording count per (state, bearing_type, load_w)."""
        out: dict[tuple[str, str, int], int] = {}
        for meta in self.entries:
            key = (meta.label.value, meta.bearing_type, meta.load_w)
            out[key] = out.get(key, 0) + 1
        return out


@dataclass(frozen=True)
class FeatureRows:
    """Row r of every feature matrix from one pass is segment
    segment_indices[r] of recording recording_ids[r], whose state is labels[r]
    (a MachineState value)."""

    labels: np.ndarray
    recording_ids: tuple[str, ...]
    segment_indices: tuple[int, ...]


def read_key_values(path: str | Path, error: type[Exception]) -> list[tuple[int, str, str]]:
    """(line, key, value) of each line of a flat key=value file, both sides
    stripped; blank lines and `#` comment lines are skipped. A line without
    `=` raises `error` naming the file and line."""
    entries = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        entries.append((lineno, key.strip(), value.strip()))
    return entries


def read_csv_table(path: str | Path, header: Sequence[str], what: str) -> list[tuple[int, list[str]]]:
    """(line, fields) of each data row of a CSV file that starts with `header`,
    fields stripped. Blank lines are skipped; errors name the physical line."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{what} not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        # A blank line is no field or one whitespace-only field.
        rows = [(reader.line_num, [f.strip() for f in row]) for row in reader if len(row) > 1 or "".join(row).strip()]
    if not rows:
        raise DataError(f"empty {what}: {path}")
    (header_line, found), rows = rows[0], rows[1:]
    if tuple(found) != tuple(header):
        raise DataError(f"{path}:{header_line}: {what} header must be {','.join(header)}, got {','.join(found)!r}")
    for lineno, fields in rows:
        if len(fields) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}")
    return rows


def _fmt(x: float) -> str:
    """The one number format of every CSV: repr, so values round-trip exactly."""
    return repr(float(x))


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A CSV document: strings and integers as they are, every other number
    through `_fmt`, a field holding a comma or quote quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell if isinstance(cell, (str, int)) else _fmt(cell) for cell in row] for row in rows)
    return out.getvalue()


def load_manifest(path: str | Path) -> Manifest:
    """Parse and validate a manifest CSV; duplicate paths are rejected."""
    path = Path(path)
    entries: list[RecordingMeta] = []
    seen: set[str] = set()
    for lineno, (rec_path, label, bearing, load_w, fs) in read_csv_table(path, MANIFEST_FIELDS, "manifest"):
        if rec_path in seen:
            raise DataError(f"{path}:{lineno}: duplicate recording path {rec_path!r}")
        seen.add(rec_path)
        try:
            entries.append(RecordingMeta(rec_path, MachineState.from_token(label), bearing, int(load_w), float(fs)))
        except (DataError, ValueError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
    root = path.resolve().parent
    for meta in entries:
        if not (root / meta.path).is_file():
            raise DataError(f"{path}: recording file not found: {root / meta.path}")
    return Manifest(tuple(entries), root)


def load_design_table(path: str | Path) -> tuple[PehDesign, ...]:
    """Read a design table from CSV with header name,thickness_mm,f0_hz,bw3db_hz,peak_gain_v_per_g,r_ohm."""
    designs = []
    for lineno, (name, *numbers) in read_csv_table(path, DESIGN_TABLE_FIELDS, "design table"):
        try:
            designs.append(PehDesign(name, *(float(value) for value in numbers)))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from exc
    return tuple(designs)


def filter_manifest(
    manifest: Manifest,
    labels: tuple[MachineState, ...] | None = None,
    bearing_type: str | None = None,
    load_w: int | None = None,
) -> Manifest:
    """Restrict a manifest to the given states / bearing type / load."""
    entries = tuple(
        meta
        for meta in manifest.entries
        if (labels is None or meta.label in labels)
        and (bearing_type is None or meta.bearing_type == bearing_type)
        and (load_w is None or meta.load_w == load_w)
    )
    return Manifest(entries, manifest.root)


def _load_text_recording(full: Path) -> np.ndarray:
    values = []
    for lineno, line in enumerate(full.read_text().splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise DataError(f"{full}:{lineno}: unparseable sample {token!r}") from None
        if not np.isfinite(value):
            raise DataError(f"{full}:{lineno}: non-finite sample {token!r}")
        values.append(value)
    return np.asarray(values, dtype=np.float64)


def _read_sidecar(full: Path) -> dict[str, float]:
    sidecar = full.with_name(full.name + ".hdr")
    if not sidecar.is_file():
        return {}
    declared: dict[str, float] = {}
    for lineno, key, value in read_key_values(sidecar, DataError):
        try:
            declared[key] = float(value)
        except ValueError:
            raise DataError(f"{sidecar}:{lineno}: unparseable value {value!r}") from None
    return declared


def _load_raw_recording(full: Path, fs: float) -> np.ndarray:
    size = full.stat().st_size
    if size % 4 != 0:
        raise DataError(f"{full}: raw float32 file size {size} is not a multiple of 4")
    samples = np.fromfile(full, dtype="<f4").astype(np.float64)
    declared = _read_sidecar(full)
    if "n_samples" in declared and int(declared["n_samples"]) != len(samples):
        raise DataError(f"{full}: sidecar declares {int(declared['n_samples'])} samples, file holds {len(samples)}")
    if "fs_hz" in declared and abs(declared["fs_hz"] - fs) > 1e-6 * fs:
        raise DataError(f"{full}: sidecar declares fs={declared['fs_hz']:g} Hz, manifest says {fs:g} Hz")
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise DataError(f"{full}: non-finite sample at index {bad[0]}")
    return samples


def load_recording(meta: RecordingMeta, root: str | Path = ".") -> TimeSeries:
    """Read one recording as acceleration in g, with fs taken from the metadata."""
    full = Path(root) / meta.path
    if not full.is_file():
        raise DataError(f"recording file not found: {full}")
    if full.suffix in RAW_SUFFIXES:
        samples = _load_raw_recording(full, meta.fs)
    else:
        samples = _load_text_recording(full)
    if len(samples) == 0:
        raise DataError(f"{full}: recording holds no samples")
    return TimeSeries(samples, meta.fs, SignalUnit.ACCELERATION_G)


def write_atomic(path: str | Path, content: str | bytes) -> Path:
    """Write one file atomically: a temporary file in the target directory,
    then a rename over the target, so no partial file is left. An OSError
    becomes a DataError naming the target."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_bytes(content) if isinstance(content, bytes) else tmp.write_text(content)
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {target}: {exc.strerror or exc}") from None
    return target


def write_recording_f32(samples: np.ndarray, fs: float, path: str | Path) -> None:
    """Write a raw little-endian float32 recording plus its sidecar header."""
    path = Path(path)
    data = np.asarray(samples, dtype="<f4")
    write_atomic(path, data.tobytes())
    write_atomic(path.with_name(path.name + ".hdr"), f"fs_hz={fs:g}\nn_samples={len(data)}\n")


def build_feature_sets(
    manifest: Manifest,
    designs: Sequence[PehDesign],
    segment_s: float,
    segments_per_recording: int,
    periods: Sequence[float],
    r_ohm: float,
) -> tuple[FeatureRows, list[list[np.ndarray]]]:
    """Run the full pipeline over every recording in one pass: segment,
    simulate the harvester voltage, and integrate per-interval energies.

    Returns the row metadata and sets[i][j], the float64 (n, dim) feature
    matrix of designs[i] at integration period periods[j]. Each recording is
    loaded and segmented once, each segment is filtered once per design (from
    zero state), and each voltage is integrated once per period; only one
    recording is held at a time. Rows are in manifest order, then segment
    index. Every segment must give one dimension per period: a recording
    whose sampling rate rounds to another is a DataError.
    """
    rows = []
    cells: list[list[list[np.ndarray]]] = [[[] for _ in periods] for _ in designs]
    for meta in manifest.entries:
        try:
            ts = load_recording(meta, manifest.root)
            for index, piece in enumerate(segment(ts, segment_s, segments_per_recording)):
                rows.append((meta.label.value, meta.path, index))
                for design, design_cells in zip(designs, cells):
                    voltage = simulate_voltage(design, piece)
                    for period_s, cell in zip(periods, design_cells):
                        values = make_feature(voltage, period_s, r_ohm)
                        if cell and len(values) != len(cell[0]):
                            raise DataError(
                                f"{len(values)} features per segment at T={period_s:g}s, where "
                                f"{manifest.entries[0].path} gives {len(cell[0])} (the sampling rates differ)"
                            )
                        cell.append(values)
        except (DataError, ValueError) as exc:
            raise DataError(f"{meta.path}: {exc}") from exc
    labels, recording_ids, segment_indices = zip(*rows) if rows else ((), (), ())
    sets = [[np.vstack(cell) if cell else np.empty((0, 0)) for cell in design_cells] for design_cells in cells]
    return FeatureRows(np.array(labels, dtype=str), recording_ids, segment_indices), sets


def build_feature_set(
    manifest: Manifest,
    design: PehDesign,
    segment_s: float,
    segments_per_recording: int,
    period_s: float,
    r_ohm: float,
) -> tuple[FeatureRows, np.ndarray]:
    """Row metadata and feature matrix of one design at one integration
    period (see build_feature_sets)."""
    rows, sets = build_feature_sets(manifest, [design], segment_s, segments_per_recording, [period_s], r_ohm)
    return rows, sets[0][0]


@dataclass(frozen=True)
class ClassSignalSpec:
    """Tone mix (f_hz, amplitude) and white-noise level for one synthetic state."""

    tones: tuple[tuple[float, float], ...]
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        if self.noise_sigma < 0:
            raise ConfigError(f"noise sigma must be non-negative, got {self.noise_sigma}")


@dataclass(frozen=True)
class SurrogateSpec:
    """Recipe for a synthetic labeled corpus."""

    classes: dict[MachineState, ClassSignalSpec]
    count_per_class: int = 7
    fs: float = 51200.0
    duration_s: float = 10.0
    amplitude_jitter: float = 0.10
    bearing_type: str = "6204"
    load_w: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.classes:
            raise ConfigError("surrogate spec needs at least one class")
        if self.count_per_class < 1:
            raise ConfigError(f"count per class must be >= 1, got {self.count_per_class}")
        if self.fs <= 0 or self.duration_s <= 0:
            raise ConfigError("sampling rate and duration must be positive")
        if not 0 <= self.amplitude_jitter < 1:
            raise ConfigError(f"amplitude jitter must lie in [0, 1), got {self.amplitude_jitter}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for state, cspec in self.classes.items():
            for f_hz, _amp in cspec.tones:
                if not 0 < f_hz < self.fs / 2:
                    raise ConfigError(f"{state.value}: tone at {f_hz} Hz outside (0, fs/2)")


# Healthy: energy concentrated in two narrow bands, one inside the 0.50 mm
# design's pass-band. Faulty: comparable total energy spread over a wide range
# that straddles but mostly misses that pass-band.
DEFAULT_SURROGATE_SPEC = SurrogateSpec(
    classes={
        MachineState.HEALTHY: ClassSignalSpec(tones=((120.0, 0.8), (200.0, 1.0)), noise_sigma=0.05),
        MachineState.BALL_CRACK: ClassSignalSpec(
            tones=(
                (60.0, 0.6),
                (95.0, 0.6),
                (130.0, 0.6),
                (165.0, 0.6),
                (235.0, 0.6),
                (270.0, 0.6),
                (305.0, 0.6),
                (340.0, 0.6),
            ),
            noise_sigma=0.3,
        ),
    },
)


def load_surrogate_spec(path: str | Path) -> SurrogateSpec:
    """Read a surrogate recipe from a flat key-value file.

    Plain keys: count_per_class, fs_hz, duration_s, amplitude_jitter,
    bearing_type, load_w, seed. Per-class keys use a `<label>.` prefix:
    `<label>.tones=f:amp,f:amp,...` and `<label>.noise_sigma=`.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"surrogate spec not found: {path}")
    plain: dict = {}
    tones: dict[MachineState, tuple[tuple[float, float], ...]] = {}
    sigmas: dict[MachineState, float] = {}
    for lineno, key, value in read_key_values(path, ConfigError):
        if "." in key:
            label_token, _, attr = key.partition(".")
            try:
                state = MachineState.from_token(label_token)
            except DataError as exc:
                raise ConfigError(f"{path}:{lineno}: {exc}") from None
            if attr == "tones":
                try:
                    tones[state] = tuple(
                        (float(pair.split(":")[0]), float(pair.split(":")[1]))
                        for pair in value.split(",")
                        if pair.strip()
                    )
                except (ValueError, IndexError):
                    raise ConfigError(f"{path}:{lineno}: tones must be f:amp,f:amp,..., got {value!r}") from None
            elif attr == "noise_sigma":
                try:
                    sigmas[state] = float(value)
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: unparseable noise sigma {value!r}") from None
            else:
                raise ConfigError(f"{path}:{lineno}: unknown per-class key {key!r}")
        elif key in ("count_per_class", "fs_hz", "duration_s", "amplitude_jitter", "bearing_type", "load_w", "seed"):
            field = "fs" if key == "fs_hz" else key
            try:
                plain[field] = type(getattr(SurrogateSpec, field))(value)  # the field's default gives its type
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    if not tones:
        raise ConfigError(f"{path}: no per-class tone lists given")
    classes = {state: ClassSignalSpec(tone_list, sigmas.get(state, 0.0)) for state, tone_list in tones.items()}
    return SurrogateSpec(classes, **plain)


def _synth_class_recording(cspec: ClassSignalSpec, fs: float, duration_s: float, jitter: float, rng) -> np.ndarray:
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


def synth_surrogate_corpus(spec: SurrogateSpec, seed: int, out_dir: str | Path) -> Manifest:
    """Write a seeded synthetic corpus (recordings + manifest.csv) and load it back.

    Byte-identical output for identical spec and seed.
    """
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write_probe"
        probe.write_bytes(b"")
        probe.unlink()
    except OSError as exc:
        raise DataError(f"unwritable directory {out_dir}: {exc}") from exc

    states = sorted(spec.classes, key=lambda s: s.value)
    # One seed per recording slot, shared across classes: identical class
    # recipes then synthesize identical recordings (common random numbers).
    slot_seeds = np.random.SeedSequence(seed).spawn(spec.count_per_class)
    rows = []
    for state in states:
        cspec = spec.classes[state]
        for index in range(spec.count_per_class):
            rng = np.random.default_rng(slot_seeds[index])
            samples = _synth_class_recording(cspec, spec.fs, spec.duration_s, spec.amplitude_jitter, rng)
            name = f"{state.value}_{index:02d}.f32"
            write_recording_f32(samples, spec.fs, out_dir / name)
            rows.append((name, state.value, spec.bearing_type, spec.load_w, f"{spec.fs:g}"))
    return load_manifest(write_atomic(out_dir / "manifest.csv", csv_text(MANIFEST_FIELDS, rows)))
