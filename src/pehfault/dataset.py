"""Labeled vibration recordings, every file syntax the package reads or writes
(key=value, headed CSV, manifest, design table, recordings), the end-to-end
feature pipeline, and a synthetic surrogate corpus generator.

Manifest format: CSV with header row `path,label,bearing_type,load_w,fs_hz`;
paths are resolved relative to the manifest's directory.

Recording formats:
  * text: one decimal value per line (any extension other than the raw ones);
  * raw: little-endian 32-bit floats (`.f32` or `.raw`), optionally with a
    sidecar text header `<file>.hdr` declaring `fs_hz=` and `n_samples=`.

Every input-file rule (a path that names no file, any other OS error, UTF-8
and a leading BOM, unknown and repeated keys, `file:line` in each error) lives
in read_file, read_text, read_key_values and read_csv_table; each format
declares only its keys or columns and their converters.
"""

from __future__ import annotations

import csv
import enum
import errno
import io
import math
import os
import stat
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .errors import ConfigError, DataError
from .frontend import interval_samples
from .harvester import PehDesign, filter_coefficients, float_text
from .signals import TimeSeries, window_samples

MANIFEST_FIELDS = ("path", "label", "bearing_type", "load_w", "fs_hz")
DESIGN_TABLE_FIELDS = ("name", "thickness_mm", "f0_hz", "bw3db_hz", "peak_gain_v_per_g")
VALID_LOADS_W = (0, 200, 400)
RAW_SUFFIXES = (".f32", ".raw")
_DIGITS = b"0123456789"
# In a plain decimal, the bytes that may come before and after each sign and `e`.
_NEIGHBOURS = {ord("-"): (b"\neE", _DIGITS + b"."), ord("+"): (b"eE", _DIGITS)}
_NEIGHBOURS |= dict.fromkeys(b"eE", (_DIGITS + b".", _DIGITS + b"+-"))


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
            raise DataError(UNKNOWN_STATE.format(value=token)) from None


STATES = tuple(state.value for state in MachineState)
UNKNOWN_STATE = f"unknown label token {{value!r}} (valid: {', '.join(STATES)})"


@dataclass(frozen=True)
class RecordingMeta:
    path: str
    label: MachineState
    bearing_type: str
    load_w: int
    fs: float

    def __post_init__(self) -> None:
        if not 0 < self.fs < math.inf:  # NaN fails too
            raise DataError(f"{self.path}: sampling rate must be positive and finite, got {self.fs}")
        if self.load_w not in VALID_LOADS_W:
            raise DataError(f"{self.path}: load must be one of {VALID_LOADS_W} W, got {self.load_w}")


@dataclass(frozen=True)
class Manifest:
    entries: tuple[RecordingMeta, ...]
    root: Path


def read_file(path: Path, what: str, error: type[Exception], *, size: bool = False, optional: bool = False) -> bytes | int:
    """A regular file's bytes, from one open that never waits on a FIFO, or
    with `size` its size, from one os.stat and no open. A path that names no
    regular file (missing, a non-directory on it, a directory, a FIFO, a
    symlink loop, a name too long, a NUL) raises `error` `<what> not found:
    <path>`, or reads as b"" if `optional`; any other OSError raises `error`
    `<what> <path>: <reason>`."""
    try:
        if not size:
            with open(path, "rb", opener=lambda name, flags: os.open(name, flags | getattr(os, "O_NONBLOCK", 0))) as file:
                if stat.S_ISREG(os.fstat(file.fileno()).st_mode):
                    return file.read()
        elif stat.S_ISREG((info := os.stat(path)).st_mode):
            return info.st_size
    except (OSError, ValueError) as exc:  # a ValueError: the path holds a NUL
        if getattr(exc, "errno", errno.ENOENT) not in (errno.ENOENT, errno.ENOTDIR, errno.EISDIR, errno.ELOOP, errno.ENAMETOOLONG):
            raise error(f"{what} {path}: {exc.strerror or exc}") from None
    if not optional:
        raise error(f"{what} not found: {path}")
    return b""


def read_text(path: str | Path, what: str, error: type[Exception], optional: bool = False) -> str:
    """The contents of a UTF-8 text file, one leading BOM dropped (see
    read_file for a path that names no file, and for `optional`); a byte that
    is not UTF-8 raises `<path>: not UTF-8 text (byte <offset>)`."""
    path = Path(path)
    return _utf8(read_file(path, what, error, optional=optional), path, error)


def _utf8(data: bytes, path: Path, error: type[Exception]) -> str:
    try:
        return data.decode().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text (byte {exc.start})") from None


def read_key_values(path: str | Path, what: str, error: type[Exception], keys: dict[str, Callable], optional: bool = False) -> dict:
    """The values of a flat key=value file, each converted by its key's entry
    in `keys`. Both sides are stripped; blank lines and `#` comment lines are
    skipped. A line without `=`, a key not in `keys`, a key given twice or a
    value whose converter raises ValueError raises `error` naming the file and
    line (see read_text for the file itself, and for `optional`)."""
    values = {}
    for lineno, line in enumerate(read_text(path, what, error, optional).splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, value = (part.strip() for part in line.partition("="))
        if not equals:
            raise error(f"{path}:{lineno}: expected key=value, got {line!r}")
        if key not in keys:
            raise error(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise error(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = keys[key](value)
        except ValueError as exc:
            raise error(f"{path}:{lineno}: {exc}") from None
    return values


def read_csv_table(
    path: str | Path, what: str, columns: dict[str, Callable[[str], Any]], make: Callable, unique: Sequence[str] = ()
) -> list:
    """One `make(*values)` per data row of a CSV file whose header is the
    names of `columns`, each field stripped and converted by its column's
    entry. Blank lines are skipped. A row of the wrong length, a converter or
    `make` raising ValueError or DataError, or a row repeating another's
    `unique` attribute is a DataError naming the physical line (see read_text
    for the file itself)."""
    reader = csv.reader(io.StringIO(read_text(path, what, DataError), newline=""))
    # A blank line is no field or one whitespace-only field.
    rows = [(reader.line_num, [f.strip() for f in row]) for row in reader if len(row) > 1 or "".join(row).strip()]
    if not rows:
        raise DataError(f"empty {what}: {path}")
    (header_line, found), rows = rows[0], rows[1:]
    if tuple(found) != tuple(columns):
        raise DataError(f"{path}:{header_line}: {what} header must be {','.join(columns)}, got {','.join(found)!r}")
    made, seen = [], {name: set() for name in unique}
    for lineno, fields in rows:
        if len(fields) != len(columns):
            raise DataError(f"{path}:{lineno}: expected {len(columns)} fields, got {len(fields)}")
        try:
            made.append(make(*(convert(field) for convert, field in zip(columns.values(), fields))))
        except (ValueError, DataError) as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        for name, values in seen.items():
            if getattr(made[-1], name) in values:
                raise DataError(f"{path}:{lineno}: duplicate {name} {getattr(made[-1], name)!r}")
            values.add(getattr(made[-1], name))
    return made


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A CSV document: strings and integers (numpy's too) as they are, every
    other number as repr(float(x)), so it round-trips exactly, a field holding
    a comma or quote quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([cell if isinstance(cell, (str, int, np.integer)) else repr(float(cell)) for cell in row] for row in rows)
    return out.getvalue()


def load_manifest(path: str | Path) -> Manifest:
    """Parse and validate a manifest CSV; duplicate paths are rejected."""
    columns = dict(zip(MANIFEST_FIELDS, (str, MachineState.from_token, str, int, float)))
    entries = read_csv_table(path, "manifest", columns, RecordingMeta, unique=("path",))
    root = Path(path).resolve().parent
    for meta in entries:
        read_file(root / meta.path, f"{path}: recording file", DataError, size=True)
    return Manifest(tuple(entries), root)


def load_design_table(path: str | Path) -> tuple[PehDesign, ...]:
    """Read a design table from CSV with header name,thickness_mm,f0_hz,bw3db_hz,peak_gain_v_per_g;
    a repeated name or thickness is rejected, and so is a table without a design."""
    columns = dict(zip(DESIGN_TABLE_FIELDS, (str, float, float, float, float)))
    if not (designs := tuple(read_csv_table(path, "design table", columns, PehDesign, unique=("name", "thickness_mm")))):
        raise DataError(f"empty design table: {path}")
    return designs


def _plain_decimals(data: bytes) -> np.ndarray | None:
    """The values of `data` if each line (`\\n` or `\\r\\n` ended) is a plain decimal,
    `-?(\\d+\\.?\\d*|\\.\\d+)([eE][+-]?\\d+)?`, parsed by one scipy.io.mmread call
    to the bits `float()` gives; else None. mmread reads a prefix of each line
    and ignores the rest (`1.2.3` reads as 1.2), so the grammar is proved first
    on the digit-free skeleton and at each sign and `e`, except a lone `.` as
    mantissa, on which mmread raises."""
    data = data.replace(b"\r\n", b"\n") if b"\r" in data else data
    data += b"" if data.endswith(b"\n") else b"\n"
    skeleton = data.translate(None, _DIGITS)
    if skeleton.translate(None, b".eE+-\n") or data[:1] == b"\n" or (b"\n\n" in skeleton and b"\n\n" in data):
        return None  # a byte outside the grammar, or a blank line
    # Without its signs, and with `E` as `e`, each line reads `.`, `e`, `.e` or nothing.
    shape = np.frombuffer(skeleton.translate(bytes.maketrans(b"E", b"e"), b"+-"), np.uint8)
    left, right = shape[:-1], shape[1:]
    if ((left != ord("\n")) & (right != ord("\n")) & ((left != ord(".")) | (right != ord("e")))).any():
        return None
    view = np.frombuffer(data, np.uint8)  # ends in a line break: at + 1 stays in it, and at - 1 wraps to that break
    for mark, (before, after) in _NEIGHBOURS.items():
        if mark not in skeleton:
            continue
        for start in range(0, len(view), 1 << 18):  # in blocks, to keep the mask small
            at = start + np.flatnonzero(view[start : start + (1 << 18)] == mark)
            if view[at - 1].tobytes().translate(None, before) or view[at + 1].tobytes().translate(None, after):
                return None
    import scipy.io  # deferred: only text recordings need it, and it imports scipy.sparse

    # A one-column array file: a header, then the bytes themselves, not a copy.
    parts = iter([b"%%%%MatrixMarket matrix array real general\n%d 1\n" % skeleton.count(b"\n"), data])
    try:
        values = scipy.io.mmread(SimpleNamespace(read=lambda size=-1: next(parts, b""))).reshape(-1)
    except ValueError:
        return None
    zero = np.flatnonzero(values == 0)
    if zero.size and b"-" in skeleton:  # mmread reads `-0` as +0.0; a zero takes the sign its line starts with
        starts = np.flatnonzero(view == ord("\n")) + 1  # line i starts at starts[i - 1]; line 0 at starts[-1] % len
        values[zero] = np.where(view[starts[zero - 1] % len(data)] == ord("-"), -0.0, 0.0)
    return values if np.isfinite(values).all() else None


def _load_text_recording(full: Path) -> np.ndarray:
    """One value per line, read as `float(line)` reads it, blank lines skipped,
    from one read of the file: by _plain_decimals, or else by a per-line loop
    that takes what `float()` takes beyond that grammar and names `file:line`."""
    data = read_file(full, "recording file", DataError)
    samples = _plain_decimals(data)
    if samples is not None:
        return samples
    values = []
    for lineno, line in enumerate(_utf8(data, full, DataError).splitlines(), start=1):
        token = line.strip()
        if not token:
            continue
        try:
            value = float(token)
        except ValueError:
            raise DataError(f"{full}:{lineno}: unparseable sample {token!r}") from None
        if not math.isfinite(value):
            raise DataError(f"{full}:{lineno}: non-finite sample {token!r}")
        values.append(value)
    return np.asarray(values, dtype=np.float64)


def _sidecar_value(rule: str, ok: Callable[[float], bool]) -> Callable[[str], float]:
    """A sidecar value converter: the number, if it passes `ok`."""

    def convert(value: str) -> float:
        if not ok(float(value)):
            raise ValueError(f"{rule}, got {value!r}")
        return float(value)

    return convert


SIDECAR_KEYS = {
    "fs_hz": _sidecar_value("fs_hz must be finite", math.isfinite),
    "n_samples": _sidecar_value("n_samples must be a whole number", float.is_integer),  # NaN and infinity fail too
}


def _load_raw_recording(full: Path, fs: float) -> np.ndarray:
    data = read_file(full, "recording file", DataError)
    if len(data) % 4 != 0:
        raise DataError(f"{full}: raw float32 file size {len(data)} is not a multiple of 4")
    samples = np.frombuffer(data, dtype="<f4")
    sidecar = full.with_name(full.name + ".hdr")
    declared = read_key_values(sidecar, "sidecar", DataError, SIDECAR_KEYS, optional=True)
    if "n_samples" in declared and declared["n_samples"] != len(samples):
        raise DataError(f"{sidecar}: sidecar declares {int(declared['n_samples'])} samples, file holds {len(samples)}")
    if "fs_hz" in declared and abs(declared["fs_hz"] - fs) > 1e-6 * fs:
        raise DataError(f"{sidecar}: sidecar declares fs={declared['fs_hz']!r} Hz, manifest says {fs!r} Hz")
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise DataError(f"{full}: non-finite sample at index {bad[0]}")
    return samples


def load_recording(meta: RecordingMeta, root: str | Path = ".") -> TimeSeries:
    """Read one recording as acceleration in g, with fs taken from the
    metadata. The samples are as the file stores them: float32 from a raw
    file, float64 from a text file."""
    full = Path(root) / meta.path
    samples = _load_raw_recording(full, meta.fs) if full.suffix in RAW_SUFFIXES else _load_text_recording(full)
    if len(samples) == 0:
        raise DataError(f"{full}: recording holds no samples")
    return TimeSeries(samples, meta.fs)


def write_atomic(path: str | Path, content: str | bytes | np.ndarray) -> Path:
    """Write one file atomically: a temporary file in the target directory,
    then a rename over the target, so no partial file is left. Text is
    written as UTF-8 whatever the locale, as every reader demands; anything
    else is written as the bytes of its buffer (bytes, a contiguous array).
    An OSError becomes a DataError naming the target."""
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(content, encoding="utf-8") if isinstance(content, str) else tmp.write_bytes(content)
            os.replace(tmp, target)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise DataError(f"cannot write {target}: {exc.strerror or exc}") from None
    return target


def write_recording_f32(samples: np.ndarray, fs: float, path: str | Path) -> None:
    """Write a raw little-endian float32 recording plus its sidecar header.
    The samples are written from their buffer, copied only if they are not
    contiguous little-endian float32."""
    path = Path(path)
    data = np.ascontiguousarray(samples, dtype="<f4")
    write_atomic(path, data)
    write_atomic(path.with_name(path.name + ".hdr"), f"fs_hz={float_text(fs)}\nn_samples={len(data)}\n")


def in_order(
    jobs: Iterable[Sequence[tuple]], finish: Callable[[list], None], n_jobs: int, *, per_worker: int = 1
) -> None:
    """Run `jobs` on a thread pool and pass each one's results to `finish`
    on the calling thread, in job order. A job is a list of calls `(fn,
    *args)`; finish(results) gets their return values in call order.

    The pool has one thread per CPU this process may run on (os.cpu_count()
    where the affinity mask is not available), at most n_jobs, at least one.
    Jobs are drawn from `jobs` lazily on the calling thread while at most
    per_worker jobs per thread are in the pool, so a draw (a block of loads
    and checks, a buffer) overlaps the work, and with per_worker=2 a thread
    that finishes a job while the calling thread runs `finish` of an earlier
    one has the next job waiting. An error raised drawing, running or finishing
    job i comes out after finish of every earlier job and before that of any
    later one, so the number of jobs finished is the index of the job that
    failed. On any error the calls not yet started are cancelled, and no
    thread outlives the call.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = max(1, min(cpus, n_jobs))
    depth = workers * per_worker  # the most jobs in the pool
    jobs, pending = iter(jobs), deque()  # pending: each job's futures, in job order

    def settle() -> None:
        finish([future.result() for future in pending.popleft()])

    pool = ThreadPoolExecutor(workers)
    try:
        while True:
            try:
                job = next(jobs, None)
            except Exception:
                while pending:  # an error of an earlier job comes first
                    settle()
                raise
            if job is None:
                break
            while len(pending) >= depth:
                settle()
            pending.append([pool.submit(*call) for call in job])
        while pending:
            settle()
    finally:
        pool.shutdown(cancel_futures=True)


# The most samples one pipeline job filters (2 MB as float64): recordings that
# follow each other in the manifest at one sampling rate are stacked into one
# block up to this; a longer recording is a block on its own.
BLOCK_SAMPLES = 1 << 18


def build_feature_sets(
    manifest: Manifest,
    designs: Sequence[PehDesign],
    segment_s: float,
    segments_per_recording: int,
    periods: Sequence[float],
    r_ohm: float,
) -> list[list[np.ndarray]]:
    """Run the full pipeline over every recording in one pass: segment,
    filter each segment through each design's harvester, and integrate the
    per-interval energies (see filter_and_integrate).

    Returns sets[i][j], the float64 (n, dim) feature matrix of designs[i] at
    integration period periods[j] (neither list empty). Row r of every matrix
    is segment r % S of the (r // S)-th manifest entry, where S is
    segments_per_recording. Each recording is loaded and segmented once, each
    segment is filtered once per design (from zero state), and each voltage
    is integrated once per period. Every segment must give one dimension per
    period: a recording whose sampling rate rounds to another is a DataError.

    The recordings run through in_order in blocks: float64 (rows, n_win)
    arrays of at most BLOCK_SAMPLES samples, each allocated, then filled
    with the segments of recordings that follow each other at one sampling
    rate; that copy is the one widening. A block closes as soon as one more
    recording like its last would overflow it. It is one job, one call per
    design: the calling thread loads and checks its recordings in manifest
    order (segmentation, each design's sampling rate, each period's
    intervals and feature count) while the pool filters and integrates. Rows
    are independent, so the result does not depend on the blocks or the
    thread count, and the first error is the serial loop's: a feature that is
    not finite (an overflow) is a DataError naming its recording, design,
    period and r_ohm.
    """
    entries, count = manifest.entries, segments_per_recording

    def job(pieces, filters, windows, fs):
        return [(filter_and_integrate, pieces, b, a, windows, r_ohm * fs) for b, a in filters]

    def segments(meta: RecordingMeta) -> np.ndarray:
        """A recording's (count, n_win) segments, loaded and checked, as stored."""
        ts = load_recording(meta, manifest.root)
        n_win = window_samples(len(ts), ts.fs, segment_s, count)
        return ts.samples[: count * n_win].reshape(count, n_win)

    def jobs():
        start, dims = 0, []
        while start < len(entries):
            first, fs = segments(entries[start]), entries[start].fs
            filters = [filter_coefficients(design, fs) for design in designs]
            windows = [interval_samples(first.shape[1], fs, period_s, r_ohm) for period_s in periods]
            dims = dims or [dim for _, dim in windows]  # the first recording's counts rule; a block shares one rate
            for period_s, (_, dim), first_dim in zip(periods, windows, dims):
                if dim != first_dim:
                    raise DataError(
                        f"{dim} features per segment at T={period_s:g}s, where "
                        f"{entries[0].path} gives {first_dim} (the sampling rates differ)"
                    )
            stop, last = start + 1, min(start + BLOCK_SAMPLES // first.size, len(entries))
            while stop < last and entries[stop].fs == fs:
                stop += 1
            block = np.empty(((stop - start) * count, first.shape[1]))
            block[:count] = first
            del first  # the file's samples: free before the block waits for a pool slot
            for index in range(1, stop - start):
                try:
                    block[index * count : (index + 1) * count] = segments(entries[start + index])
                except Exception:  # the recordings before it are finished first: errors keep manifest order
                    yield job(block[: index * count], filters, windows, fs)
                    raise
            yield job(block, filters, windows, fs)
            start = stop

    done: list[list[list[np.ndarray]]] = []  # done[block][design][period]
    finished = 0  # recordings finished

    def finish(results: list[list[np.ndarray]]) -> None:
        nonlocal finished
        size = len(results[0][0]) // count  # recordings in the block: a matrix has one row per segment
        # finite[i, j, r]: every feature of recording r of the block for designs[i] at periods[j] is finite
        finite = np.array([[np.isfinite(m).reshape(size, -1).all(axis=1) for m in matrices] for matrices in results])
        if not finite.all():
            bad = int(np.argmin(finite.all(axis=(0, 1))))
            i, j = np.argwhere(~finite[:, :, bad])[0]
            finished += bad
            raise DataError(f"a feature of {designs[i].name} at T={periods[j]:g}s, r_ohm={r_ohm:g} is not finite")
        done.append(results)
        finished += size

    try:
        in_order(jobs(), finish, len(entries))
    except (DataError, ValueError) as exc:
        raise DataError(f"{entries[finished].path}: {exc}") from exc
    return [
        [np.vstack([blocks[i][j] for blocks in done] or [np.empty((0, 0))]) for j in range(len(periods))]
        for i in range(len(designs))
    ]


def filter_and_integrate(pieces, b, a, windows, scale) -> list[np.ndarray]:
    """The feature kernel: filter each row of `pieces` from zero state with
    the biquad (b, a), all rows in one lfilter call, square them, and sum
    each over each (samples per interval, intervals) of `windows`, divided by
    `scale` (R * fs). Returns one (len(pieces), intervals) matrix per window.
    An overflow gives inf without a warning; the callers reject it."""
    from scipy.signal import lfilter  # on first use: a ~1 s import that energy-report and surrogate-gen never need

    v = lfilter(b, a, pieces)
    with np.errstate(all="ignore"):
        np.square(v, out=v)
        return [v[:, : dim * n_per].reshape(len(v), dim, n_per).sum(axis=2) / scale for n_per, dim in windows]


@dataclass(frozen=True)
class ClassSignalSpec:
    """Tone mix (f_hz, amplitude) and white-noise level for one synthetic state."""

    tones: tuple[tuple[float, float], ...]
    noise_sigma: float = 0.0


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
        if not (0 < self.fs < math.inf and 0 < self.duration_s < math.inf):  # NaN fails too
            raise ConfigError(f"fs_hz={self.fs:g} and duration_s={self.duration_s:g} must be positive and finite")
        if not math.isfinite(self.duration_s * self.fs):
            raise ConfigError(f"duration_s={self.duration_s:g} at fs_hz={self.fs:g} is not a finite number of samples")
        n_samples = round(self.duration_s * self.fs)
        if n_samples < 1:
            raise ConfigError(f"duration_s={self.duration_s:g} at fs_hz={self.fs:g} gives {n_samples} samples; need >= 1")
        if not 0 <= self.amplitude_jitter < 1:
            raise ConfigError(f"amplitude jitter must lie in [0, 1), got {self.amplitude_jitter}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.load_w not in VALID_LOADS_W:  # the manifest it writes must load
            raise ConfigError(f"load_w must be one of {VALID_LOADS_W} W, got {self.load_w}")
        for state, cspec in self.classes.items():
            if not 0 <= cspec.noise_sigma < math.inf:  # NaN fails too
                raise ConfigError(f"{state.value}: noise sigma must be non-negative and finite, got {cspec.noise_sigma}")
            for f_hz, amplitude in cspec.tones:
                if not 0 < f_hz < self.fs / 2:
                    raise ConfigError(f"{state.value}: tone at {f_hz} Hz outside (0, fs/2)")
                if not math.isfinite(amplitude):
                    raise ConfigError(f"{state.value}: tone at {f_hz} Hz: amplitude must be finite, got {amplitude}")
            # Recordings are float32. A normal draw of numpy's stays within 14 sigma, so 40 bound the noise.
            peak = sum(abs(amp) for _, amp in cspec.tones) * (1 + self.amplitude_jitter) + 40 * cspec.noise_sigma
            if not peak < float(np.finfo(np.float32).max):
                raise ConfigError(f"{state.value}: tones and noise can reach {peak:g} g, past the float32 range")


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


def _tones(value: str) -> tuple[tuple[float, float], ...]:
    pairs = [pair.split(":") for pair in value.split(",") if pair.strip()]
    if not all(len(pair) == 2 for pair in pairs):
        raise ValueError(f"tones must be f:amp,f:amp,..., got {value!r}")
    return tuple((float(f_hz), float(amplitude)) for f_hz, amplitude in pairs)


RECIPE_KEYS = dict(count_per_class=int, fs_hz=float, duration_s=float, amplitude_jitter=float, bearing_type=str, load_w=int, seed=int)
RECIPE_KEYS.update({f"{state.value}.tones": _tones for state in MachineState})
RECIPE_KEYS.update({f"{state.value}.noise_sigma": float for state in MachineState})


def load_surrogate_spec(path: str | Path) -> SurrogateSpec:
    """Read a surrogate recipe from a flat key-value file.

    Plain keys: count_per_class, fs_hz, duration_s, amplitude_jitter,
    bearing_type, load_w, seed. Per-class keys use a `<label>.` prefix:
    `<label>.tones=f:amp,f:amp,...` and `<label>.noise_sigma=`.
    """
    values = read_key_values(path, "surrogate spec", ConfigError, RECIPE_KEYS)
    for key in values:
        if key.endswith(".noise_sigma") and key.replace("noise_sigma", "tones") not in values:
            raise ConfigError(f"{path}: {key} is given without {key.replace('noise_sigma', 'tones')}")
    plain = {("fs" if key == "fs_hz" else key): value for key, value in values.items() if "." not in key}
    try:
        classes = {
            state: ClassSignalSpec(values[f"{state.value}.tones"], values.get(f"{state.value}.noise_sigma", 0.0))
            for state in MachineState
            if f"{state.value}.tones" in values
        }
        if not classes:
            raise ConfigError("no per-class tone lists given")
        return SurrogateSpec(classes, **plain)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# Samples computed at a time per recording: each tone's temporaries stay small
# (128 KB as float64).
SYNTH_BLOCK = 16384


def _synth_class_recording(cspec: ClassSignalSpec, fs: float, jitter: float, rng, out: np.ndarray) -> np.ndarray:
    """Fill `out` with one recording and return it: every tone's amplitude
    and phase drawn first, in tone order, then each block of SYNTH_BLOCK
    samples summed from zero tone by tone, plus white noise, and stored as
    out's dtype. The generator is this recording's alone and every operation
    is per sample, so the samples do not depend on the block size."""
    tones = []
    for f_hz, amplitude in cspec.tones:
        amp = amplitude * rng.uniform(1.0 - jitter, 1.0 + jitter)
        tones.append((f_hz, amp, rng.uniform(0.0, 2.0 * np.pi)))
    for start in range(0, len(out), SYNTH_BLOCK):
        t = np.arange(start, min(start + SYNTH_BLOCK, len(out))) / fs
        block = np.zeros(len(t))
        for f_hz, amp, phase in tones:
            block += amp * np.sin(2 * np.pi * f_hz * t + phase)
        if cspec.noise_sigma > 0:
            block += cspec.noise_sigma * rng.standard_normal(len(t))
        out[start : start + len(t)] = block
    return out


def synth_surrogate_corpus(spec: SurrogateSpec, seed: int, out_dir: str | Path) -> Manifest:
    """Write a seeded synthetic corpus (recordings + manifest.csv) and load it back.

    Byte-identical output for identical spec and seed. A failed write is a
    DataError naming the file (see write_atomic).

    The recordings run through in_order, one job each and two per worker,
    so a worker has its next recording queued while the calling thread
    writes: the calling thread allocates each float32 buffer, the pool
    computes the recording into it, and the calling thread writes each
    recording (from its buffer) and its sidecar in order, then the manifest.
    Each recording has its own generator, so the bytes do not depend on the
    thread count. On an error nothing later is written.
    """
    out_dir = Path(out_dir)
    states = sorted(spec.classes, key=lambda s: s.value)
    # One seed per recording slot, shared across classes: identical class
    # recipes then synthesize identical recordings (common random numbers).
    slot_seeds = np.random.SeedSequence(seed).spawn(spec.count_per_class)
    slots = [(state, index) for state in states for index in range(spec.count_per_class)]
    n = round(spec.duration_s * spec.fs)
    if n > np.iinfo(np.intp).max // 4:  # past the address space numpy raises ValueError, not MemoryError
        raise MemoryError(f"{n} samples exceed the address space")
    rows = [(f"{s.value}_{i:02d}.f32", s.value, spec.bearing_type, spec.load_w, float_text(spec.fs)) for s, i in slots]
    jobs = (  # lazy: each buffer is allocated as in_order draws its recording
        [(_synth_class_recording, spec.classes[s], spec.fs, spec.amplitude_jitter, np.random.default_rng(slot_seeds[i]),
          np.empty(n, dtype="<f4"))]
        for s, i in slots
    )
    paths = (out_dir / row[0] for row in rows)
    in_order(jobs, lambda results: write_recording_f32(results[0], spec.fs, next(paths)), len(slots), per_worker=2)
    return load_manifest(write_atomic(out_dir / "manifest.csv", csv_text(MANIFEST_FIELDS, rows)))
