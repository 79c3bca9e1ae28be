"""Command-line entry point tying the pipeline together.

Subcommands: thought-experiment, extract, classify, sweep, scatter,
energy-report, surrogate-gen. Every command is deterministic under a fixed
seed; CSV files are the normative outputs and SVG is derived from them.

Exit codes: 0 success, 1 closed stdout, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import codecs
import math
import os
import sys
from collections import Counter
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .classify import METRICS, draw_splits, repeated_evaluation
from .dataset import (
    DEFAULT_SURROGATE_SPEC,
    RAW_SUFFIXES,
    STATES,
    UNKNOWN_STATE,
    MachineState,
    build_feature_sets,
    csv_text,
    load_design_table,
    load_manifest,
    load_surrogate_spec,
    read_key_values,
    synth_surrogate_corpus,
    write_atomic,
)
from .errors import ConfigError, DataError
from .frontend import MIN_CYCLES_PER_PERIOD, mean_state_energy
from .harvester import DEFAULT_DESIGNS, MIN_FS_PER_F0, design_from_thickness, filter_coefficients
from .report import format_sampling_cost, format_thought_experiment, run_thought_experiment, scatter_svg
from .signals import window_samples

EXIT_OK = 0
EXIT_CLOSED_STDOUT = 1
EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3


# The subcommands that take a parameter.
FEATURES = ("extract", "classify", "sweep", "scatter")
SIMULATING = ("thought-experiment", *FEATURES)
KNN = ("classify", "sweep")
EVERY = (*SIMULATING, "energy-report", "surrogate-gen")


def _comma_floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _comma_strs(raw: str) -> tuple:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _boolean(raw: str) -> bool:
    if raw.lower() not in ("true", "1", "yes", "on", "false", "0", "no", "off"):
        raise ValueError(f"expected a boolean, got {raw!r}")
    return raw.lower() in ("true", "1", "yes", "on")


# A check is (ok, message): a value that is not ok(value) is a ConfigError
# whose message is formatted with the parameter's name, value, flag and `what`.
FINITE = (lambda value: np.isfinite(value).all(), "{name} must be finite, got {value}")
POSITIVE = (lambda value: np.greater(value, 0).all(), "{name} must be positive, got {value}")
AT_LEAST_ONE = (lambda n: n >= 1, "{name} must be >= 1, got {value}")
# At most the largest float, so that an int too large to convert fails here, not in a product.
NON_NEGATIVE = (lambda value: 0 <= value <= sys.float_info.max, "{name} must be non-negative and finite, got {value}")
NOT_EMPTY = (bool, "{flag} is empty: give at least one {what}")
ONCE = (lambda values: len(set(values)) == len(values), "{flag} repeats a value in {value}: give each {what} once")


def _param(default, flag=None, commands=(), *checks, parse=None, what=None, **options):
    """A run parameter: its default, its flag, the subcommands that take it and
    its checks in order; the parser of its flag's and config key's value (the
    default's type unless given), what one value is, and argparse options."""
    metadata = dict(parse=parse or type(default), flag=flag, commands=commands, checks=checks, what=what, options=options)
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """One experiment's parameters, each declared once, here; every field is
    also a key of the flat key=value config file. A list compares its values as
    parsed, so 0.5 and 0.50 are one value."""

    manifest: str = _param("", "--manifest", FEATURES, metavar="CSV", help="recording manifest")
    design_table: str = _param("", "--design-table", SIMULATING, metavar="CSV", help="override the built-in design table")
    thickness_mm: float = _param(0.50, "--thickness", ("extract", "classify"), FINITE, help="design thickness in mm")
    thicknesses: tuple = _param((0.35, 0.40, 0.45, 0.50), "--thicknesses", ("sweep", "scatter"), FINITE, NOT_EMPTY, ONCE,
                                parse=_comma_floats, what="design thickness", help="comma-separated design thicknesses in mm")
    t_s: float = _param(3.0, "--T", ("thought-experiment", "extract", "classify", "scatter", "energy-report"),
                        FINITE, POSITIVE, help="integration period in seconds")
    t_values: tuple = _param((3.0,), "--t-values", ("sweep",), FINITE, POSITIVE, NOT_EMPTY, ONCE,
                             parse=_comma_floats, what="integration period", help="comma-separated integration periods in s")
    r_ohm: float = _param(1.0, "--r-ohm", SIMULATING, FINITE, POSITIVE, help="load resistance in Ohms")
    segment_s: float = _param(3.0, "--segment", FEATURES, FINITE, POSITIVE, help="segment length in seconds")
    segments_per_recording: int = _param(3, "--segments", FEATURES, AT_LEAST_ONE, help="segments per recording")
    train_fraction: float = _param(0.8, "--train-fraction", KNN, (lambda f: 0 < f < 1, "train fraction must lie in (0, 1)"))
    stratified: bool = _param(True, parse=_boolean)
    seed: int = _param(0, "--seed", EVERY, (lambda s: s >= 0, "seed must be non-negative, got {value}"), help="base random seed")
    n_repeats: int = _param(20, "--repeats", KNN, AT_LEAST_ONE, help="number of seeded splits")
    k: int = _param(3, "--k", KNN, AT_LEAST_ONE, help="number of neighbors")
    metric: str = _param("raw", "--metric", KNN, (METRICS.__contains__, f"metric must be one of {METRICS}"), choices=METRICS)
    labels: tuple = _param((), "--labels", FEATURES, ONCE,
                           parse=_comma_strs, what="machine state", help="restrict to these machine states (comma separated)")
    bearing_type: str = _param("", "--bearing-type", FEATURES, help="restrict to one bearing type")
    load_w: int = _param(-1, "--load-w", FEATURES,
                         (lambda w: w >= -1, "load_w must be a load in Watts, or -1 for any load, got {value}"),
                         help="restrict to one load in Watts")
    fs_synth: float = _param(51200.0, None, (), FINITE, POSITIVE)
    fault_label: str = _param("ball_crack", "--fault-label", ("scatter",),
                              (STATES.__contains__, "{name}: " + UNKNOWN_STATE),
                              ("healthy".__ne__, "{flag} must name a fault state, not healthy, which it is compared with"),
                              help="fault state to compare against healthy")
    surrogate_spec: str = _param("", "--spec", ("surrogate-gen",), metavar="PATH", help="surrogate recipe file (default: built-in)")
    out_dir: str = _param("out", "--out", EVERY, metavar="DIR", help="output directory (default: out)")
    f_healthy: float = _param(200.0, "--f-healthy", ("thought-experiment",), help="healthy vibration frequency (Hz)")
    f_faulty: float = _param(150.0, "--f-faulty", ("thought-experiment",), help="faulty vibration frequency (Hz)")
    design_a: float = _param(0.50, "--design-a", ("thought-experiment",), metavar="MM", help="thickness matched to the healthy state")
    design_b: float = _param(0.40, "--design-b", ("thought-experiment",), metavar="MM", help="thickness matched to the faulty state")
    # Linear per-sample acquisition costs: illustrative placeholders for a generic
    # ADC + low-power radio, not measured figures; both architectures are costed
    # with the same model.
    e_adc_per_sample_j: float = _param(2e-9, "--e-adc", ("energy-report",), NON_NEGATIVE, help="ADC J/sample")
    e_tx_per_sample_j: float = _param(1.6e-6, "--e-tx", ("energy-report",), NON_NEGATIVE, help="radio J/sample")
    bits_per_sample: int = _param(16, "--bits", ("energy-report",), NON_NEGATIVE, help="bits per transmitted sample")
    fs_raw_hz: float = _param(51200.0, "--fs-raw", ("energy-report",),
                              (lambda fs: 0 < fs <= sys.float_info.max, "{name} must be positive and finite, got {value}"),
                              help="raw acquisition rate (Hz)")


def parse_config_file(path: str | Path) -> dict:
    return read_key_values(path, "config file", ConfigError, {f.name: f.metadata["parse"] for f in fields(RunConfig)})


def validate_config(cfg: RunConfig) -> None:
    """Every parameter's checks, in the order of the fields."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        for ok, message in f.metadata["checks"]:
            if not ok(value):
                raise ConfigError(message.format(name=f.name, value=value, **f.metadata))


def _check_periods(periods, designs, segment_s: float = math.inf) -> None:
    """Every integration period fits in a segment of segment_s and spans at
    least MIN_CYCLES_PER_PERIOD cycles of the lowest resonance in use."""
    for t_s in periods:
        if t_s > segment_s:
            raise ConfigError(f"integration period {t_s:g}s cannot exceed the segment length {segment_s:g}s")
    slowest = min(designs, key=lambda design: design.f0_hz)
    for t_s in periods:
        if t_s * slowest.f0_hz < MIN_CYCLES_PER_PERIOD:
            raise ConfigError(
                f"integration period {t_s:g}s spans {t_s * slowest.f0_hz:g} cycles of {slowest.name} "
                f"({slowest.f0_hz:g} Hz); it needs >= {MIN_CYCLES_PER_PERIOD:g} (T >= "
                f"{MIN_CYCLES_PER_PERIOD / slowest.f0_hz:g}s)"
            )


def resolve_config(args: argparse.Namespace) -> tuple[RunConfig, set[str]]:
    """The checked run parameters, each the field's default unless the config
    file gives its key, and that unless the flag is given; and the names of
    those given (the flags' dests are the field names)."""
    given = parse_config_file(args.config) if args.config else {}
    given.update((name, value) for name, value in vars(args).items() if value is not None and name in RunConfig.__dataclass_fields__)
    cfg = RunConfig(**given)
    validate_config(cfg)
    return cfg, set(given)


def _designs(cfg: RunConfig, *keys: str) -> list:
    """The designs of the thicknesses that these keys hold (one or a list
    each), in the configured design table; an unknown one names its key."""
    table = load_design_table(cfg.design_table) if cfg.design_table else DEFAULT_DESIGNS
    designs = []
    for key in keys:
        value = getattr(cfg, key)
        try:
            designs += [design_from_thickness(t, table) for t in (value if isinstance(value, tuple) else (value,))]
        except ValueError as exc:
            raise ConfigError(f"{cfg.design_table}: {key}: {exc}" if cfg.design_table else f"{key}: {exc}") from None
    return designs


def _features(cfg: RunConfig, key: str, periods, *, split: bool = False, states=()) -> tuple:
    """The designs of the thicknesses in `key`, the kept manifest entries, each row's label, their
    feature sets at these periods (build_feature_sets: rows are the kept entries x segments) and,
    for a kNN `split`, the configured splits (draw_splits), else None; checked before any recording
    is read, in this order: the designs, the periods, the manifest, the labels' states, the entries
    that the labels, bearing_type and load_w filters keep (an empty filter keeps all; at least one
    entry, each sampled at >= MIN_FS_PER_F0 times the highest resonance in use, at a rate whose
    product with r_ohm is finite), each kept file's size, which must hold the segments (else that
    file alone is read for the pipeline's error), for a kNN `split` the classes, the splits' indices
    against physical memory, the splits and the training points k needs, then `states`."""
    designs = _designs(cfg, key)
    _check_periods(periods, designs, cfg.segment_s)
    if not cfg.manifest:
        raise ConfigError("a manifest path is required (--manifest or config key manifest)")
    manifest = load_manifest(cfg.manifest)
    if unknown := [token for token in cfg.labels if token not in STATES]:
        raise ConfigError("labels: " + UNKNOWN_STATE.format(value=unknown[0]))
    fastest = max(designs, key=lambda design: design.f0_hz)
    kept = []
    for meta in manifest.entries:
        if (meta.label.value not in (cfg.labels or STATES) or cfg.bearing_type not in ("", meta.bearing_type)
                or cfg.load_w not in (-1, meta.load_w)):
            continue
        if meta.fs < MIN_FS_PER_F0 * fastest.f0_hz:
            raise DataError(
                f"{cfg.manifest}: {meta.path}: sampling rate {meta.fs:g} Hz < {MIN_FS_PER_F0:g} * f0 = "
                f"{MIN_FS_PER_F0 * fastest.f0_hz:g} Hz of {fastest.name}"
            )
        if not math.isfinite(cfg.r_ohm * meta.fs):  # the energies' divisor: past it every energy reads 0
            raise ConfigError(f"r_ohm={cfg.r_ohm:g} times the sampling rate {meta.fs:g} Hz of {meta.path} is not finite")
        kept.append(meta)
    if not kept:
        raise DataError(f"{cfg.manifest}: no recordings matched the manifest/filters")
    for meta in kept:  # a file's size bounds its samples: 4 bytes each raw, a digit and a line break each as text
        try:
            size = os.stat(os.path.join(manifest.root, meta.path)).st_size
        except (FileNotFoundError, NotADirectoryError):
            raise DataError(f"{cfg.manifest}: recording file not found: {manifest.root / meta.path}") from None
        raw = os.path.splitext(meta.path)[1] in RAW_SUFFIXES
        try:
            window_samples(size // 4 if raw else (size + 1) // 2, meta.fs, cfg.segment_s, cfg.segments_per_recording)
        except ValueError as exc:  # the file cannot hold the segments: its error is the pipeline's, the reader's first
            build_feature_sets(replace(manifest, entries=(meta,)), designs, cfg.segment_s, cfg.segments_per_recording, periods, cfg.r_ohm)
            raise DataError(f"{meta.path}: {exc}") from None
    manifest = replace(manifest, entries=tuple(kept))
    counts = Counter(meta.label.value for meta in manifest.entries)
    labels = np.repeat([meta.label.value for meta in manifest.entries], cfg.segments_per_recording)
    splits = None
    if split:
        if len(counts) < 2:
            raise DataError(f"{cfg.manifest}: classification needs at least 2 labels, found only {next(iter(counts))!r}")
        known = "SC_PHYS_PAGES" in getattr(os, "sysconf_names", ())  # physical memory bounds the splits' indices
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") if known else 0
        if (need := cfg.n_repeats * len(labels) * np.dtype(np.intp).itemsize) > memory > 0:
            raise ConfigError(f"n_repeats={cfg.n_repeats} splits of {len(labels)} rows need {need} bytes of indices, "
                              f"more than the {memory} bytes of physical memory")
        try:
            splits = draw_splits(labels, cfg.n_repeats, train_fraction=cfg.train_fraction, seed=cfg.seed,
                                 stratified=cfg.stratified)
        except ValueError as exc:
            raise DataError(f"{cfg.manifest}: {exc}") from None
        if cfg.k > (n_train := len(splits[0][0])):
            raise ConfigError(f"k={cfg.k} exceeds the {n_train} training points")
    for state in states:
        if state.value not in counts:
            raise DataError(f"{cfg.manifest}: no {state.value!r} recordings matched the manifest/filters")
    sets = build_feature_sets(manifest, designs, cfg.segment_s, cfg.segments_per_recording, periods, cfg.r_ohm)
    return designs, manifest.entries, labels, sets, splits


def _evaluate(cfg: RunConfig, features, labels, splits) -> tuple:
    """repeated_evaluation over these splits with the configured k and metric, plus each
    split's accuracy; features too large or too small for kNN are a config error naming r_ohm."""
    try:
        names, confusions = repeated_evaluation(features, labels, splits, cfg.k, metric=cfg.metric)
    except ArithmeticError as exc:
        raise ConfigError(f"r_ohm={cfg.r_ohm:g}: {exc}") from None
    return names, confusions, np.trace(confusions, axis1=1, axis2=2) / confusions.sum(axis=(1, 2))


def _format_confusion(labels, confusion) -> str:
    width = max([len(lab) for lab in labels] + [6])
    lines = [" " * (width + 2) + "  ".join(f"{lab:>{width}}" for lab in labels) + "  (predicted)"]
    for i, lab in enumerate(labels):
        lines.append(f"{lab:>{width}}  " + "  ".join(f"{confusion[i, j]:>{width}}" for j in range(len(labels))))
    return "\n".join(lines)


def cmd_thought_experiment(cfg: RunConfig, given) -> int:
    designs = _designs(cfg, "design_a", "design_b")
    _check_periods([cfg.t_s], designs)
    if not math.isfinite(cfg.r_ohm * cfg.fs_synth):
        raise ConfigError(f"r_ohm={cfg.r_ohm:g} times fs_synth={cfg.fs_synth:g} Hz is not finite")
    for name, f_hz in (("f_healthy", cfg.f_healthy), ("f_faulty", cfg.f_faulty)):
        if not 0 < f_hz < cfg.fs_synth / 2:  # NaN fails too
            raise ConfigError(f"{name}={f_hz:g} Hz must lie in (0, fs_synth/2) = (0, {cfg.fs_synth / 2:g}) to avoid aliasing")
    if not math.isfinite(cfg.t_s * cfg.fs_synth):
        raise ConfigError(f"t_s={cfg.t_s:g}s at fs_synth={cfg.fs_synth:g} Hz is not a finite number of samples")
    for key, design in zip(("design_a", "design_b"), designs):
        try:
            filter_coefficients(design, cfg.fs_synth)
        except ValueError as exc:  # fs under MIN_FS_PER_F0 * f0
            raise ConfigError(f"fs_synth={cfg.fs_synth:g} Hz for {key}={design.thickness_mm:g} mm ({design.name}): {exc}") from None
    try:
        energies = run_thought_experiment(cfg.f_healthy, cfg.f_faulty, *designs, cfg.t_s, cfg.r_ohm, cfg.fs_synth)
    except MemoryError:
        raise ConfigError(f"fs_synth={cfg.fs_synth:g} Hz over T={cfg.t_s:g}s is more samples than memory holds") from None
    except ValueError as exc:  # an energy that is not finite, named with r_ohm and T
        raise ConfigError(str(exc)) from None
    print(format_thought_experiment(cfg.f_healthy, cfg.f_faulty, [design.name for design in designs], energies))
    return EXIT_OK


def cmd_extract(cfg: RunConfig, given) -> int:
    (design,), entries, _, ((features,),), _ = _features(cfg, "thickness_mm", [cfg.t_s])
    header = ["recording_id", "segment_index", "label", "design", "T_s", *(f"feature_{i}" for i in range(features.shape[1]))]
    # Python int indices: csv_text writes a numpy integer as repr(float).
    rows = [(meta.path, index, meta.label.value) for meta in entries for index in range(cfg.segments_per_recording)]
    content = csv_text(header, [(*row, design.name, cfg.t_s, *values) for row, values in zip(rows, features.tolist())])
    target = write_atomic(Path(cfg.out_dir) / "features.csv", content)
    print(f"wrote {len(features)} feature rows to {target}")
    return EXIT_OK


def cmd_classify(cfg: RunConfig, given) -> int:
    (design,), _, labels, ((features,),), splits = _features(cfg, "thickness_mm", [cfg.t_s], split=True)
    names, confusions, accuracies = _evaluate(cfg, features, labels, splits)
    header = ["repeat", "seed", "accuracy", "n_train", "n_validation"]
    per_split = zip(accuracies.tolist(), confusions.sum(axis=(1, 2)).tolist())  # a numpy integer would print as 168.0
    results = [(i, cfg.seed + i, acc, len(features) - n, n) for i, (acc, n) in enumerate(per_split)]
    target = write_atomic(Path(cfg.out_dir) / "classification.csv", csv_text(header, results))
    print(f"design {design.name}, T={cfg.t_s:g}s, k={cfg.k}, {cfg.n_repeats} split(s), seed0={cfg.seed}")
    print(f"mean accuracy {accuracies.mean():.4f} (std {accuracies.std():.4f})")
    print("confusion over all repeats:")
    print(_format_confusion(names, confusions.sum(axis=0)))
    print(f"wrote per-repeat results to {target}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, given) -> int:
    designs, _, labels, sets, splits = _features(cfg, "thicknesses", cfg.t_values, split=True)
    header = ["design", "thickness_mm", "T_s", "mean_accuracy", "std_accuracy", "n_repeats", "seed0"]
    results = []
    # Every cell scores the same splits, so the cells are comparable.
    for design, design_sets in zip(designs, sets):
        for t_s, features in zip(cfg.t_values, design_sets):
            *_, acc = _evaluate(cfg, features, labels, splits)
            results.append((design.name, design.thickness_mm, t_s, acc.mean(), acc.std(), cfg.n_repeats, cfg.seed))
    content = csv_text(header, results)
    target = write_atomic(Path(cfg.out_dir) / "sweep.csv", content)
    print(content, end="")
    print(f"wrote sweep table to {target}")
    return EXIT_OK


def cmd_scatter(cfg: RunConfig, given) -> int:
    fault_label = MachineState(cfg.fault_label)
    designs, _, labels, sets, _ = _features(cfg, "thicknesses", [cfg.t_s], states=(MachineState.HEALTHY, fault_label))
    means = [mean_state_energy(matrix, labels) for (matrix,) in sets]
    points = [(mean[MachineState.HEALTHY.value], mean[fault_label.value]) for mean in means]
    header = ["design", "thickness_mm", "mean_healthy_j", "mean_faulty_j", "diag_distance_j"]
    # The perpendicular distance to the 45-degree line: designs far from it
    # separate the two states well.
    results = [(d.name, d.thickness_mm, h, f, abs(h - f) / math.sqrt(2.0)) for d, (h, f) in zip(designs, points)]
    for name, _, *values in results:
        if not np.isfinite(values).all():
            raise ConfigError(f"r_ohm={cfg.r_ohm:g}: {name}: a mean energy or its distance to the diagonal is not finite")
    try:
        svg = scatter_svg([d.name for d in designs], points)
    except ValueError as exc:
        raise ConfigError(f"r_ohm={cfg.r_ohm:g}: {exc}") from None
    csv_target = write_atomic(Path(cfg.out_dir) / "scatter.csv", csv_text(header, results))
    svg_target = write_atomic(Path(cfg.out_dir) / "scatter.svg", svg)
    for name, _, healthy, faulty, distance in results:
        print(f"{name}: healthy {healthy:.6g} J, faulty {faulty:.6g} J, distance to diagonal {distance:.6g} J")
    print(f"wrote {csv_target} and {svg_target}")
    return EXIT_OK


def cmd_energy_report(cfg: RunConfig, given) -> int:
    costs = (cfg.e_adc_per_sample_j, cfg.e_tx_per_sample_j, cfg.bits_per_sample)
    try:
        text = format_sampling_cost(cfg.fs_raw_hz, cfg.t_s, *costs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(text)
    return EXIT_OK


def cmd_surrogate_gen(cfg: RunConfig, given) -> int:
    spec = load_surrogate_spec(cfg.surrogate_spec) if cfg.surrogate_spec else DEFAULT_SURROGATE_SPEC
    seed = cfg.seed if "seed" in given else spec.seed  # a given seed beats the recipe's
    out_dir = Path(cfg.out_dir) / "corpus"
    try:
        manifest = synth_surrogate_corpus(spec, seed, out_dir)
    except MemoryError:
        rule = f"fs_hz={spec.fs:g} over duration_s={spec.duration_s:g} is more samples than memory holds"
        raise ConfigError(f"{cfg.surrogate_spec}: {rule}") from None
    print(f"wrote {len(manifest.entries)} recordings + manifest to {out_dir} (seed {seed})")
    groups = Counter((meta.label.value, meta.bearing_type, meta.load_w) for meta in manifest.entries)
    for (state, bearing, load), count in sorted(groups.items()):
        print(f"  {state} / {bearing} / {load}W: {count}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # Each flag is one action, shared by the subcommands that take it, as argparse's `parents=` shares a parent's.
    options = argparse.ArgumentParser(add_help=False)
    shared = [(EVERY, options.add_argument("--config", metavar="PATH", help="flat key=value run configuration file"))]
    for f in fields(RunConfig):
        if f.metadata["flag"]:
            action = options.add_argument(f.metadata["flag"], dest=f.name, type=f.metadata["parse"], **f.metadata["options"])
            shared.append((f.metadata["commands"], action))

    parser = argparse.ArgumentParser(
        prog="pehfault",
        description="Harvester-filtered low-rate energy features for bearing fault detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, text in (
        ("thought-experiment", cmd_thought_experiment, "two sines through two designs, 2x2 energy matrix"),
        ("extract", cmd_extract, "write the labeled feature CSV"),
        ("classify", cmd_classify, "kNN accuracy over repeated seeded splits on one design"),
        ("sweep", cmd_sweep, "accuracy over designs x integration periods"),
        ("scatter", cmd_scatter, "per-design class-mean energies vs the 45-degree line"),
        ("energy-report", cmd_energy_report, "sampling and energy comparison of the two architectures"),
        ("surrogate-gen", cmd_surrogate_gen, "write a seeded synthetic corpus + manifest"),
    ):
        p = sub.add_parser(name, help=text)
        p.set_defaults(handler=handler)
        for commands, action in shared:
            if name in commands:
                p._add_action(action)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # A design name that stdout's encoding (an ASCII locale's) cannot take prints as backslash escapes.
    if codecs.lookup(getattr(sys.stdout, "encoding", None) or "utf-8").name != "utf-8":
        sys.stdout.reconfigure(errors="backslashreplace")
    try:
        code = args.handler(*resolve_config(args))
        sys.stdout.flush()  # so that a closed stdout raises here, not in the interpreter's final flush
        return code
    except BrokenPipeError:  # as Python's `signal` docs advise, the rest of the output goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR
