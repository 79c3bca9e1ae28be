"""Command-line entry point tying the pipeline together.

Subcommands: thought-experiment, extract, classify, sweep, scatter,
energy-report, surrogate-gen. Every command is deterministic under a fixed
seed; CSV files are the normative outputs and SVG is derived from them.

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import math
import sys
from collections import Counter
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .classify import METRICS, repeated_evaluation, train_size
from .dataset import (
    DEFAULT_SURROGATE_SPEC,
    MachineState,
    Manifest,
    build_feature_sets,
    csv_text,
    filter_manifest,
    load_design_table,
    load_manifest,
    load_surrogate_spec,
    read_key_values,
    synth_surrogate_corpus,
    write_atomic,
)
from .errors import ConfigError, DataError
from .frontend import MIN_CYCLES_PER_PERIOD, mean_state_energy
from .harvester import DEFAULT_DESIGNS, MIN_FS_PER_F0, design_from_thickness
from .report import (
    BITS_PER_SAMPLE,
    E_ADC_PER_SAMPLE_J,
    E_TX_PER_SAMPLE_J,
    format_sampling_cost,
    format_thought_experiment,
    run_thought_experiment,
    scatter_svg,
)

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_DATA_ERROR = 3


@dataclass
class RunConfig:
    """One experiment's parameters; loadable from a flat key=value file."""

    manifest: str = ""
    design_table: str = ""
    thickness_mm: float = 0.50
    thicknesses: tuple = (0.35, 0.40, 0.45, 0.50)
    t_s: float = 3.0
    t_values: tuple = (3.0,)
    r_ohm: float = 1.0
    segment_s: float = 3.0
    segments_per_recording: int = 3
    train_fraction: float = 0.8
    stratified: bool = True
    seed: int = 0
    n_repeats: int = 20
    k: int = 3
    metric: str = "raw"
    labels: tuple = ()
    bearing_type: str = ""
    load_w: int = -1
    fault_label: str = "ball_crack"
    fs_synth: float = 51200.0
    surrogate_spec: str = ""
    out_dir: str = "out"


def _boolean(raw: str) -> bool:
    if raw.lower() not in ("true", "1", "yes", "on", "false", "0", "no", "off"):
        raise ValueError(f"expected a boolean, got {raw!r}")
    return raw.lower() in ("true", "1", "yes", "on")


def parse_config_file(path: str | Path) -> dict:
    keys = {f.name: type(f.default) for f in fields(RunConfig)}  # the field's default gives its type
    keys.update(thicknesses=_comma_floats, t_values=_comma_floats, labels=_comma_strs, stratified=_boolean)
    return read_key_values(path, "config file", ConfigError, keys)


def validate_config(cfg: RunConfig) -> None:
    for name in ("thickness_mm", "thicknesses", "t_s", "t_values", "r_ohm", "segment_s", "fs_synth"):
        value = getattr(cfg, name)
        if not all(map(math.isfinite, value if isinstance(value, tuple) else (value,))):
            raise ConfigError(f"{name} must be finite, got {value}")
    if cfg.t_s <= 0 or any(t <= 0 for t in cfg.t_values):
        raise ConfigError("integration period must be positive")
    if not cfg.t_values:
        raise ConfigError("--t-values is empty: give at least one integration period")
    if not cfg.thicknesses:
        raise ConfigError("--thicknesses is empty: give at least one design thickness")
    if cfg.r_ohm <= 0:
        raise ConfigError("load resistance must be positive")
    if cfg.segment_s <= 0:
        raise ConfigError("segment length must be positive")
    if cfg.segments_per_recording < 1:
        raise ConfigError("segments per recording must be >= 1")
    if not 0 < cfg.train_fraction < 1:
        raise ConfigError("train fraction must lie in (0, 1)")
    if cfg.n_repeats < 1:
        raise ConfigError("number of repeats must be >= 1")
    if cfg.k < 1:
        raise ConfigError("k must be >= 1")
    if cfg.metric not in METRICS:
        raise ConfigError(f"metric must be one of {METRICS}")
    if cfg.fs_synth <= 0:
        raise ConfigError("synthesis rate must be positive")
    if cfg.seed < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg.seed}")
    if cfg.load_w < -1:
        raise ConfigError(f"load_w must be a load in Watts, or -1 for any load, got {cfg.load_w}")


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
    cfg = RunConfig()
    explicit: set[str] = set()
    if args.config:
        for key, value in parse_config_file(args.config).items():
            setattr(cfg, key, value)
            explicit.add(key)
    # Each flag's dest is the RunConfig field it overrides.
    for name in (f.name for f in fields(RunConfig)):
        value = vars(args).get(name)
        if value is not None:
            setattr(cfg, name, value)
            explicit.add(name)
    validate_config(cfg)
    return cfg, explicit


def _designs(cfg: RunConfig, thicknesses) -> list:
    """The designs of these thicknesses in the configured design table."""
    table = load_design_table(cfg.design_table) if cfg.design_table else DEFAULT_DESIGNS
    try:
        return [design_from_thickness(t, table) for t in thicknesses]
    except ValueError as exc:
        raise ConfigError(f"{cfg.design_table}: {exc}" if cfg.design_table else str(exc)) from None


def _inputs(cfg: RunConfig, thicknesses, periods, *, split: bool = False, states=()) -> tuple[list, Manifest]:
    """The designs of these thicknesses and the manifest entries to read at
    these periods, checked before any recording is read, in this order: the
    designs, the periods, the filtered manifest (at least one entry, each
    sampled at >= MIN_FS_PER_F0 times the highest resonance in use), for a
    kNN `split` the classes and training points it needs, then `states`."""
    designs = _designs(cfg, thicknesses)
    _check_periods(periods, designs, cfg.segment_s)
    if not cfg.manifest:
        raise ConfigError("a manifest path is required (--manifest or config key manifest)")
    manifest = load_manifest(cfg.manifest)
    labels = None
    if cfg.labels:
        try:
            labels = tuple(MachineState.from_token(tok) for tok in cfg.labels)
        except DataError as exc:
            raise ConfigError(f"labels: {exc}") from None
    manifest = filter_manifest(
        manifest,
        labels=labels,
        bearing_type=cfg.bearing_type or None,
        load_w=cfg.load_w if cfg.load_w >= 0 else None,
    )
    if not manifest.entries:
        raise DataError(f"{cfg.manifest}: no recordings matched the manifest/filters")
    fastest = max(designs, key=lambda design: design.f0_hz)
    for meta in manifest.entries:
        if meta.fs < MIN_FS_PER_F0 * fastest.f0_hz:
            raise DataError(
                f"{cfg.manifest}: {meta.path}: sampling rate {meta.fs:g} Hz < {MIN_FS_PER_F0:g} * f0 = "
                f"{MIN_FS_PER_F0 * fastest.f0_hz:g} Hz of {fastest.name}"
            )
    counts = Counter(meta.label.value for meta in manifest.entries)
    if split:
        if len(counts) < 2:
            raise DataError(f"{cfg.manifest}: classification needs at least 2 labels, found only {next(iter(counts))!r}")
        short = sorted(label for label, n in counts.items() if n * cfg.segments_per_recording < 2)
        if cfg.stratified and short:
            raise DataError(
                f"{cfg.manifest}: a stratified split needs >= 2 features per class; {short[0]!r} has "
                f"{counts[short[0]]} recording(s) x {cfg.segments_per_recording} segment(s)"
            )
        groups = [n * cfg.segments_per_recording for n in counts.values()]
        n_train = sum(train_size(n, cfg.train_fraction) for n in (groups if cfg.stratified else [sum(groups)]))
        if cfg.k > n_train:
            raise ConfigError(f"k={cfg.k} exceeds the {n_train} training points")
    for state in states:
        if state.value not in counts:
            raise DataError(f"manifest holds no {state.value!r} recordings")
    return designs, manifest


def _evaluate(cfg: RunConfig, features, labels) -> tuple:
    """repeated_evaluation with the configured split, k and metric, plus each
    split's accuracy; features overflowing kNN distances are a config error naming r_ohm."""
    split = dict(train_fraction=cfg.train_fraction, seed=cfg.seed, stratified=cfg.stratified)
    try:
        names, confusions = repeated_evaluation(features, labels, cfg.k, cfg.n_repeats, metric=cfg.metric, **split)
    except OverflowError as exc:
        raise ConfigError(f"r_ohm={cfg.r_ohm:g}: {exc}") from None
    return names, confusions, np.trace(confusions, axis1=1, axis2=2) / confusions.sum(axis=(1, 2))


def _format_confusion(labels, confusion) -> str:
    width = max([len(lab) for lab in labels] + [6])
    lines = [" " * (width + 2) + "  ".join(f"{lab:>{width}}" for lab in labels) + "  (predicted)"]
    for i, lab in enumerate(labels):
        lines.append(f"{lab:>{width}}  " + "  ".join(f"{confusion[i, j]:>{width}}" for j in range(len(labels))))
    return "\n".join(lines)


def cmd_thought_experiment(cfg: RunConfig, args, explicit) -> int:
    designs = _designs(cfg, [args.design_a, args.design_b])
    _check_periods([cfg.t_s], designs)
    try:
        energies = run_thought_experiment(args.f_healthy, args.f_faulty, *designs, cfg.t_s, cfg.r_ohm, cfg.fs_synth)
    except MemoryError:
        raise ConfigError(f"fs_synth={cfg.fs_synth:g} Hz over T={cfg.t_s:g}s is more samples than memory holds") from None
    except ValueError as exc:  # every input is a parameter: a tone outside (0, fs/2), fs under 20 * f0
        raise ConfigError(str(exc)) from None
    print(format_thought_experiment(args.f_healthy, args.f_faulty, [design.name for design in designs], energies))
    return EXIT_OK


def cmd_extract(cfg: RunConfig, args, explicit) -> int:
    (design,), manifest = _inputs(cfg, [cfg.thickness_mm], [cfg.t_s])
    rows, ((features,),) = build_feature_sets(manifest, [design], cfg.segment_s, cfg.segments_per_recording, [cfg.t_s], cfg.r_ohm)
    header = ["recording_id", "segment_index", "label", "design", "T_s", *(f"feature_{i}" for i in range(features.shape[1]))]
    lines = zip(rows.recording_ids, rows.segment_indices, rows.labels.tolist(), features.tolist())
    content = csv_text(header, [(rid, index, label, design.name, cfg.t_s, *values) for rid, index, label, values in lines])
    target = write_atomic(Path(cfg.out_dir) / "features.csv", content)
    print(f"wrote {len(features)} feature rows to {target}")
    return EXIT_OK


def cmd_classify(cfg: RunConfig, args, explicit) -> int:
    (design,), manifest = _inputs(cfg, [cfg.thickness_mm], [cfg.t_s], split=True)
    rows, ((features,),) = build_feature_sets(manifest, [design], cfg.segment_s, cfg.segments_per_recording, [cfg.t_s], cfg.r_ohm)
    names, confusions, accuracies = _evaluate(cfg, features, rows.labels)
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


def cmd_sweep(cfg: RunConfig, args, explicit) -> int:
    designs, manifest = _inputs(cfg, cfg.thicknesses, cfg.t_values, split=True)
    rows, sets = build_feature_sets(manifest, designs, cfg.segment_s, cfg.segments_per_recording, cfg.t_values, cfg.r_ohm)
    header = ["design", "thickness_mm", "T_s", "mean_accuracy", "std_accuracy", "n_repeats", "seed0"]
    results = []
    # Every cell reuses the same seeds, so the cells are comparable.
    for design, design_sets in zip(designs, sets):
        for t_s, features in zip(cfg.t_values, design_sets):
            *_, acc = _evaluate(cfg, features, rows.labels)
            results.append((design.name, design.thickness_mm, t_s, acc.mean(), acc.std(), cfg.n_repeats, cfg.seed))
    content = csv_text(header, results)
    target = write_atomic(Path(cfg.out_dir) / "sweep.csv", content)
    print(content, end="")
    print(f"wrote sweep table to {target}")
    return EXIT_OK


def cmd_scatter(cfg: RunConfig, args, explicit) -> int:
    try:
        fault_label = MachineState.from_token(cfg.fault_label)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    if fault_label is MachineState.HEALTHY:
        raise ConfigError("--fault-label must name a fault state, not healthy, which it is compared with")
    designs, manifest = _inputs(cfg, cfg.thicknesses, [cfg.t_s], states=(MachineState.HEALTHY, fault_label))
    rows, sets = build_feature_sets(manifest, designs, cfg.segment_s, cfg.segments_per_recording, [cfg.t_s], cfg.r_ohm)
    means = [mean_state_energy(matrix, rows.labels) for (matrix,) in sets]
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


def cmd_energy_report(cfg: RunConfig, args, explicit) -> int:
    costs = dict(e_adc_per_sample_j=args.e_adc, e_tx_per_sample_j=args.e_tx, bits_per_sample=args.bits)
    try:
        text = format_sampling_cost(args.fs_raw, cfg.t_s, **costs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(text)
    return EXIT_OK


def cmd_surrogate_gen(cfg: RunConfig, args, explicit) -> int:
    spec = load_surrogate_spec(cfg.surrogate_spec) if cfg.surrogate_spec else DEFAULT_SURROGATE_SPEC
    seed = cfg.seed if "seed" in explicit else spec.seed
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


def _comma_floats(raw: str) -> tuple:
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _comma_strs(raw: str) -> tuple:
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="flat key=value run configuration file")
    common.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory (default: out)")
    common.add_argument("--seed", type=int, help="base random seed")

    manifesty = argparse.ArgumentParser(add_help=False)
    manifesty.add_argument("--manifest", metavar="CSV", help="recording manifest")
    manifesty.add_argument("--design-table", dest="design_table", metavar="CSV", help="override the built-in design table")
    manifesty.add_argument("--labels", type=_comma_strs, help="restrict to these machine states (comma separated)")
    manifesty.add_argument("--bearing-type", dest="bearing_type", help="restrict to one bearing type")
    manifesty.add_argument("--load-w", dest="load_w", type=int, help="restrict to one load in Watts")
    manifesty.add_argument("--T", dest="t_s", type=float, help="integration period in seconds")
    manifesty.add_argument("--r-ohm", dest="r_ohm", type=float, help="load resistance in Ohms")
    manifesty.add_argument("--segment", dest="segment_s", type=float, help="segment length in seconds")
    manifesty.add_argument("--segments", dest="segments_per_recording", type=int, help="segments per recording")

    knn = argparse.ArgumentParser(add_help=False)
    knn.add_argument("--k", type=int, help="number of neighbors")
    knn.add_argument("--repeats", dest="n_repeats", type=int, help="number of seeded splits")
    knn.add_argument("--train-fraction", dest="train_fraction", type=float)
    knn.add_argument("--metric", choices=METRICS)

    parser = argparse.ArgumentParser(
        prog="pehfault",
        description="Harvester-filtered low-rate energy features for bearing fault detection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("thought-experiment", parents=[common], help="two sines through two designs, 2x2 energy matrix")
    p.add_argument("--f-healthy", dest="f_healthy", type=float, default=200.0, help="healthy vibration frequency (Hz)")
    p.add_argument("--f-faulty", dest="f_faulty", type=float, default=150.0, help="faulty vibration frequency (Hz)")
    p.add_argument("--design-a", dest="design_a", type=float, default=0.50, metavar="MM", help="thickness matched to the healthy state")
    p.add_argument("--design-b", dest="design_b", type=float, default=0.40, metavar="MM", help="thickness matched to the faulty state")
    p.add_argument("--T", dest="t_s", type=float, help="integration period in seconds")
    p.add_argument("--r-ohm", dest="r_ohm", type=float, help="load resistance in Ohms")
    p.add_argument("--design-table", dest="design_table", metavar="CSV")
    p.set_defaults(handler=cmd_thought_experiment)

    p = sub.add_parser("extract", parents=[common, manifesty], help="write the labeled feature CSV")
    p.add_argument("--thickness", dest="thickness_mm", type=float, help="design thickness in mm")
    p.set_defaults(handler=cmd_extract)

    p = sub.add_parser("classify", parents=[common, manifesty, knn], help="kNN accuracy over repeated seeded splits on one design")
    p.add_argument("--thickness", dest="thickness_mm", type=float, help="design thickness in mm")
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("sweep", parents=[common, manifesty, knn], help="accuracy over designs x integration periods")
    p.add_argument("--thicknesses", type=_comma_floats, help="comma-separated design thicknesses in mm")
    p.add_argument("--t-values", dest="t_values", type=_comma_floats, help="comma-separated integration periods in s")
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("scatter", parents=[common, manifesty], help="per-design class-mean energies vs the 45-degree line")
    p.add_argument("--thicknesses", type=_comma_floats)
    p.add_argument("--fault-label", dest="fault_label", help="fault state to compare against healthy")
    p.set_defaults(handler=cmd_scatter)

    p = sub.add_parser("energy-report", parents=[common], help="sampling and energy comparison of the two architectures")
    p.add_argument("--fs-raw", dest="fs_raw", type=float, default=51200.0, help="raw acquisition rate (Hz)")
    p.add_argument("--T", dest="t_s", type=float, help="integration period in seconds")
    p.add_argument("--e-adc", dest="e_adc", type=float, default=E_ADC_PER_SAMPLE_J, help="ADC J/sample")
    p.add_argument("--e-tx", dest="e_tx", type=float, default=E_TX_PER_SAMPLE_J, help="radio J/sample")
    p.add_argument("--bits", type=int, default=BITS_PER_SAMPLE, help="bits per transmitted sample")
    p.set_defaults(handler=cmd_energy_report)

    p = sub.add_parser("surrogate-gen", parents=[common], help="write a seeded synthetic corpus + manifest")
    p.add_argument("--spec", dest="surrogate_spec", metavar="PATH", help="surrogate recipe file (default: built-in)")
    p.set_defaults(handler=cmd_surrogate_gen)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, explicit = resolve_config(args)
        return args.handler(cfg, args, explicit)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
