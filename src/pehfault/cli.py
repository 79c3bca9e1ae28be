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

from .classify import METRICS, SplitConfig, accuracy_sweep, repeated_evaluation, sweep_csv, train_size
from .dataset import (
    DEFAULT_SURROGATE_SPEC,
    FeatureRows,
    MachineState,
    Manifest,
    build_feature_set,
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
from .frontend import MIN_CYCLES_PER_PERIOD
from .harvester import DEFAULT_DESIGNS, MIN_FS_PER_F0, design_from_thickness
from .report import (
    EnergyCostModel,
    format_sampling_cost,
    format_thought_experiment,
    run_thought_experiment,
    sampling_cost_report,
    scatter_csv,
    scatter_points,
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


def _convert_field(name: str, raw: str):
    if name in ("thicknesses", "t_values"):
        return _comma_floats(raw)
    if name == "labels":
        return _comma_strs(raw)
    if name == "stratified":
        if raw.lower() in ("true", "1", "yes", "on"):
            return True
        if raw.lower() in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"expected a boolean, got {raw!r}")
    return type(getattr(RunConfig, name))(raw)  # the field's default gives its type


def parse_config_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    known = {f.name for f in fields(RunConfig)}
    values: dict = {}
    for lineno, key, raw in read_key_values(path, ConfigError):
        if key not in known:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _convert_field(key, raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    return values


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


def _check_periods_fit_segment(cfg: RunConfig, periods) -> None:
    for t_s in periods:
        if t_s > cfg.segment_s:
            raise ConfigError(
                f"integration period {t_s:g}s cannot exceed the segment length {cfg.segment_s:g}s"
            )


def _check_periods(cfg: RunConfig, periods, designs) -> None:
    """Every integration period fits in a segment and spans enough cycles (see _check_cycles)."""
    _check_periods_fit_segment(cfg, periods)
    _check_cycles(periods, designs)


def _check_cycles(periods, designs) -> None:
    """Every integration period spans at least MIN_CYCLES_PER_PERIOD cycles
    of the lowest resonance in use."""
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
        raise ConfigError(str(exc)) from None


def _manifest_for(cfg: RunConfig) -> Manifest:
    if not cfg.manifest:
        raise ConfigError("a manifest path is required (--manifest or config key manifest)")
    manifest = load_manifest(cfg.manifest)
    labels = None
    if cfg.labels:
        try:
            labels = tuple(MachineState.from_token(tok) for tok in cfg.labels)
        except DataError as exc:
            raise ConfigError(str(exc)) from None
    return filter_manifest(
        manifest,
        labels=labels,
        bearing_type=cfg.bearing_type or None,
        load_w=cfg.load_w if cfg.load_w >= 0 else None,
    )


def _fault_label(cfg: RunConfig) -> MachineState:
    try:
        state = MachineState.from_token(cfg.fault_label)
    except DataError as exc:
        raise ConfigError(str(exc)) from None
    if state is MachineState.HEALTHY:
        raise ConfigError("--fault-label must name a fault state, not healthy, which it is compared with")
    return state


def _require_classes(cfg: RunConfig, manifest: Manifest) -> None:
    """At least 2 labels, for a stratified split at least 2 features
    (recordings x segments per recording) in every class, and at least k
    training points in every split."""
    counts = Counter(meta.label.value for meta in manifest.entries)
    if not counts:
        raise DataError(f"{cfg.manifest}: no recordings matched the manifest/filters")
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


def _features_csv(rows: FeatureRows, features, design_name: str, t_s: float, dim: int) -> str:
    header = ["recording_id", "segment_index", "label", "design", "T_s", *(f"feature_{i}" for i in range(dim))]
    lines = zip(rows.recording_ids, rows.segment_indices, rows.labels.tolist(), features.tolist())
    return csv_text(header, [(rid, index, label, design_name, t_s, *values) for rid, index, label, values in lines])


def _format_confusion(labels, confusion) -> str:
    width = max([len(lab) for lab in labels] + [6])
    lines = [" " * (width + 2) + "  ".join(f"{lab:>{width}}" for lab in labels) + "  (predicted)"]
    for i, lab in enumerate(labels):
        lines.append(f"{lab:>{width}}  " + "  ".join(f"{confusion[i, j]:>{width}}" for j in range(len(labels))))
    return "\n".join(lines)


def cmd_thought_experiment(cfg: RunConfig, args, explicit) -> int:
    designs = _designs(cfg, [args.design_a, args.design_b])
    for f_hz in (args.f_healthy, args.f_faulty):
        if not 0 < f_hz < cfg.fs_synth / 2:
            raise ConfigError(
                f"tone frequency {f_hz} Hz must lie in (0, fs/2) = (0, {cfg.fs_synth / 2}) to avoid aliasing"
            )
    for design in designs:
        lowest = MIN_FS_PER_F0 * design.f0_hz
        if cfg.fs_synth < lowest:
            raise ConfigError(f"sampling rate too low: {cfg.fs_synth} Hz < {MIN_FS_PER_F0:g} * f0 = {lowest:g} Hz")
    _check_cycles([cfg.t_s], designs)
    report = run_thought_experiment(
        args.f_healthy,
        args.f_faulty,
        *designs,
        period_s=cfg.t_s,
        r_ohm=cfg.r_ohm,
        fs=cfg.fs_synth,
    )
    print(format_thought_experiment(report))
    return EXIT_OK


def cmd_extract(cfg: RunConfig, args, explicit) -> int:
    (design,) = _designs(cfg, [cfg.thickness_mm])
    _check_periods(cfg, [cfg.t_s], [design])
    manifest = _manifest_for(cfg)
    rows, features = build_feature_set(
        manifest, design, cfg.segment_s, cfg.segments_per_recording, cfg.t_s, cfg.r_ohm
    )
    dim = features.shape[1] if len(features) else int(math.floor(cfg.segment_s / cfg.t_s + 1e-9))
    content = _features_csv(rows, features, design.name, cfg.t_s, dim)
    target = write_atomic(Path(cfg.out_dir) / "features.csv", content)
    print(f"wrote {len(features)} feature rows to {target}")
    if len(features) == 0:
        print("no recordings matched the manifest/filters", file=sys.stderr)
        return EXIT_DATA_ERROR
    return EXIT_OK


def cmd_classify(cfg: RunConfig, args, explicit) -> int:
    (design,) = _designs(cfg, [cfg.thickness_mm])
    _check_periods(cfg, [cfg.t_s], [design])
    manifest = _manifest_for(cfg)
    _require_classes(cfg, manifest)
    rows, features = build_feature_set(
        manifest, design, cfg.segment_s, cfg.segments_per_recording, cfg.t_s, cfg.r_ohm
    )
    split_cfg = SplitConfig(cfg.train_fraction, cfg.seed, cfg.stratified)
    echo = {"design": design.name, "T_s": cfg.t_s}
    reports = repeated_evaluation(features, rows.labels, cfg.k, split_cfg, cfg.n_repeats, cfg.metric, config=echo)
    accuracies = np.array([r.accuracy for r in reports])
    header = ["repeat", "seed", "accuracy", "n_train", "n_validation"]
    results = [
        (i, r.config["seed"], r.accuracy, r.config["n_train"], r.config["n_validation"]) for i, r in enumerate(reports)
    ]
    target = write_atomic(Path(cfg.out_dir) / "classification.csv", csv_text(header, results))
    print(f"design {design.name}, T={cfg.t_s:g}s, k={cfg.k}, {cfg.n_repeats} split(s), seed0={cfg.seed}")
    print(f"mean accuracy {accuracies.mean():.4f} (std {accuracies.std():.4f})")
    print("confusion over all repeats:")
    # Every split partitions the same points, so every report has the same labels.
    print(_format_confusion(reports[0].labels, sum(r.confusion for r in reports)))
    print(f"wrote per-repeat results to {target}")
    return EXIT_OK


def cmd_sweep(cfg: RunConfig, args, explicit) -> int:
    designs = _designs(cfg, cfg.thicknesses)
    _check_periods(cfg, cfg.t_values, designs)
    manifest = _manifest_for(cfg)
    _require_classes(cfg, manifest)
    rows = accuracy_sweep(
        manifest,
        designs,
        cfg.t_values,
        segment_s=cfg.segment_s,
        segments_per_recording=cfg.segments_per_recording,
        r_ohm=cfg.r_ohm,
        k=cfg.k,
        split_cfg=SplitConfig(cfg.train_fraction, cfg.seed, cfg.stratified),
        n_repeats=cfg.n_repeats,
        metric=cfg.metric,
    )
    content = sweep_csv(rows)
    target = write_atomic(Path(cfg.out_dir) / "sweep.csv", content)
    print(content, end="")
    print(f"wrote sweep table to {target}")
    return EXIT_OK


def cmd_scatter(cfg: RunConfig, args, explicit) -> int:
    fault_label = _fault_label(cfg)
    designs = _designs(cfg, cfg.thicknesses)
    _check_periods(cfg, [cfg.t_s], designs)
    points = scatter_points(
        _manifest_for(cfg),
        designs,
        segment_s=cfg.segment_s,
        segments_per_recording=cfg.segments_per_recording,
        period_s=cfg.t_s,
        r_ohm=cfg.r_ohm,
        fault_label=fault_label,
    )
    csv_target = write_atomic(Path(cfg.out_dir) / "scatter.csv", scatter_csv(points))
    svg_target = write_atomic(Path(cfg.out_dir) / "scatter.svg", scatter_svg(points))
    for p in points:
        print(
            f"{p.design}: healthy {p.mean_healthy_j:.6g} J, faulty {p.mean_faulty_j:.6g} J, "
            f"distance to diagonal {p.diag_distance_j:.6g} J"
        )
    print(f"wrote {csv_target} and {svg_target}")
    return EXIT_OK


def cmd_energy_report(cfg: RunConfig, args, explicit) -> int:
    try:
        cost = EnergyCostModel(args.e_adc, args.e_tx, args.bits)
        report = sampling_cost_report(args.fs_raw, cfg.t_s, cost)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    print(format_sampling_cost(report))
    return EXIT_OK


def cmd_surrogate_gen(cfg: RunConfig, args, explicit) -> int:
    spec = load_surrogate_spec(cfg.surrogate_spec) if cfg.surrogate_spec else DEFAULT_SURROGATE_SPEC
    seed = cfg.seed if "seed" in explicit else spec.seed
    out_dir = Path(cfg.out_dir) / "corpus"
    manifest = synth_surrogate_corpus(spec, seed, out_dir)
    print(f"wrote {len(manifest.entries)} recordings + manifest to {out_dir} (seed {seed})")
    for (state, bearing, load), count in sorted(manifest.counts().items()):
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

    p = sub.add_parser("classify", parents=[common, manifesty, knn], help="repeated split/fit/evaluate on one design")
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
    p.add_argument("--e-adc", dest="e_adc", type=float, default=EnergyCostModel().e_adc_per_sample_j, help="ADC J/sample")
    p.add_argument("--e-tx", dest="e_tx", type=float, default=EnergyCostModel().e_tx_per_sample_j, help="radio J/sample")
    p.add_argument("--bits", type=int, default=EnergyCostModel().bits_per_sample, help="bits per transmitted sample")
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
