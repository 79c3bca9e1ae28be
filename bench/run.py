"""Benchmark of the pehfault pipeline.

    python3 bench/run.py --workload experiment-f32 --seed 0 --seconds 25 --trace 0

Builds the workload's corpus from the seed, checks a first pass in full, then
runs passes for --seconds seconds. With --trace 0 the last stdout line holds
the end-to-end metrics; with --trace 1 the first half of the time runs
untraced and the second half under an outside-in trace, and the last line
holds the per-layer metrics. BENCHMARK.json names the metrics and units.
End-to-end times are given at reference host speed (see runner.KERNELS); the
raw times are in the details line. Exits 2 without a result when the package
sources are missing.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy loads: the load is one closed loop on a
# small machine, and the import probe inherits this environment.
THREAD_PINNING = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_PINNING)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> tuple[dict, dict]:
    """One benchmark run: (result line, details)."""
    import runner  # imports pehfault from SRC
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r} (known: {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    work_dir = WORK / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    out_dir, scratch = work_dir / "out", work_dir / "check"
    out_dir.mkdir(parents=True)
    scratch.mkdir()
    try:
        corpus, setup_times, setup_kernel_times = runner.set_up(workload, args.seed, work_dir, SRC)
        warm, verified = runner.first_pass(workload, corpus, out_dir, args.seed, scratch)
        untraced_s = args.seconds / 2 if args.trace else args.seconds
        untraced, _ = runner.measure(workload, corpus, out_dir, verified, untraced_s)
        traced, summaries, absent, hook_errors = [], [], [], {}
        if args.trace:
            with Tracer("pehfault", runner.TRACE_TARGETS, runner.TRACE_HOOKS) as tracer:
                traced, summaries = runner.measure(workload, corpus, out_dir, verified, args.seconds / 2, tracer)
            absent, hook_errors = tracer.absent, tracer.hook_errors
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only if no other run is using it

    passes = [warm, *untraced, *traced]
    attempted = len(workload.commands) * len(passes)
    failed = sum(p.failed for p in passes)
    kernel = workload.kernel
    walls = sorted(runner.at_reference(p.wall_s, kernel, p.kernel_s) for p in untraced)
    setups = [runner.at_reference(t, kernel, k) for t, k in zip(setup_times, setup_kernel_times)]
    wall_s = runner.median(walls)
    samples_per_pass = corpus.raw_samples * len(workload.commands)
    metrics = {
        "wall_s": wall_s,
        "raw_msps": samples_per_pass / wall_s / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": runner.median(setups),
    }
    if args.trace:
        metrics = runner.layer_metrics(summaries, traced, untraced)
    section = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics declared in BENCHMARK.json but not computed: {', '.join(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in section},
    }
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "samples": len(walls),
        "fail_ratio": failed / attempted,
        "problems": sorted({p for pass_ in passes for p in pass_.problems}),
        "raw_samples_per_pass": samples_per_pass,
        "kernel": kernel,
        "setup_s_each": setups,
        "setup_raw_s_each": setup_times,
        "setup_kernel_s_each": setup_kernel_times,
        "wall_s_each": walls,
        "wall_raw_s_each": [p.wall_s for p in untraced],
        "kernel_s_each": [p.kernel_s for p in untraced],
        "command_s_median": {
            c.argv[0]: runner.median(p.command_s[i] for p in untraced) for i, c in enumerate(workload.commands)
        },
    }
    # The tail is reported only where at least ten samples lie beyond it.
    if len(walls) >= 100:
        details["wall_s.p90"] = walls[math.ceil(0.9 * len(walls)) - 1]
    if args.trace:
        details.update(
            counts_repeat=runner.counts_repeat(summaries),
            traced_passes=len(traced),
            absent=absent,
            hook_errors=hook_errors,
            layers=metrics,
        )
    return result, details


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pehfault" / "__init__.py").is_file():
        print(f"bench: package sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    result, details = run(args)
    details["run_s"] = time.perf_counter() - started
    print("details: " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
