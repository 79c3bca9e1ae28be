"""Set-up, passes and metrics of one benchmark run.

A pass runs the workload's commands in order, in-process, one
`pehfault.cli.main` call at a time with stdout and stderr captured: a closed
loop with a single client. Each command is one operation; it fails when it
exits non-zero, raises, or writes outputs that fail the checks in checks.py.
"""

from __future__ import annotations

import gc
import io
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

import pehfault.cli

import checks
from tracer import Tracer, summarize
from workloads import Corpus, Workload, build_corpus

SETUP_REPEATS = 3
MIN_PASSES = 3

# Public functions traced per layer, by defining module. The tracer also
# patches every other pehfault module that imports them.
TRACE_TARGETS = {
    "dataset": ("load_recording", "build_feature_set"),
    "signals": ("segment",),
    "harvester": ("simulate_voltage",),
    "frontend": ("make_feature",),
    "classify": ("split", "knn_fit", "knn_predict", "evaluate", "repeated_evaluation", "accuracy_sweep"),
    "report": ("scatter_points",),
    "cli": ("main", "cmd_extract", "cmd_classify", "cmd_sweep", "cmd_scatter"),
}


def _load_counts(args: dict, result) -> dict:
    path = Path(args.get("root", ".")) / args["meta"].path
    return {"key": str(path), "bytes": path.stat().st_size, "samples": len(result.samples)}


def _simulate_counts(args: dict, result) -> dict:
    # A segment is identified by its rate, length and edge samples; hashing
    # whole segments would cost more than the filter being measured.
    x = args["accel"].samples
    fingerprint = (args["accel"].fs, len(x), x[:8].tobytes(), x[-8:].tobytes())
    return {"key": (args["design"].name, fingerprint), "samples": len(x)}


def _feature_counts(args: dict, result) -> dict:
    return {"samples": len(args["v"].samples)}


TRACE_HOOKS = {
    "dataset.load_recording": _load_counts,
    "harvester.simulate_voltage": _simulate_counts,
    "frontend.make_feature": _feature_counts,
}

# Host speed. The reference machine shares its cores with other tenants: for
# seconds to minutes at a time the same code runs up to 1.7x slower, so raw
# times of one program spread from run to run past any useful bound. Each timed
# pass and each set-up therefore runs right after a fixed calibration kernel
# that does not touch pehfault, and its time is reported at reference host
# speed: seconds x the kernel's reference time / the kernel's time now. How
# much the host slows code down depends on the code, so a workload names the
# kernel that slows down like its dominant layer (Workload.kernel): a bytecode
# loop for kNN queries, float parsing of a text block for the text loader, and
# a biquad over a float64 array for load, filter and features. The raw times
# are in the details line.
_KERNEL_SIGNAL = np.random.default_rng(0).standard_normal(1 << 19)
_KERNEL_TEXT = "\n".join(map(repr, _KERNEL_SIGNAL[: 100_000].tolist()))


def _interpreter_kernel() -> None:
    total = 0
    for i in range(300_000):
        total += i * i % 7


def _text_kernel() -> None:
    np.asarray([float(token) for token in _KERNEL_TEXT.splitlines()])


def _numpy_kernel() -> None:
    for _ in range(6):
        y = lfilter([0.1, 0.2, 0.1], [1.0, -0.5, 0.2], _KERNEL_SIGNAL)
        float(y @ y)


# kernel name -> (kernel, seconds it takes at reference host speed)
KERNELS = {
    "interpreter": (_interpreter_kernel, 0.026),
    "text": (_text_kernel, 0.038),
    "numpy": (_numpy_kernel, 0.027),
}


def kernel_seconds(kernel: str) -> float:
    """Seconds the named calibration kernel takes now."""
    start = time.perf_counter()
    KERNELS[kernel][0]()
    return time.perf_counter() - start


def at_reference(seconds: float, kernel: str, kernel_s: float) -> float:
    """`seconds` measured right after the kernel took `kernel_s`, rescaled to
    reference host speed."""
    return seconds * KERNELS[kernel][1] / kernel_s


IMPORT_PROBE = "import time; t = time.perf_counter(); import pehfault.cli; print(time.perf_counter() - t)"


@dataclass
class PassResult:
    wall_s: float
    command_s: list[float]
    failed: int  # commands that failed
    problems: list[str]
    bytes_written: int
    kernel_s: float = 0.0  # calibration kernel run right before the pass
    digests: dict[str, str] = field(default_factory=dict)
    rejected: set[str] = field(default_factory=set)  # outputs that failed a check


def import_seconds(src: Path) -> float:
    """Time to import the package in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.strip().splitlines()[-1])


def set_up(workload: Workload, seed: int, work_dir: Path, src: Path) -> tuple[Corpus, list[float], list[float]]:
    """Build the corpus SETUP_REPEATS times from scratch; each set-up time is
    a fresh package import plus corpus synthesis (and text conversion).
    Returns the corpus, the set-up times and the calibration kernel time
    before each."""
    KERNELS[workload.kernel][0]()  # warm the kernel
    times, kernel_times = [], []
    for _ in range(SETUP_REPEATS):
        for sub in ("corpus", "text"):
            shutil.rmtree(work_dir / sub, ignore_errors=True)
        kernel_times.append(kernel_seconds(workload.kernel))
        imported = import_seconds(src)
        start = time.perf_counter()
        corpus = build_corpus(workload, seed, work_dir)
        times.append(imported + time.perf_counter() - start)
    return corpus, times, kernel_times


def run_pass(workload: Workload, corpus: Corpus, out_dir: Path, verified: dict, check=None) -> PassResult:
    """One pass. Each output must hash to its digest in `verified` (None
    never matches) and pass `check()`, which maps output names to problems."""
    for name in (n for c in workload.commands for n in c.outputs):
        (out_dir / name).unlink(missing_ok=True)
    gc.collect()
    command_s, outcomes = [], []
    for command in workload.commands:
        argv = command.full_argv(corpus.manifest, out_dir)
        start = time.perf_counter()
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
                rc = pehfault.cli.main(argv)
        except (Exception, SystemExit):
            rc, message = None, traceback.format_exc(limit=3)
        else:
            message = err.getvalue().strip()
        command_s.append(time.perf_counter() - start)
        outcomes.append((rc, message))
    result = PassResult(sum(command_s), command_s, 0, [], 0)
    found = check() if check else {}
    for command, (rc, message) in zip(workload.commands, outcomes):
        problems = [] if rc == 0 else [f"exited {rc}: {message}"]
        for name in command.outputs:
            path = out_dir / name
            if path.is_file():
                result.bytes_written += path.stat().st_size
                result.digests[name] = checks.sha256(path)
            if name in verified and result.digests.get(name) != verified[name]:
                problems.append(f"{name} does not match the first pass's checked output")
            if found.get(name):
                result.rejected.add(name)
                problems += found[name]
        result.failed += bool(problems)
        result.problems += [f"{command.argv[0]}: {p}" for p in problems]
    return result


def first_pass(workload: Workload, corpus: Corpus, out_dir: Path, seed: int, scratch: Path) -> tuple[PassResult, dict]:
    """Warm-up pass, checked in full; returns the digests later passes must match."""
    reference = checks.load_reference()
    result = run_pass(
        workload, corpus, out_dir, {}, check=lambda: checks.verify(workload, corpus, out_dir, seed, scratch, reference)
    )
    outputs = (name for command in workload.commands for name in command.outputs)
    verified = {name: None if name in result.rejected else result.digests.get(name) for name in outputs}
    return result, verified


def measure(workload, corpus, out_dir, verified, seconds: float, tracer: Tracer | None = None):
    """Passes until `seconds` have elapsed (at least MIN_PASSES), each right
    after the workload's calibration kernel; with a tracer, also the span
    summary of each pass."""
    passes, summaries = [], []
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        kernel_s = kernel_seconds(workload.kernel)
        passes.append(run_pass(workload, corpus, out_dir, verified))
        passes[-1].kernel_s = kernel_s
        if tracer is not None:
            summaries.append(summarize(tracer.spans))
    return passes, summaries


def median(values) -> float:
    return float(statistics.median(values))


def layer_metrics(summaries: list[dict], traced: list[PassResult], untraced: list[PassResult]) -> dict[str, float]:
    """Per-layer metrics: counts of one pass (they repeat exactly), median
    self time over the traced passes, and rates from the two."""
    first = summaries[0]
    out: dict[str, float] = {}

    def stat(name: str, key: str) -> float:
        return first.get(name, {}).get(key, 0)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    for module, names in TRACE_TARGETS.items():
        for fn in names:
            name = f"{module}.{fn}"
            out[f"{name}.calls"] = stat(name, "calls")
            out[f"{name}.self_s"] = median(s.get(name, {}).get("self_s", 0.0) for s in summaries)
    load, sim, feat = "dataset.load_recording", "harvester.simulate_voltage", "frontend.make_feature"
    out[f"{load}.mb_per_s"] = per(stat(load, "bytes") / 1e6, out[f"{load}.self_s"])
    out[f"{load}.per_recording"] = per(stat(load, "calls"), stat(load, "distinct"))
    out[f"{sim}.per_segment_design"] = per(stat(sim, "calls"), stat(sim, "distinct"))
    for name in (sim, feat):
        out[f"{name}.msps"] = per(stat(name, "samples") / 1e6, out[f"{name}.self_s"])
    for name in (load, sim, feat):
        # Computed, not measured: the float64 array each stage produces.
        out[f"{name}.computed_mb"] = stat(name, "samples") * 8 / 1e6
    out["classify.knn_predict.qps"] = per(stat("classify.knn_predict", "calls"), out["classify.knn_predict.self_s"])
    out["cli.bytes_written"] = traced[0].bytes_written
    out["trace.wall_s"] = median(p.wall_s for p in traced)
    out["trace.overhead_s"] = out["trace.wall_s"] - median(p.wall_s for p in untraced)
    return out


def counts_repeat(summaries: list[dict]) -> bool:
    """Whether every traced pass made the same calls with the same counts."""
    def counts(summary):
        return {n: {k: v for k, v in e.items() if k != "self_s"} for n, e in summary.items()}

    return all(counts(s) == counts(summaries[0]) for s in summaries[1:])
