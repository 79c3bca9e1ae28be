"""Record the benchmark's reference digests and baseline entries.

    python3 bench/record.py references              # rewrite bench/reference.json
    python3 bench/record.py baseline --seconds 25   # append to bench/baseline.json

`references` runs every workload once on the default seed, checks the outputs
with everything but the digests, and stores their SHA-256. Rewrite it only
when a change is meant to alter the outputs. `baseline` runs bench/run.py on
the default seed, untraced and traced, for every workload, and appends the
metrics with the machine, software and thread pinning to baseline.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import subprocess
import sys

import run  # pins the thread pools before numpy loads

sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import runner  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, build_corpus  # noqa: E402

BASELINE_PATH = run.HERE / "baseline.json"


def record_references() -> None:
    digests = {}
    for workload in WORKLOADS.values():
        work_dir = run.WORK / "record" / workload.name
        shutil.rmtree(work_dir, ignore_errors=True)
        (work_dir / "out").mkdir(parents=True)
        (work_dir / "check").mkdir()
        try:
            corpus = build_corpus(workload, DEFAULT_SEED, work_dir)
            out, scratch = work_dir / "out", work_dir / "check"
            result = runner.run_pass(
                workload, corpus, out, {}, check=lambda: checks.verify(workload, corpus, out, DEFAULT_SEED, scratch, {})
            )
            if result.failed:
                raise SystemExit(f"{workload.name}: outputs fail their checks: {result.problems}")
            digests[workload.name] = {
                name: result.digests[name] for c in workload.commands for name in c.outputs if name.endswith(".csv")
            }
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    checks.REFERENCE_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def machine() -> dict:
    lscpu = subprocess.run(["lscpu"], capture_output=True, text=True, check=True).stdout
    fields = dict(line.split(":", 1) for line in lscpu.splitlines() if ":" in line)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": fields.get("Model name", "").strip(),
        "l2_cache": fields.get("L2 cache", "").strip(),
        "l3_cache": fields.get("L3 cache", "").strip(),
    }


def bench(workload: str, seconds: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(DEFAULT_SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=run.ROOT, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("details: "))


def shares(layers: dict) -> dict:
    """Self time of the stressed layers as a share of the traced pass."""
    wall = layers["trace.wall_s"]
    classify = sum(v for k, v in layers.items() if k.startswith("classify.") and k.endswith(".self_s"))
    load = layers["dataset.load_recording.self_s"]
    return {
        "load_and_filter": (load + layers["harvester.simulate_voltage.self_s"]) / wall,
        "classify": classify / wall,
        "load": load / wall,
    }


def record_baseline(seconds: int, label: str) -> None:
    entry = {
        "label": label,
        "date": datetime.date.today().isoformat(),
        "seed": DEFAULT_SEED,
        "seconds": seconds,
        "machine": machine(),
        "software": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
        "thread_pinning": run.THREAD_PINNING,
        "workloads": {},
    }
    for name in WORKLOADS:
        result, details = bench(name, seconds, 0)
        traced, traced_details = bench(name, seconds, 1)
        layers = traced_details["layers"]
        entry["workloads"][name] = {
            "end_to_end": {k: v["value"] for k, v in result["metrics"].items()},
            "samples": details["samples"],
            "fail_ratio": details["fail_ratio"],
            "command_s_median": details["command_s_median"],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "self_time_share": shares(layers),
            "computed_mb_per_pass": {k: v for k, v in layers.items() if k.endswith(".computed_mb")},
            "counts_repeat": traced_details["counts_repeat"],
        }
    baseline = json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.is_file() else {"entries": []}
    baseline["computed_mb"] = "computed, not measured: samples through each stage x 8 B (float64 arrays)"
    baseline["entries"].append(entry)
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sub.add_parser("references")
    p = sub.add_parser("baseline")
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--label", default="")
    args = parser.parse_args()
    if args.what == "references":
        record_references()
    else:
        record_baseline(args.seconds, args.label)


if __name__ == "__main__":
    main()
