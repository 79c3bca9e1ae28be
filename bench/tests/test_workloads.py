"""Each workload on the default seed: valid inputs, outputs that pass every
check, a trace that reaches every wrapped name, and counts that repeat and
follow from the workload's parameters, and a calibration kernel that runs."""

import pytest

import checks
import runner
from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, build_corpus, precondition_violations

# Wrapped names each workload's commands reach.
PIPELINE = {
    "dataset.load_recording", "dataset.build_feature_set", "signals.segment",
    "harvester.simulate_voltage", "frontend.make_feature", "cli.main",
}
CLASSIFY = {
    "classify.split", "classify.knn_fit", "classify.knn_predict", "classify.evaluate", "classify.repeated_evaluation",
}
REACHED = {
    "experiment-f32": {f"{m}.{f}" for m, names in runner.TRACE_TARGETS.items() for f in names},
    "knn-wide": PIPELINE | CLASSIFY | {"cli.cmd_classify"},
    "ingest-text": PIPELINE | {"cli.cmd_extract"},
}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced_run(request, tmp_path_factory):
    workload = WORKLOADS[request.param]
    work = tmp_path_factory.mktemp(workload.name)
    (work / "out").mkdir()
    (work / "check").mkdir()
    corpus = build_corpus(workload, DEFAULT_SEED, work)
    first, verified = runner.first_pass(workload, corpus, work / "out", DEFAULT_SEED, work / "check")
    with Tracer("pehfault", runner.TRACE_TARGETS, runner.TRACE_HOOKS) as tracer:
        passes, summaries = runner.measure(workload, corpus, work / "out", verified, seconds=0.0, tracer=tracer)
    return workload, corpus, work, first, passes, summaries


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_preconditions_hold(name):
    assert precondition_violations(WORKLOADS[name]) == []


def test_outputs_pass_every_check(traced_run):
    workload, _, _, first, passes, _ = traced_run
    assert first.problems == []
    assert [p.failed for p in passes] == [0] * len(passes)


def test_every_wrapped_name_records_a_span(traced_run):
    workload, _, _, _, _, summaries = traced_run
    for summary in summaries:
        assert REACHED[workload.name] <= summary.keys()


def test_counts_repeat_and_follow_from_parameters(traced_run):
    workload, corpus, work, _, _, summaries = traced_run
    assert runner.counts_repeat(summaries)
    counts = summaries[0]
    builds, designs = 0, set()
    for command in workload.commands:
        used, periods = command.designs_and_periods()
        builds += len(used) * len(periods)
        designs |= set(used)
    segments = corpus.n_recordings * command.config().segments_per_recording
    assert counts["dataset.build_feature_set"]["calls"] == builds
    assert counts["dataset.load_recording"]["calls"] == builds * corpus.n_recordings
    assert counts["dataset.load_recording"]["distinct"] == corpus.n_recordings
    assert counts["harvester.simulate_voltage"]["calls"] == builds * segments
    assert counts["harvester.simulate_voltage"]["distinct"] == len(designs) * segments
    if workload.name == "knn-wide":
        rows = checks.read_csv(work / "out" / "classification.csv")
        assert counts["classify.knn_predict"]["calls"] == sum(int(r["n_validation"]) for r in rows) == 50 * 168



@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_calibration_kernel_is_known_and_runs(name):
    assert runner.kernel_seconds(WORKLOADS[name].kernel) > 0


def test_at_reference_divides_out_the_kernel_slowdown():
    reference = runner.KERNELS["numpy"][1]
    assert runner.at_reference(3.0, "numpy", reference) == pytest.approx(3.0)
    assert runner.at_reference(3.0, "numpy", 1.5 * reference) == pytest.approx(2.0)
