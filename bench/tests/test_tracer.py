import sys

import pytest

import pehfault.cli  # noqa: F401  (loads every pehfault module the tracer patches)
from tracer import Span, Tracer, self_times, summarize

from runner import TRACE_TARGETS


def bindings():
    """(module, attribute) -> object for every pehfault module namespace."""
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "pehfault" or name.startswith("pehfault.")
        for attr, value in vars(module).items()
    }


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("a1", 2.0, 3.0, 1),
        Span("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_self_time_counts_overlapping_children_once():
    spans = [Span("root", 0.0, 10.0, -1), Span("c", 1.0, 5.0, 0), Span("c", 3.0, 6.0, 0), Span("c", 4.0, 5.5, 0)]
    assert self_times(spans)[0] == 5.0


def test_summarize_sums_counts_and_distinct_keys():
    spans = [
        Span("load", 0.0, 1.0, -1, {"key": "a", "bytes": 4}),
        Span("load", 1.0, 3.0, -1, {"key": "a", "bytes": 4}),
        Span("load", 3.0, 4.0, -1, {"key": "b", "bytes": 8}),
    ]
    entry = summarize(spans)["load"]
    assert entry == {"calls": 3, "self_s": 4.0, "bytes": 16, "distinct": 2}


def test_wrappers_patch_every_importer_and_restore_originals():
    before = bindings()
    original = before[("pehfault.dataset", "build_feature_set")]
    with Tracer("pehfault", TRACE_TARGETS):
        during = bindings()
        for module in ("pehfault.dataset", "pehfault.classify", "pehfault.report", "pehfault.cli", "pehfault"):
            assert during[(module, "build_feature_set")] is not original
            assert during[(module, "build_feature_set")].__wrapped__ is original
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_calls_through_a_reexport_are_recorded():
    import pehfault
    import pehfault.classify as classify

    with Tracer("pehfault", {"classify": ("knn_fit", "knn_predict")}) as tracer:
        model = pehfault.knn_fit([([0.0], "a"), ([1.0], "b"), ([2.0], "b")], k=1)
        assert classify.knn_predict(model, [1.9]) == "b"
    assert [s.name for s in tracer.spans] == ["classify.knn_fit", "classify.knn_predict"]
    assert all(s.parent == -1 and s.end >= s.start for s in tracer.spans)


def test_missing_names_are_absent_not_errors():
    with Tracer("pehfault", {"dataset": ("no_such_function",), "no_such_module": ("f",)}) as tracer:
        pass
    assert tracer.absent == ["dataset.no_such_function", "no_such_module.f"]


def test_failing_hook_is_reported_and_the_call_still_returns():
    import pehfault.signals as signals

    def hook(args, result):
        raise KeyError("missing")

    with Tracer("pehfault", {"signals": ("signal_energy",)}, {"signals.signal_energy": hook}) as tracer:
        ts = signals.synth_sine(50.0, 1.0, 0.0, 1000.0, 1.0)
        assert signals.signal_energy(ts) == pytest.approx(0.5, rel=1e-3)
    assert "signals.signal_energy" in tracer.hook_errors
    assert len(tracer.spans) == 1
