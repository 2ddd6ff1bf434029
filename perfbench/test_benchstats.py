"""Hand-computed checks of the benchmark's own arithmetic.

Run with ``python -m pytest perfbench -q`` from the root of the repository.
"""
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from benchstats import f1_score, median, percentile, plan_f1, reference_units  # noqa: E402
from benchtrace import EpochClock, Patches, Tracer  # noqa: E402
from qakge.contexts import AssessmentPlan, DimensionEdge, RuleEdge  # noqa: E402


class FakeClock:
    """Returns the queued readings one per call."""

    def __init__(self, *readings):
        self.readings = list(readings)

    def __call__(self):
        return self.readings.pop(0)


def test_percentile_interpolates_between_order_statistics():
    xs = [15.0, 20.0, 35.0, 40.0, 50.0]
    assert percentile(xs, 0) == 15.0
    assert percentile(xs, 100) == 50.0
    assert percentile(xs, 50) == 35.0
    # position 0.4 * 4 = 1.6: 20 + 0.6 * (35 - 20)
    assert percentile(xs, 40) == pytest.approx(29.0, abs=1e-12)
    # position 0.9 * 4 = 3.6: 40 + 0.6 * (50 - 40), order of input irrelevant
    assert percentile(list(reversed(xs)), 90) == pytest.approx(46.0, abs=1e-12)
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile(xs, 101)


def test_reference_units_divide_each_stretch_by_the_kernel_time_around_it():
    # 2 s at kernel 0.5 -> 0.5 (mean 0.5), then 3 s at 0.5 -> 1.0 (mean 0.75)
    assert reference_units([10.0, 12.0, 15.0], [0.5, 0.5, 1.0]) == pytest.approx(4 + 4)
    # a host twice as slow throughout reads the same
    assert reference_units([0.0, 4.0, 10.0], [1.0, 1.0, 1.0]) == pytest.approx(
        reference_units([0.0, 2.0, 5.0], [0.5, 0.5, 0.5]))
    with pytest.raises(ValueError):
        reference_units([1.0], [0.5])
    with pytest.raises(ValueError):
        reference_units([1.0, 2.0], [0.5])


def test_f1_of_sets():
    # precision 2/3, recall 2/4 -> F1 = 2 * 2 / (3 + 4)
    assert f1_score({1, 2, 3}, {2, 3, 4, 5}) == pytest.approx(4 / 7)
    assert f1_score([], []) == 1.0
    assert f1_score([1], []) == 0.0
    assert f1_score([], [1]) == 0.0
    assert f1_score([1, 1, 2], [2]) == pytest.approx(2 / 3)  # duplicates count once


def test_plan_f1_scores_rule_and_dimension_pairs_ignoring_weights():
    truth = AssessmentPlan(
        "c",
        (RuleEdge("c_attr_a", "range_check", 0.9), RuleEdge("c_attr_a", "null_count", 0.5),
         RuleEdge("c_attr_b", "missing_values", 0.7)),
        (DimensionEdge("range_check", "accuracy", 0.8), DimensionEdge("null_count", "completeness", 0.4),
         DimensionEdge("missing_values", "completeness", 0.6)),
    )
    plan = AssessmentPlan(
        "c",
        (RuleEdge("c_attr_a", "range_check", 0.1), RuleEdge("c_attr_b", "range_check", 0.2)),
        (DimensionEdge("range_check", "accuracy", 0.3), DimensionEdge("range_check", "precision", 0.3)),
    )
    rule_f1, dim_f1 = plan_f1(plan, truth)
    # rules: 1 hit, 2 predicted, 3 true -> 2*1/(2+3); dimensions: 1 hit, 2 vs 3
    assert rule_f1 == pytest.approx(0.4)
    assert dim_f1 == pytest.approx(0.4)
    assert plan_f1(truth, truth) == (1.0, 1.0)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] holds a [1, 4] and b [5, 9]; b holds c [6, 8]; d [12, 13] stands alone
    tracer = Tracer(clock=FakeClock(0, 1, 4, 5, 6, 8, 9, 10, 12, 13))
    tracer.enter("outer")
    tracer.enter("a")
    tracer.exit()
    tracer.enter("b")
    tracer.enter("c")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    tracer.enter("d")
    tracer.exit()
    assert tracer.total == {"outer": 10, "a": 3, "b": 4, "c": 2, "d": 1}
    assert tracer.self_time == {"outer": 3, "a": 3, "b": 2, "c": 2, "d": 1}
    assert tracer.covered == 11  # top-level spans only


def test_wrapped_calls_add_up_and_counting_is_kept_out_of_self_time():
    layer = types.ModuleType("fake_layer")
    layer.leaf = lambda x: x
    sys.modules["fake_layer"] = layer

    def count(counts, args, kwargs, result):
        counts["leaf.items"] += result

    # leaf [0, 2], its count [2, 3]; parent [3, 12] holds leaf [4, 7] and its count [7, 9]
    tracer = Tracer(clock=FakeClock(0, 2, 2, 3, 3, 4, 7, 7, 9, 12))
    try:
        with Patches() as patches:
            patches.wrap("fake_layer", "leaf", tracer.wrapper("leaf", count))
            assert layer.leaf(5) == 5
            tracer.enter("parent")
            layer.leaf(6)
            tracer.exit()
        assert layer.leaf(1) == 1 and tracer.calls["leaf"] == 2  # restored: not traced
    finally:
        del sys.modules["fake_layer"]
    assert tracer.total["leaf"] == 5 and tracer.self_time["leaf"] == 5
    assert tracer.total["parent"] == 9 and tracer.self_time["parent"] == 4
    assert tracer.total["trace.count"] == 3
    assert tracer.counts["leaf.items"] == 11
    assert tracer.covered == 12


def test_wrapping_a_missing_name_is_reported_not_raised():
    with Patches() as patches:
        assert not patches.wrap("qakge.training", "no_such_function", lambda f: f)
        assert not patches.wrap("qakge.no_such_module", "train", lambda f: f)
    assert patches.absent == ["qakge.training.no_such_function", "qakge.no_such_module.train"]


def test_wrapped_names_are_restored():
    import qakge.training

    original = qakge.training.hinge_part
    with Patches() as patches:
        patches.wrap("qakge.training", "hinge_part", lambda f: (lambda *a, **k: f(*a, **k)))
        assert qakge.training.hinge_part is not original
    assert qakge.training.hinge_part is original


def test_epoch_clock_splits_batch_stamps_into_epochs():
    clock = EpochClock()
    # 130 triples at batch 64 -> 3 draws per epoch; 2 epochs, train returns at 10
    clock.record(130, 64, 2, start=0.0, end=10.0, stamps=[1, 2, 3, 4.5, 6, 7])
    assert clock.epochs == [3.5, 5.5] and clock.exact
    # a draw count that does not fit the layout falls back to the call's mean
    clock.record(130, 64, 2, start=0.0, end=10.0, stamps=[1, 2])
    assert clock.epochs[2:] == [5.0, 5.0] and not clock.exact
