"""Span arithmetic, search counters and wrapper installation of the tracer."""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import mrsfuse.cli  # noqa: E402
import mrsfuse.crossval  # noqa: E402
import mrsfuse.fusion  # noqa: E402
import pytest  # noqa: E402
from mrsfuse import CvPlan, FusionConfig, OutcomeLabel, SyntheticSpec, generate_cohort  # noqa: E402

import tracer  # noqa: E402
from tracer import Tracer, layer_metrics, search_work, self_times  # noqa: E402

G, P = OutcomeLabel.GOOD, OutcomeLabel.POOR


def test_self_time_subtracts_nested_children():
    spans = [
        ["cli.main", 0, 100, -1, "r"],
        ["crossval.evaluate_model", 10, 40, 0, "r"],
        ["fusion.search_threshold", 20, 30, 1, "r"],
        ["metrics.report", 50, 70, 0, "r"],
    ]
    assert self_times(spans) == [50, 20, 10, 20]


def test_self_time_counts_overlapping_children_once_and_clips_to_parent():
    spans = [
        ["a", 0, 100, -1, "r"],
        ["b", 10, 50, 0, "r"],
        ["c", 30, 60, 0, "r"],
        ["d", 90, 120, 0, "r"],
    ]
    assert self_times(spans)[0] == 100 - 50 - 10


def test_layer_metrics_maps_spans_to_self_seconds_and_calls():
    spans = [
        ["cli.main", 0, 10_000_000_000, -1, "r"],
        ["crossval.resolve_fold_config", 1_000_000_000, 4_000_000_000, 0, "r"],
        ["fusion.search_threshold", 1_000_000_000, 2_000_000_000, 1, "r"],
        ["fusion.search_threshold", 2_000_000_000, 3_500_000_000, 1, "r"],
        [tracer.HOOK_SPAN, 3_500_000_000, 4_000_000_000, 1, "r"],
    ]
    counts = Counter({"fusion.derive_labels": 3, "fusion.fuse": 2, "cohort.read_rows": 7})
    m = layer_metrics(spans, counts, search_repeats=1)
    assert m["cli.self_s"] == pytest.approx(7.0)
    assert m["crossval.resolve_self_s"] == pytest.approx(0.0)
    assert m["crossval.resolve_calls"] == 1
    assert m["fusion.search_s"] == pytest.approx(2.5)
    assert m["fusion.search_calls"] == 2
    assert m["fusion.search_repeat_ratio"] == 0.5
    assert m["fusion.helper_calls"] == 5
    assert m["cohort.read_rows"] == 7
    assert m["significance.wilcoxon_calls"] == 0


def test_search_work_on_hand_made_input():
    n, cells, digest = search_work([0.1, 0.2, 0.2, 0.9], [G, P, G, P], "youden")
    assert (n, cells) == (4, 4 * (3 + 1))
    assert digest == search_work((0.1, 0.2, 0.2, 0.9), [G, P, G, P], "youden")[2]
    assert digest != search_work([0.1, 0.2, 0.2, 0.9], [G, P, P, P], "youden")[2]
    assert digest != search_work([0.1, 0.2, 0.2, 0.9], [G, P, G, P], "max_accuracy")[2]


def test_repeats_are_counted_within_one_training_fold_and_one_command():
    t = Tracer()
    t.begin_command("r/0")
    scores, truths = [0.1, 0.4, 0.7], [G, P, P]
    fold_a = [type("P", (), {"patient_id": pid}) for pid in ("a", "b")]
    fold_b = [type("P", (), {"patient_id": pid}) for pid in ("a", "c")]
    t._before_resolve((fold_a,), {})
    t._before_search((scores, truths, "youden"), {})
    t._before_search((scores, truths), {"strategy": "youden"})
    t._before_resolve((fold_b,), {})
    t._before_search((scores, truths, "youden"), {})
    t.begin_command("r/1")
    t._before_resolve((fold_a,), {})
    t._before_search((scores, truths, "youden"), {})
    assert t.search_repeats == 1
    assert t.counts["fusion.search_scores"] == 12
    assert t.counts["fusion.search_cells"] == 4 * 3 * 4


def test_install_rebinds_every_caller_namespace_and_uninstall_restores():
    original = mrsfuse.fusion.search_threshold
    t = Tracer()
    t.install()
    try:
        assert mrsfuse.crossval.search_threshold is not original
        assert mrsfuse.crossval.search_threshold.__wrapped__ is original
        assert mrsfuse.cli.resolve_fold_config is mrsfuse.crossval.resolve_fold_config
        assert mrsfuse.fusion.derive_labels.__wrapped__ is not None
    finally:
        t.uninstall()
    assert mrsfuse.crossval.search_threshold is original
    assert not hasattr(mrsfuse.fusion.derive_labels, "__wrapped__")


def test_traced_cv_counts_match_the_protocol():
    cohort = generate_cohort(SyntheticSpec(n_patients=60, seed=3))
    plan = CvPlan(k=3, n_runs=2)
    t = Tracer()
    t.install()
    try:
        t.begin_command("cv")
        per_module = mrsfuse.crossval.evaluate_per_module(cohort, plan)
        weighted = mrsfuse.crossval.evaluate_model(cohort, plan, FusionConfig("nihss"))
    finally:
        t.uninstall()
    m = t.layer_metrics()
    models = len(per_module) + 1
    assert m["crossval.make_folds_calls"] == models * plan.n_runs
    assert m["crossval.resolve_calls"] == models * plan.n_runs * plan.k
    assert m["fusion.search_calls"] == 2 * m["crossval.resolve_calls"]
    assert m["fusion.fuse_patient_calls"] == models * plan.n_runs * len(cohort.patients)
    assert m["metrics.report_calls"] == models * plan.n_runs
    assert m["crossval.runs_attempted"] == models * plan.n_runs
    assert m["crossval.failed_runs"] == 0 == len(weighted.failures)
    # a single-module final search sees the module's own scores again
    repeats = m["fusion.search_repeat_ratio"] * m["fusion.search_calls"]
    assert repeats == len(per_module) * plan.n_runs * plan.k
    assert all(span[2] >= span[1] for span in t.spans)
