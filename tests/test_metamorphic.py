"""Metamorphic relations: changes to the input that must leave named outputs equal, or change them in a stated way.

Halving one module's probabilities keeps the order of its scores, so the thresholds searched on them halve exactly
(a cut lies between two scores, and halving is exact in binary floating point) and every decision and rank measure
of that module's variant stays as it was; the mean absolute error changes and is not compared. Renaming the patients
in a way that keeps the order of their ids changes neither the folds nor any number: the ``cv`` summary stays byte
for byte, and ``fuse`` changes only its id column.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import mrsfuse.cli
from mrsfuse.cohort import Cohort, write_cohort_csv
from mrsfuse.crossval import MODULE_BASELINE, CvPlan, evaluate_variants
from mrsfuse.fusion import FusionConfig
from mrsfuse.synth import SyntheticSpec, generate_cohort

# the measures that depend on the scores only through their order and the thresholds
ORDER_MEASURES = ("accuracy", "sensitivity", "specificity", "f1", "auc")


def with_columns(cohort: Cohort, ids=None, probs=None) -> Cohort:
    """``cohort`` with its ids or its module probabilities replaced."""
    return Cohort.of_columns(cohort.module_names, cohort.ids if ids is None else ids,
                             cohort.probs if probs is None else probs, cohort.age, cohort.nihss, cohort.mrs)


@pytest.mark.parametrize("strategy", ["youden", "max_accuracy"])
@pytest.mark.parametrize("n", [60, 119, 400])
@pytest.mark.parametrize("seed", range(4))
def test_halving_a_module_halves_its_thresholds_and_keeps_its_measures(n, seed, strategy):
    cohort = generate_cohort(SyntheticSpec(n_patients=n, seed=seed))
    plan = CvPlan(k=5, n_runs=4, base_seed=seed)
    configs = {name: (FusionConfig("none", strategy=strategy), name) for name in cohort.module_names}
    before = evaluate_variants(cohort, plan, configs)
    assert any(summary.runs for summary in before.values())
    for j, name in enumerate(cohort.module_names):
        probs = cohort.probs.copy()
        probs[:, j] /= 2
        after = evaluate_variants(with_columns(cohort, probs=probs), plan, {name: configs[name]})[name]
        assert after.failures == before[name].failures
        assert len(after.runs) == len(before[name].runs)
        for run, halved in zip(before[name].runs, after.runs):
            assert [halved.metrics.value(m) for m in ORDER_MEASURES] == [run.metrics.value(m) for m in ORDER_MEASURES]
            assert [(f.prelim_threshold / 2, f.final_threshold / 2) for f in run.folds] == [
                (f.prelim_threshold, f.final_threshold) for f in halved.folds]


RENAMED = np.vectorize(lambda patient_id: "P" + patient_id[1:] + "x", otypes=[object])  # S0001 -> P0001x


def test_renaming_ids_in_their_order_keeps_the_cv_summary():
    cohort = generate_cohort(SyntheticSpec(n_patients=119, seed=4))
    renamed = with_columns(cohort, ids=RENAMED(cohort.ids))
    assert np.array_equal(np.argsort(renamed.ids), np.argsort(cohort.ids))
    plan = CvPlan(k=5, n_runs=3, base_seed=4)
    configs = {"ADC": (MODULE_BASELINE, "ADC"), "ensemble": (FusionConfig("none"), None),
               "ensemble_w_nihss": (FusionConfig("nihss"), None)}

    def summary(rows: Cohort) -> str:
        return json.dumps({name: s.as_dict() for name, s in evaluate_variants(rows, plan, configs).items()},
                          indent=2, sort_keys=True)

    assert summary(renamed) == summary(cohort)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_renaming_ids_in_their_order_changes_only_the_fuse_id_column(fmt, tmp_path, monkeypatch, capsys):
    cohort = generate_cohort(SyntheticSpec(n_patients=119, seed=4))
    monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
    tables = []
    for name, rows in (("cohort.csv", cohort), ("renamed.csv", with_columns(cohort, ids=RENAMED(cohort.ids)))):
        write_cohort_csv(rows, tmp_path / name)
        assert mrsfuse.cli.main(["fuse", "--cohort", str(tmp_path / name), "--variable", "nihss", "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "csv":
            tables.append([line.split(",", 1) for line in out.splitlines()[1:]])
        else:
            tables.append([[patient.pop("patient_id"), patient] for patient in json.loads(out)["patients"]])
    original, renamed = tables
    assert len(original) == len(cohort)
    assert [rest for _, rest in renamed] == [rest for _, rest in original]
    assert [patient_id for patient_id, _ in renamed] == RENAMED(cohort.ids).tolist()
    assert [patient_id for patient_id, _ in original] == cohort.ids.tolist()
