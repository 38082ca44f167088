"""Metamorphic relations: changes to the input that must leave named outputs equal, or change them in a stated way.

Halving one module's probabilities keeps the order of its scores, so the thresholds searched on them halve exactly
(a cut lies between two scores, and halving is exact in binary floating point) and every decision and rank measure
of that module's variant stays as it was; the mean absolute error changes and is not compared. Renaming the patients
in a way that keeps the order of their ids changes neither the folds nor any number: the ``cv`` summary stays byte
for byte, and ``fuse`` changes only its id column. Permuting the module columns together with their names keeps
every decision and rank measure and the preliminary thresholds of ``cv``'s variants; the kernel sums the columns in
their order, so the MAE and the final thresholds move by rounding only. Cubing a module's column keeps the order of
its scores, and so its AUC. Permuting the rows of the cohort permutes the rows of ``fuse``'s table and keeps its
thresholds: its search counts at the group ends of sorted scores, and each of its rows follows its input row.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import mrsfuse.cli
from conftest import take
from mrsfuse.cohort import Cohort, write_cohort_csv
from mrsfuse.crossval import MODULE_BASELINE, CvPlan, ensemble_name, evaluate_variants
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


def cv_configs(module_names: tuple[str, ...], variable: str) -> dict:
    """The variants ``cli cv`` evaluates: each module alone, the plain ensemble and the weighted one."""
    weighted = FusionConfig(variable)
    return {**{name: (MODULE_BASELINE, name) for name in module_names}, "ensemble": (FusionConfig("none"), None),
            ensemble_name(weighted): (weighted, None)}


@pytest.mark.parametrize("variable", ["nihss", "age"])
@pytest.mark.parametrize("n", [60, 119])
@pytest.mark.parametrize("seed", range(4))
def test_permuting_the_module_columns_keeps_every_variant(seed, n, variable):
    cohort = generate_cohort(SyntheticSpec(n_patients=n, seed=seed))
    order = np.roll(np.arange(len(cohort.module_names)), seed + 1)  # no module keeps its place
    permuted = Cohort.of_columns([cohort.module_names[j] for j in order], cohort.ids, cohort.probs[:, order],
                                 cohort.age, cohort.nihss, cohort.mrs)
    plan = CvPlan(k=5, n_runs=4, base_seed=seed)
    before = evaluate_variants(cohort, plan, cv_configs(cohort.module_names, variable))
    after = evaluate_variants(permuted, plan, cv_configs(permuted.module_names, variable))
    assert sorted(after) == sorted(before) and any(summary.runs for summary in before.values())
    for name, summary in before.items():
        assert after[name].failures == summary.failures
        assert [after[name].run_values(m) for m in ORDER_MEASURES] == [summary.run_values(m) for m in ORDER_MEASURES]
        assert np.allclose(after[name].run_values("mae"), summary.run_values("mae"), rtol=0, atol=1e-14)
        folds = [(fold, moved) for run, shifted in zip(summary.runs, after[name].runs)
                 for fold, moved in zip(run.folds, shifted.folds, strict=True)]
        assert [moved.prelim_threshold for _, moved in folds] == [fold.prelim_threshold for fold, _ in folds]
        assert all(abs(moved.final_threshold - fold.final_threshold) <= 1e-14 for fold, moved in folds)


@pytest.mark.parametrize("n", [60, 119])
@pytest.mark.parametrize("seed", range(4))
def test_cubing_a_module_keeps_its_auc(seed, n):
    cohort = generate_cohort(SyntheticSpec(n_patients=n, seed=seed))
    plan = CvPlan(k=5, n_runs=4, base_seed=seed)
    configs = {name: (MODULE_BASELINE, name) for name in cohort.module_names}
    before = evaluate_variants(cohort, plan, configs)
    for j, name in enumerate(cohort.module_names):
        probs = cohort.probs.copy()
        probs[:, j] **= 3
        after = evaluate_variants(with_columns(cohort, probs=probs), plan, {name: configs[name]})[name]
        assert after.failures == before[name].failures
        assert after.run_values("auc") == before[name].run_values("auc")


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


def fuse_outcome(path, *flags: str, capsys) -> tuple:
    """The exit code of ``cli fuse`` on a cohort file and its stdout, or its stderr where it failed."""
    code = mrsfuse.cli.main(["fuse", "--cohort", str(path), *flags])
    out, err = capsys.readouterr()
    return code, out if code == 0 else err


@pytest.mark.parametrize("strategy", ["youden", "max_accuracy"])
@pytest.mark.parametrize("variable", ["nihss", "age", "none"])
@pytest.mark.parametrize("n", [60, 119])
@pytest.mark.parametrize("seed", range(4))
def test_permuting_rows_permutes_the_fuse_table(seed, n, variable, strategy, tmp_path, monkeypatch, capsys):
    cohort = generate_cohort(SyntheticSpec(n_patients=n, seed=seed))
    permuted = take(cohort, np.random.default_rng(seed).permutation(n))
    monkeypatch.delenv(mrsfuse.cli.CONFIG_ENV_VAR, raising=False)
    outcomes = []  # per file, the outcome of each format
    for name, rows in (("cohort.csv", cohort), ("permuted.csv", permuted)):
        write_cohort_csv(rows, tmp_path / name)
        outcomes.append([fuse_outcome(tmp_path / name, "--variable", variable, "--strategy", strategy,
                                      "--format", fmt, capsys=capsys) for fmt in ("csv", "json")])
    codes = [code for file in outcomes for code, _ in file]
    if codes[0] != 0:
        assert outcomes[1] == outcomes[0]  # the same error line
        return
    assert codes == [0, 0, 0, 0]
    (table, document), (permuted_table, permuted_document) = ([text for _, text in file] for file in outcomes)
    header, *lines = table.splitlines()
    permuted_header, *permuted_lines = permuted_table.splitlines()
    line_of = dict(zip(cohort.ids.tolist(), lines, strict=True))
    assert permuted_header == header
    assert permuted_lines == [line_of[patient_id] for patient_id in permuted.ids.tolist()]
    assert json.loads(permuted_document)["config"] == json.loads(document)["config"]
