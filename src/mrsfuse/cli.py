"""Command-line interface.

Commands: ``fuse`` (per-patient fusion table), ``cv`` (cross-validated
evaluation of modules and ensembles), ``compare`` (signed-rank comparison
of two summaries), ``synth`` (synthetic cohort generation), ``validate``
(cohort schema checks).

Exit codes: 0 success, 2 validation or configuration problem, 3 I/O
problem. Errors are printed to stderr as single ``error: ...`` lines.
A JSON config file may preset shared options; explicit flags win. The
MRSFUSE_CONFIG environment variable names a default config file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .cohort import (
    ClinicalNormalizer,
    Cohort,
    OutcomeLabel,
    as_plain,
    atomic_output,
    not_utf8_reason,
    read_cohort_csv,
    validate_cohort,
    write_cohort_csv,
)
from .crossval import (
    MODULE_BASELINE,
    CvPlan,
    compare_summary_dicts,
    ensemble_name,
    evaluate_variants,
    resolve_fold_config,
)
from .errors import ConfigError, DegenerateDataError, ValidationError
from .fusion import FUSION_VARIABLES, THRESHOLD_STRATEGIES, FusionConfig, fuse_rows
from .metrics import MEASURES
from .synth import SyntheticSpec, generate_cohort

CONFIG_ENV_VAR = "MRSFUSE_CONFIG"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3

OUTPUT_FORMATS = ("csv", "json")

# Recognized keys of each JSON input and the JSON type each value must have
# (``float`` also admits integers). Null is not type-checked: in a config it
# leaves the key unset, and SyntheticSpec rejects it in a spec.
CONFIG_FILE_KEYS = {
    "cohort": str,
    "variable": str,
    "norm_min": float,
    "norm_max": float,
    "tau": float,
    "tau_star": float,
    "strategy": str,
    "k": int,
    "runs": int,
    "seed": int,
    "stratified": bool,
    "out": str,
    "format": str,
}

SYNTH_SPEC_KEYS = {
    "n_patients": int,
    "prevalence_poor": float,
    "module_aucs": list,
    "module_names": list,
    "rho_age": float,
    "rho_nihss": float,
    "seed": int,
}

# synth flags (argparse destinations) that set a spec key as given; the
# comma-separated module lists are parsed in _cmd_synth
SYNTH_FLAG_KEYS = {
    "n_patients": "n_patients",
    "prevalence": "prevalence_poor",
    "rho_age": "rho_age",
    "rho_nihss": "rho_nihss",
    "seed": "seed",
}

_JSON_TYPE_NAMES = {
    str: "a string", float: "a number", int: "an integer", bool: "true or false", list: "a list",
}


def _json_dumps(document: object) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def _read_json(path: Path) -> object:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {not_utf8_reason(exc)}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer literal beyond Python's digit limit
        raise ConfigError(f"{path}: not valid JSON: {exc}") from exc


def _has_json_type(value: object, expected: type) -> bool:
    if isinstance(value, bool):
        return expected is bool
    if expected is float:
        return isinstance(value, (int, float))
    return isinstance(value, expected)


def _load_json(path: Path, key_types: dict[str, type], what: str) -> dict:
    document = _read_json(path)
    if not isinstance(document, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    unknown = sorted(set(document) - set(key_types))
    if unknown:
        raise ConfigError(f"{path}: unknown {what} keys: {', '.join(unknown)}")
    for key, value in document.items():
        if value is not None and not _has_json_type(value, key_types[key]):
            raise ConfigError(
                f"{path}: {what} key {key!r} must be {_JSON_TYPE_NAMES[key_types[key]]}, got {value!r}"
            )
    return document


def _add_shared_flags(parser: argparse.ArgumentParser, output: bool) -> None:
    parser.add_argument("--cohort", help="cohort CSV path")
    parser.add_argument("--config", help="JSON config file (flags override it)")
    parser.add_argument("--variable", choices=FUSION_VARIABLES, help="clinical weighting variable")
    parser.add_argument("--norm-min", type=float, help="covariate normalization lower bound")
    parser.add_argument("--norm-max", type=float, help="covariate normalization upper bound")
    parser.add_argument("--tau", type=float, help="preliminary (module-label) threshold")
    parser.add_argument("--tau-star", type=float, help="final decision threshold")
    parser.add_argument("--strategy", choices=THRESHOLD_STRATEGIES, help="threshold selection strategy")
    parser.add_argument("--k", type=int, help="number of cross-validation folds")
    parser.add_argument("--runs", type=int, help="number of repeated runs")
    parser.add_argument("--seed", type=int, help="base random seed")
    if output:
        parser.add_argument("--out", help="output path (default: stdout)")
        parser.add_argument("--format", choices=OUTPUT_FORMATS, help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrsfuse",
        description="Covariate-weighted late fusion and evaluation for binary outcome prediction.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, description, output in (
        ("fuse", "fuse module probabilities into per-patient predictions", True),
        ("cv", "cross-validated evaluation of modules and ensembles", True),
        ("validate", "check a cohort CSV against the schema invariants", False),
    ):
        sub = commands.add_parser(name, help=description)
        _add_shared_flags(sub, output)

    compare = commands.add_parser("compare", help="signed-rank comparison of two cv summaries")
    compare.add_argument("summary_a", help="first summary JSON")
    compare.add_argument("summary_b", help="second summary JSON")
    compare.add_argument("--measure", required=True, help=f"one of {', '.join(MEASURES)}")
    compare.add_argument("--variant-a", help="variant name in the first file (default: its primary)")
    compare.add_argument("--variant-b", help="variant name in the second file (default: its primary)")
    compare.add_argument("--out", help="output path (default: stdout)")

    synth = commands.add_parser("synth", help="generate a synthetic cohort CSV")
    synth.add_argument("--spec", help="synthetic spec JSON (flags override it)")
    synth.add_argument("--n-patients", type=int, help="cohort size")
    synth.add_argument("--prevalence", type=float, help="poor-outcome prevalence in (0, 1)")
    synth.add_argument("--module-aucs", help="comma-separated per-module AUC targets")
    synth.add_argument("--module-names", help="comma-separated module names")
    synth.add_argument("--rho-age", type=float, help="age-outcome copula correlation")
    synth.add_argument("--rho-nihss", type=float, help="nihss-outcome copula correlation")
    synth.add_argument("--seed", type=int, help="generator seed")
    synth.add_argument("--out", required=True, help="cohort CSV output path")

    return parser


class _Settings:
    """Flag values merged over config-file values merged over defaults."""

    DEFAULTS = {
        "variable": "nihss",
        "strategy": "youden",
        "k": 5,
        "runs": 10,
        "seed": 0,
        "stratified": True,
    }

    # config-file values checked beyond their JSON type: the allowed
    # choices, the least allowed integer, and the thresholds' open interval
    CHOICES = {"variable": FUSION_VARIABLES, "strategy": THRESHOLD_STRATEGIES, "format": OUTPUT_FORMATS}
    MINIMUMS = {"k": 2, "runs": 1, "seed": 0}
    THRESHOLDS = ("tau", "tau_star")

    def __init__(self, args: argparse.Namespace):
        config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
        self.file_values: dict = {}
        if config_path:
            self.file_values = _load_json(Path(config_path), CONFIG_FILE_KEYS, "config")
        self.args = args
        # normalizer bounds out of order, with the file's key named when a flag does not override it
        low, high = self.get("norm_min"), self.get("norm_max")
        bounds_reversed = low is not None and high is not None and not high > low
        max_flag = getattr(args, "norm_max", None) is not None
        for key, value in self.file_values.items():
            if value is None:
                continue
            if key in self.CHOICES and value not in self.CHOICES[key]:
                problem = f"must be one of {', '.join(self.CHOICES[key])}"
            elif key in self.MINIMUMS and value < self.MINIMUMS[key]:
                problem = f"must be an integer >= {self.MINIMUMS[key]}"
            elif key in self.THRESHOLDS and not 0.0 < value < 1.0:
                problem = "must lie in (0, 1)"
            elif key == "norm_max" and bounds_reversed and not max_flag:
                problem = f"must be greater than 'norm_min' ({low!r})"
            elif key == "norm_min" and bounds_reversed and max_flag and getattr(args, "norm_min", None) is None:
                problem = f"must be less than 'norm_max' ({high!r})"
            else:
                continue
            raise ConfigError(f"{config_path}: config key {key!r} {problem}, got {value!r}")

    def get(self, key: str, flag: str | None = None):
        flag_value = getattr(self.args, flag or key, None)
        if flag_value is not None:
            return flag_value
        file_value = self.file_values.get(key)
        if file_value is not None:
            return file_value
        return self.DEFAULTS.get(key)

    def fusion_config(self) -> FusionConfig:
        variable = self.get("variable")
        norm_min = self.get("norm_min")
        norm_max = self.get("norm_max")
        if (norm_min is None) != (norm_max is None):
            raise ConfigError("--norm-min and --norm-max must be given together")
        normalizer = None
        if norm_min is not None:
            if variable == "none":
                raise ConfigError("normalization bounds require a clinical variable")
            normalizer = ClinicalNormalizer(variable=variable, min=norm_min, max=norm_max)
        return FusionConfig(
            clinical_variable=variable,
            normalizer=normalizer,
            prelim_threshold=self.get("tau"),
            final_threshold=self.get("tau_star"),
            strategy=self.get("strategy"),
        )

    def plan(self) -> CvPlan:
        return CvPlan(
            k=self.get("k"),
            n_runs=self.get("runs"),
            base_seed=self.get("seed"),
            stratified=bool(self.get("stratified")),
        )

    def cohort_path(self) -> Path:
        cohort = self.get("cohort")
        if not cohort:
            raise ConfigError("a cohort CSV is required (--cohort or config file)")
        return Path(cohort)


def _read_valid_cohort(path: Path) -> Cohort:
    cohort = read_cohort_csv(path)
    violations = validate_cohort(cohort)
    if violations:
        for violation in violations:
            print(f"error: validation: {violation}", file=sys.stderr)
        raise ValidationError(f"{path}: {len(violations)} validation violations")
    return cohort


def _csv_text(rows: list[list]) -> str:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with atomic_output(out) as handle:
            handle.write(text)


def _cmd_fuse(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    cohort = _read_valid_cohort(settings.cohort_path())
    config = settings.fusion_config()
    resolved, _ = resolve_fold_config(cohort, config)
    _, weights, fused, poor = fuse_rows(cohort, resolved)
    poor_unweighted = fuse_rows(cohort, replace(resolved, clinical_variable="none", normalizer=None))[3]
    label_names = [str(label) for label in OutcomeLabel]  # indexed by "is poor"

    modules = [name.lower() for name in cohort.module_names]
    header = (
        ["patient_id"] + [f"p_{m}" for m in modules] + [f"w_{m}" for m in modules]
        + ["fused_prob", "label_unweighted", "label_weighted"]
    )
    table = [
        [pid, *probs, *w, f, label_names[poor_unweighted], label_names[poor_weighted]]
        for pid, probs, w, f, poor_unweighted, poor_weighted in zip(
            cohort.ids.tolist(),
            cohort.probs.tolist(),
            weights.tolist(),
            fused.tolist(),
            poor_unweighted.tolist(),
            poor.tolist(),
        )
    ]

    if settings.get("format") == "json":
        document = {
            "config": {
                "clinical_variable": resolved.clinical_variable,
                "prelim_threshold": resolved.prelim_threshold,
                "final_threshold": resolved.final_threshold,
            },
            "patients": [dict(zip(header, row)) for row in table],
        }
        text = _json_dumps(document)
    else:
        text = _csv_text([header, *table])
    _emit(text, settings.get("out"))
    return EXIT_OK


def _cmd_cv(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    cohort_path = settings.cohort_path()
    cohort = _read_valid_cohort(cohort_path)
    config = settings.fusion_config()
    plan = settings.plan()

    # each module alone, the plain ensemble, and the weighted ensemble when the config weights
    configs = {name: (MODULE_BASELINE, name) for name in cohort.module_names}
    configs["ensemble"] = (replace(config, clinical_variable="none", normalizer=None), None)
    primary = ensemble_name(config)
    configs[primary] = (config, None)
    variants = {name: summary.as_dict() for name, summary in evaluate_variants(cohort, plan, configs).items()}

    document = {
        "cohort": str(cohort_path),
        "plan": as_plain(plan),
        "primary": primary,
        "variants": variants,
    }

    order = list(cohort.module_names) + ["ensemble"] + ([primary] if primary != "ensemble" else [])
    _print_cv_table(variants, order)

    text = _cv_table_csv(variants, order) if settings.get("format") == "csv" else _json_dumps(document)
    _emit(text, settings.get("out"))
    return EXIT_OK


def _variant_cell(variant: dict, measure: str) -> str:
    stats = variant["measures"][measure]
    if stats is None:
        return "n/a"
    return f"{stats['mean']:.3f} ± {stats['std']:.3f}"


def _print_cv_table(variants: dict[str, dict], order: list[str]) -> None:
    width = max(15, *(len(name) + 2 for name in order))
    header = "measure".ljust(12) + "".join(name.rjust(width) for name in order)
    print(header)
    for measure in MEASURES:
        cells = [_variant_cell(variants[name], measure).rjust(width) for name in order]
        print(measure.ljust(12) + "".join(cells))
    for name in order:
        failures = variants[name]["failures"]
        if failures:
            print(f"note: {name}: {len(failures)} failed runs ({failures[0]}...)")


def _cv_table_csv(variants: dict[str, dict], order: list[str]) -> str:
    rows = [["model"] + [f"{m}_{s}" for m in MEASURES for s in ("mean", "std")]]
    for name in order:
        stats = [variants[name]["measures"][measure] or {"mean": "", "std": ""} for measure in MEASURES]
        rows.append([name] + [st[key] for st in stats for key in ("mean", "std")])
    return _csv_text(rows)


def _pick_variant(document: object, requested: str | None, path: str) -> dict:
    if not isinstance(document, dict):
        raise ValidationError(f"{path}: not a recognizable summary file")
    if "variants" in document:
        variants = document["variants"]
        if not isinstance(variants, dict):
            raise ValidationError(f"{path}: 'variants' must be a JSON object")
        name = requested or document.get("primary")
        if not isinstance(name, str) or name not in variants:
            raise ConfigError(f"{path}: variant {name!r} not present")
        if not isinstance(variants[name], dict):
            raise ValidationError(f"{path}: variant {name!r} is not a summary object")
        return variants[name]
    if "runs" in document:
        return document
    raise ValidationError(f"{path}: not a recognizable summary file")


def _cmd_compare(args: argparse.Namespace) -> int:
    doc_a = _read_json(Path(args.summary_a))
    doc_b = _read_json(Path(args.summary_b))
    summary_a = _pick_variant(doc_a, args.variant_a, args.summary_a)
    summary_b = _pick_variant(doc_b, args.variant_b, args.summary_b)
    result = compare_summary_dicts(summary_a, summary_b, args.measure, (args.summary_a, args.summary_b))
    document = {
        "measure": args.measure,
        "a": {"path": args.summary_a, "model": summary_a.get("model")},
        "b": {"path": args.summary_b, "model": summary_b.get("model")},
        **as_plain(result),
    }
    _emit(_json_dumps(document), args.out)
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    values: dict = {}
    if args.spec:
        values.update(_load_json(Path(args.spec), SYNTH_SPEC_KEYS, "synthetic spec"))
    values.update(
        (key, getattr(args, flag)) for flag, key in SYNTH_FLAG_KEYS.items() if getattr(args, flag) is not None
    )
    if args.module_aucs is not None:
        try:
            values["module_aucs"] = [float(x) for x in args.module_aucs.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--module-aucs must be comma-separated numbers: {exc}") from exc
    if args.module_names is not None:
        values["module_names"] = [x.strip() for x in args.module_names.split(",")]
    if "n_patients" not in values:
        raise ConfigError("n_patients is required (--n-patients or spec file)")

    try:
        spec = SyntheticSpec(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid synthetic spec: {exc}") from exc
    try:
        cohort = generate_cohort(spec)
    except (ValueError, MemoryError) as exc:  # numpy refusing arrays of n_patients rows
        raise ConfigError(f"cannot generate {spec.n_patients} patients: {exc}") from exc
    write_cohort_csv(cohort, args.out)
    print(f"wrote {len(cohort)} patients to {args.out}")
    return EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    cohort = read_cohort_csv(settings.cohort_path())
    violations = validate_cohort(cohort)
    if violations:
        print("\n".join(map(str, violations)))
        print(f"error: validation: {len(violations)} violations", file=sys.stderr)
        return EXIT_INVALID
    print(f"ok: {len(cohort)} patients, {len(cohort.module_names)} modules")
    return EXIT_OK


_COMMANDS = {
    "fuse": _cmd_fuse,
    "cv": _cmd_cv,
    "compare": _cmd_compare,
    "synth": _cmd_synth,
    "validate": _cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValidationError, ConfigError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
