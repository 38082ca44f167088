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
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from .cohort import (
    CSV_CHUNK_ROWS,
    ClinicalNormalizer,
    Cohort,
    OutcomeLabel,
    as_plain,
    atomic_output,
    module_column,
    not_utf8_reason,
    read_cohort_csv,
    validate_cohort,
    write_cohort_csv,
    write_csv_columns,
)
from .crossval import (
    MODULE_BASELINE,
    CvPlan,
    compare_summary_dicts,
    ensemble_name,
    evaluate_variants,
    fuse_by_fold,
    resolve_fold_config,
)
from .errors import ConfigError, DegenerateDataError, ValidationError
from .fusion import FUSION_VARIABLES, THRESHOLD_STRATEGIES, FusionConfig, is_poor
from .metrics import MEASURES
from .synth import SyntheticSpec, generate_cohort

CONFIG_ENV_VAR = "MRSFUSE_CONFIG"

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_IO = 3

OUTPUT_FORMATS = ("csv", "json")

# The recognized keys of each JSON input. Each key has the JSON type its value must have (``float`` also admits
# integers), the help of its flag ``_flag(key)`` (None: no flag) and, in a config, the field of FusionConfig,
# ClinicalNormalizer or CvPlan that it sets (None: the CLI reads it itself). Null is not type-checked: in a
# config it leaves the key unset, and SyntheticSpec rejects it in a spec.
CONFIG_FILE_KEYS = {
    "cohort": (str, "cohort CSV path", None),
    "variable": (str, "clinical weighting variable", "clinical_variable"),
    "norm_min": (float, "covariate normalization lower bound", "min"),
    "norm_max": (float, "covariate normalization upper bound", "max"),
    "tau": (float, "preliminary (module-label) threshold", "prelim_threshold"),
    "tau_star": (float, "final decision threshold", "final_threshold"),
    "strategy": (str, "threshold selection strategy", "strategy"),
    "k": (int, "number of cross-validation folds", "k"),
    "runs": (int, "number of repeated runs", "n_runs"),
    "seed": (int, "base random seed", "base_seed"),
    "stratified": (bool, None, "stratified"),
    "out": (str, "output path (default: stdout)", None),
    "format": (str, "output format", None),
}

SYNTH_SPEC_KEYS = {
    "n_patients": (int, "cohort size"),
    "prevalence_poor": (float, "poor-outcome prevalence in (0, 1)"),
    "module_aucs": (list, "comma-separated per-module AUC targets"),
    "module_names": (list, "comma-separated module names"),
    "rho_age": (float, "age-outcome copula correlation"),
    "rho_nihss": (float, "nihss-outcome copula correlation"),
    "seed": (int, "generator seed"),
}

_CHOICES = {"variable": FUSION_VARIABLES, "strategy": THRESHOLD_STRATEGIES, "format": OUTPUT_FORMATS}

_JSON_TYPE_NAMES = {
    str: "a string", float: "a number", int: "an integer", bool: "true or false", list: "a list",
}


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


def _load_json(path: Path, table: dict[str, tuple], what: str) -> dict:
    document = _read_json(path)
    if not isinstance(document, dict):
        raise ConfigError(f"{path}: {what} must be a JSON object")
    unknown = sorted(set(document) - set(table))
    if unknown:
        raise ConfigError(f"{path}: unknown {what} keys: {', '.join(unknown)}")
    for key, value in document.items():
        if value is not None and not _has_json_type(value, table[key][0]):
            raise ConfigError(f"{path}: {what} key {key!r} must be {_JSON_TYPE_NAMES[table[key][0]]}, got {value!r}")
    return document


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def _add_flags(parser: argparse.ArgumentParser, table: dict[str, tuple], skip: tuple[str, ...] = ()) -> None:
    """A flag for each key of ``table`` that has a help and is not skipped, stored under the key; a number is
    parsed as its JSON type, and the text of a key in ``_CHOICES`` must be one of them."""
    for key, (json_type, help_text, *_) in table.items():
        if help_text is not None and key not in skip:
            parser.add_argument(_flag(key), type=json_type if json_type in (int, float) else None,
                                choices=_CHOICES.get(key), help=help_text)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ConfigError, so they print as one ``error:`` line."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        _add_flags(sub, CONFIG_FILE_KEYS, skip=() if output else ("out", "format"))
        sub.add_argument("--config", help="JSON config file (flags override it)")

    compare = commands.add_parser("compare", help="signed-rank comparison of two cv summaries")
    compare.add_argument("summary_a", help="first summary JSON")
    compare.add_argument("summary_b", help="second summary JSON")
    compare.add_argument("--measure", required=True, choices=MEASURES, help="the per-run measure to compare")
    compare.add_argument("--variant-a", help="variant name in the first file (default: its primary)")
    compare.add_argument("--variant-b", help="variant name in the second file (default: its primary)")
    compare.add_argument("--out", help="output path (default: stdout)")

    synth = commands.add_parser("synth", help="generate a synthetic cohort CSV")
    synth.add_argument("--spec", help="synthetic spec JSON (flags override it)")
    _add_flags(synth, SYNTH_SPEC_KEYS, skip=("prevalence_poor",))
    synth.add_argument("--prevalence", type=float, dest="prevalence_poor", metavar="PREVALENCE",
                       help=SYNTH_SPEC_KEYS["prevalence_poor"][1])
    synth.add_argument("--out", required=True, help="cohort CSV output path")

    return parser


class _Settings:
    """Flag values merged over config-file values, built once into FusionConfig and CvPlan, which
    state every rule; a value they blame is reported by where it was set: the config file's key
    when no flag overrides it, else the flag."""

    KEYS = {field: key for key, (*_, field) in CONFIG_FILE_KEYS.items() if field}  # the config key of each field

    def __init__(self, args: argparse.Namespace):
        config_path = getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR)
        self.file_values: dict = {}
        if config_path:
            self.file_values = _load_json(Path(config_path), CONFIG_FILE_KEYS, "config")
        self.args = args
        try:
            if self.get("format") not in (None, *OUTPUT_FORMATS):  # the one choice the CLI states itself
                raise ConfigError(("format", f"must be one of {', '.join(OUTPUT_FORMATS)}", self.get("format")))
            self.config = self._fusion_config()
            self.plan = CvPlan(**self._given(CvPlan))
        except ConfigError as exc:
            lines: dict[str, str] = {}  # the first blamed value set in the file, and the first set by a flag
            for field, problem, value in exc.blame:
                key = self.KEYS.get(field, field)
                if getattr(args, key, None) is not None:
                    lines.setdefault("flag", f"{_flag(key)} {self._renamed(problem, _flag)}, got {value!r}")
                elif self.file_values.get(key) is not None:
                    problem = self._renamed(problem, repr)
                    lines.setdefault("file", f"{config_path}: config key {key!r} {problem}, got {value!r}")
            if lines:
                raise ConfigError(lines.get("file") or lines["flag"]) from exc
            raise

    def _renamed(self, problem: str, name_of) -> str:
        """A rule's problem text with each setting it names, by field or by key, as ``name_of(key)``."""
        for name in (*self.KEYS, *CONFIG_FILE_KEYS):
            problem = problem.replace(repr(name), name_of(self.KEYS.get(name, name)))
        return problem

    def get(self, key: str):
        flag_value = getattr(self.args, key, None)
        return flag_value if flag_value is not None else self.file_values.get(key)

    def _given(self, cls: type) -> dict:
        """The fields of ``cls`` whose keys were set, so that unset ones take the library's defaults."""
        return {field.name: value for field in fields(cls)
                if field.name in self.KEYS and (value := self.get(self.KEYS[field.name])) is not None}

    def _fusion_config(self) -> FusionConfig:
        config = FusionConfig(**self._given(FusionConfig))
        low, high = self.get("norm_min"), self.get("norm_max")
        if (low is None) != (high is None):
            key, value, other = ("norm_min", low, "norm_max") if high is None else ("norm_max", high, "norm_min")
            raise ConfigError((key, f"must be given together with {other!r}", value))
        if low is None:
            return config
        if config.clinical_variable == "none":
            problem = "needs a 'variable' other than 'none'"
            raise ConfigError(("variable", "must not be 'none' when 'norm_min' and 'norm_max' are given", "none"),
                              ("norm_min", problem, low), ("norm_max", problem, high))
        return replace(config, normalizer=ClinicalNormalizer(config.clinical_variable, low, high))

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


@contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """stdout, or a handle whose content replaces the file ``out`` once the block succeeds."""
    if out is None:
        yield sys.stdout
    else:
        with atomic_output(out) as handle:
            yield handle


def _emit(document: object, handle: TextIO) -> None:
    """``document`` as JSON, indented by 2 with sorted keys and a final newline, encoded straight into ``handle``,
    so its text is never held whole."""
    json.dump(document, handle, indent=2, sort_keys=True)
    handle.write("\n")


def _cmd_fuse(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    cohort = _read_valid_cohort(settings.cohort_path())
    variable = settings.config.clinical_variable
    with _output(settings.get("out")) as handle:
        _, resolution = resolve_fold_config(cohort, settings.config)  # one fold: its training rows are its test rows
        _, weights, fused = fuse_by_fold(cohort, slice(None), 0, variable, [resolution])
        fused_unweighted = (fused if variable == "none"
                            else fuse_by_fold(cohort, slice(None), 0, "none", [resolution])[2])
        poor, poor_unweighted = (is_poor(f, resolution.final_threshold) for f in (fused, fused_unweighted))
        label_names = np.array([str(label) for label in OutcomeLabel], dtype=object)  # indexed by "is poor"

        header = (
            ["patient_id"] + [module_column(name) for name in cohort.module_names]
            + [f"w_{name.lower()}" for name in cohort.module_names]
            + ["fused_prob", "label_unweighted", "label_weighted"]
        )
        head = [cohort.ids, *cohort.probs.T]
        tail = [fused, label_names[poor_unweighted.astype(np.intp)], label_names[poor.astype(np.intp)]]

        if settings.get("format") == "json":
            frame = {"config": {"clinical_variable": variable, "prelim_threshold": resolution.prelim_threshold,
                                "final_threshold": resolution.final_threshold}, "patients": [None]}
            opening, closing = json.dumps(frame, indent=2, sort_keys=True).split("null")
            for start in range(0, len(fused), CSV_CHUNK_ROWS):
                rows = zip(*(c[start:start + CSV_CHUNK_ROWS].tolist() for c in (*head, *weights.T, *tail)))
                text = json.dumps([dict(zip(header, row)) for row in rows], indent=2, sort_keys=True)
                # json escapes line breaks in strings, so each "\n" is structural: 2 more spaces nest the chunk's rows
                handle.write((",\n    " if start else opening) + text[4:-2].replace("\n", "\n  "))
            handle.write(closing + "\n")
        else:
            # one block: a row's weights hold at most two distinct values, which the writer formats once a chunk
            write_csv_columns(handle, header, [*head, weights, *tail])
    return EXIT_OK


def _cmd_cv(args: argparse.Namespace) -> int:
    settings = _Settings(args)
    cohort_path = settings.cohort_path()
    cohort = _read_valid_cohort(cohort_path)
    config, plan = settings.config, settings.plan

    # each module alone, the plain ensemble, and the weighted ensemble when the config weights
    configs = {name: (MODULE_BASELINE, name) for name in cohort.module_names}
    configs["ensemble"] = (replace(config, clinical_variable="none", normalizer=None), None)
    primary = ensemble_name(config)
    configs[primary] = (config, None)

    out = settings.get("out")
    with _output(out) as handle:
        variants = {name: summary.as_dict() for name, summary in evaluate_variants(cohort, plan, configs).items()}
        if out is not None:  # without a file, stdout is the document alone
            _print_cv_table(variants)
        if settings.get("format") == "csv":
            _cv_table_csv(variants, handle)
        else:
            _emit({"cohort": str(cohort_path), "plan": as_plain(plan), "primary": primary, "variants": variants},
                  handle)
    return EXIT_OK


def _variant_cell(variant: dict, measure: str) -> str:
    stats = variant["measures"][measure]
    if stats is None:
        return "n/a"
    return f"{stats['mean']:.3f} ± {stats['std']:.3f}"


def _print_cv_table(variants: dict[str, dict]) -> None:
    width = max(15, *(len(name) + 2 for name in variants))
    header = "measure".ljust(12) + "".join(name.rjust(width) for name in variants)
    print(header)
    for measure in MEASURES:
        cells = [_variant_cell(variant, measure).rjust(width) for variant in variants.values()]
        print(measure.ljust(12) + "".join(cells))
    for name, variant in variants.items():
        failures = variant["failures"]
        if failures:
            print(f"note: {name}: {len(failures)} failed runs ({failures[0]}...)")


def _cv_table_csv(variants: dict[str, dict], handle: TextIO) -> None:
    header = ["model"] + [f"{m}_{s}" for m in MEASURES for s in ("mean", "std")]
    rows = [[name] + [(variant["measures"][m] or {"mean": "", "std": ""})[key] for m in MEASURES
                      for key in ("mean", "std")] for name, variant in variants.items()]
    write_csv_columns(handle, header, [np.array(column, dtype=object) for column in zip(*rows)])


def _pick_variant(document: object, requested: str | None, path: str) -> dict:
    if not isinstance(document, dict):
        raise ValidationError(f"{path}: not a recognizable summary file")
    if "variants" in document:
        variants = document["variants"]
        if not isinstance(variants, dict):
            raise ValidationError(f"{path}: 'variants' must be a JSON object")
        name = document.get("primary") if requested is None else requested
        if not isinstance(name, str) or name not in variants:
            raise ConfigError(f"{path}: variant {name!r} not present")
        if not isinstance(variants[name], dict):
            raise ValidationError(f"{path}: variant {name!r} is not a summary object")
        return variants[name]
    if "runs" in document:
        if requested is not None and requested != document.get("model"):
            raise ConfigError(f"{path}: variant {requested!r} not present")
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
    with _output(args.out) as handle:
        _emit(document, handle)
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    values: dict = {}
    if args.spec:
        values.update(_load_json(Path(args.spec), SYNTH_SPEC_KEYS, "synthetic spec"))
    # each flag's destination is its spec key; the module lists arrive as text and are parsed here
    values.update((key, getattr(args, key)) for key in SYNTH_SPEC_KEYS if getattr(args, key) is not None)
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
    try:
        args = build_parser().parse_args(argv)
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()  # a reader that has gone away fails here, as an io error, not in the interpreter's exit
        return code
    except (ValidationError, ConfigError, DegenerateDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # so that the exit flush of what stdout still buffers cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: io: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
