"""Covariate-weighted late fusion and evaluation for binary stroke-outcome prediction.

The package combines per-modality classifier probabilities into a single
binary outcome prediction, weighting each modality by how well its vote
agrees with a normalized clinical covariate (age or NIHSS). It ships the
evaluation protocol used to study such ensembles: six standard measures,
patient-level k-fold cross-validation with repeated seeded runs, exact
signed-rank model comparison, and a synthetic cohort generator with
analytically known module discrimination.
"""

from .cohort import (
    DEFAULT_MODULE_NAMES,
    ClinicalNormalizer,
    Cohort,
    OutcomeLabel,
    PatientRecord,
    Violation,
    as_plain,
    binarize_mrs,
    normalize_clinical,
    read_cohort_csv,
    validate_cohort,
    write_cohort_csv,
)
from .crossval import (
    CvPlan,
    FoldResolution,
    RunResult,
    RunSummary,
    compare_summary_dicts,
    evaluate_model,
    evaluate_per_module,
    evaluate_variants,
    make_folds,
    resolve_fold_config,
)
from .errors import ConfigError, DegenerateDataError, ValidationError
from .fusion import (
    FusionConfig,
    FusionResult,
    classify,
    compute_weights,
    derive_labels,
    fuse,
    fuse_patient,
    normalizer_from_patients,
    search_threshold,
    uniform_weights,
)
from .metrics import (
    MEASURES,
    MetricReport,
    auc,
    confusion_counts,
    confusion_metrics,
    mean_absolute_error,
    report,
)
from .significance import PairedSample, TestResult, wilcoxon_signed_rank
from .synth import DEFAULT_MODULE_AUCS, SyntheticSpec, generate_cohort

__version__ = "0.1.0"
