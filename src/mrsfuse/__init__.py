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
    ClinicalNormalizer,
    Cohort,
    OutcomeLabel,
    PatientRecord,
    as_plain,
    read_cohort_csv,
    validate_cohort,
    write_cohort_csv,
)
from .crossval import (
    CvPlan,
    RunSummary,
    compare_summary_dicts,
    evaluate_model,
    evaluate_per_module,
    evaluate_variants,
    resolve_fold_config,
)
from .errors import ConfigError, DegenerateDataError, ValidationError
from .fusion import (
    FusionConfig,
    classify,
    compute_weights,
    derive_labels,
    fuse,
    fuse_patient,
    uniform_weights,
)
from .metrics import auc
from .significance import PairedSample, TestResult, wilcoxon_signed_rank
from .synth import SyntheticSpec, generate_cohort

__version__ = "0.1.0"
